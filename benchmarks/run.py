#!/usr/bin/env python3
"""End-to-end benchmark of the ``cohmin`` command line.

    python3 benchmarks/run.py --workload ring-minimize --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed held-out
    python3 benchmarks/run.py --self-check

Run it from anywhere inside a checkout; it finds ``src/`` and ``fixtures/``
next to its own directory and writes only under ``.bench_work/`` there.

``--trace 0`` times whole ``cohmin`` processes, startup included, in a
closed loop with one client: each process starts after the previous one
exits.  The window runs whole rounds of the workload's op schedule until
``--seconds`` have passed and at least ``MIN_OPS`` ops ran.  Each op's
time is scaled by a reference timed around it, which cancels the shared
machine's drift (README.md, "Speed normalisation").  ``--trace 1``
runs a fixed prefix of the same schedule in-process, untraced and traced
(see ``tracing.py``), and reports per-layer metrics.  Every op's
output is checked by ``checks.py``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import checks  # noqa: E402  (script directory is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

COHMIN = ("-c", "from cohmin.frontend.cli import main; main()")
SETUP_REPEATS = 5
MIN_OPS = 44              # p75 then has at least ten samples beyond it
TAIL_PERCENTILE = 75
OP_TIMEOUT_S = 60
STARTUP_SAMPLES = 5
TRACE_OPS = 9             # ops of the schedule the in-process passes run
PASS_REPEATS = 2          # of each in-process pass, alternating modes
PASS_TIMEOUT_S = 70
# The reference timed around every op (README.md, "Speed normalisation"):
# reference_work's size, the bare interpreter start, and the reference's
# time on the machine the benchmark was tuned on.
REFERENCE_STATES = 45
REFERENCE_PASSES = 3
REFERENCE_ENTRIES = 75_000
REFERENCE_ARGV = ("-I", "-c", "pass")
REFERENCE_S = 0.100
TINY_MODEL = "signature in a; out b;\nstates s;\ninitial s;\n"


@dataclass
class Outcome:
    seconds: float
    code: object
    stdout: str
    stderr: str
    timed_out: bool = False


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cohmin(argv, timeout=OP_TIMEOUT_S) -> Outcome:
    """One ``cohmin`` process, timed from spawn to exit."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *COHMIN, *argv], cwd=ROOT,
                            env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    return Outcome(perf_counter() - t0, proc.returncode,
                   out.decode("utf-8", "replace"), err.decode("utf-8", "replace"),
                   timed_out)


class Spawner:
    """The small process that runs the measured ops (``spawner.py``)."""

    def __init__(self, work: Path):
        self.out, self.err = work / "op.out", work / "op.err"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def spawn(self, argv, out, err) -> dict:
        return self._ask({"argv": argv, "cwd": str(ROOT), "out": str(out),
                          "err": str(err), "timeout": OP_TIMEOUT_S})

    def run(self, argv) -> Outcome:
        r = self.spawn([sys.executable, *COHMIN, *argv], self.out, self.err)
        read = partial(Path.read_text, encoding="utf-8", errors="replace")
        return Outcome(r["seconds"], r["code"], read(self.out), read(self.err),
                       r["timed_out"])

    def peak_rss_mb(self) -> float:
        return self._ask({})["peak_rss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Judge:
    """Counts failed and wrong ops; a repeated (op, output) is checked once."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self._seen: Dict[tuple, bool] = {}

    def __call__(self, op: workloads.Op, result: Outcome) -> None:
        self.attempted += 1
        if result.timed_out or result.code not in op.codes or result.stderr:
            self.failed += 1
        key = (id(op), result.code, hash(result.stdout))
        if key not in self._seen:
            self._seen[key] = (not result.timed_out
                               and bool(op.check(result.stdout, result.code)))
        if not self._seen[key]:
            self.wrong += 1

    def lines(self) -> List[str]:
        n = self.attempted
        return [f"failed_ratio {self.failed / n:.4f} ratio ({self.failed}/{n})",
                f"wrong_ratio {self.wrong / n:.4f} ratio ({self.wrong}/{n})"]

    def result(self, metrics: Dict[str, tuple]) -> dict:
        return {
            "correct": self.failed == 0 and self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def setup(workload: str, seed: int, work: Path):
    """Generate the seeded inputs and expectations, then warm up with one
    trivial process.  Returns (rounds, tiny model path, seconds)."""
    if work.exists():
        shutil.rmtree(work)
    t0 = perf_counter()
    rounds = workloads.build(workload, seed, ROOT, work)
    tiny = work / "tiny.fst"
    tiny.write_text(TINY_MODEL, encoding="utf-8")
    warm = run_cohmin(["validate", str(tiny)])
    if warm.code != 0 or warm.stderr:
        raise RuntimeError(f"warm-up failed: {warm.stderr.strip()}")
    return rounds, tiny, perf_counter() - t0


def reference_work() -> int:
    """A fixed slice of pure-Python work shaped like cohmin's: a relation
    over state pairs refined through tuple, dict and set lookups, then a
    large dict of fresh tuples, as a process that parses and builds a big
    machine allocates.  It never touches cohmin; its time reads the
    machine's current speed for both kinds of work."""
    rng = random.Random("reference")
    states = [f"q{i:03d}" for i in range(REFERENCE_STATES)]
    succ = {(s, v): tuple(rng.sample(states, 3)) for s in states for v in "abcd"}
    rel = {(a, b) for i, a in enumerate(states) for j, b in enumerate(states)
           if i * j % 7 != 3}
    for _ in range(REFERENCE_PASSES):
        rel = {(a, b) for a, b in rel
               if all(any((x, y) in rel for y in succ[b, v])
                      for v in "ab" for x in succ[a, v][:1])}
    table = dict([(i, str(i)) for i in range(REFERENCE_ENTRIES)])
    return len(rel) + sum(len(v) for v in table.values())


def reference_seconds(spawner: Spawner) -> float:
    """Time of ``reference_work`` plus one bare interpreter start-up run
    through the spawner, as every measured op starts."""
    t0 = perf_counter()
    reference_work()
    seconds = perf_counter() - t0
    bare = spawner.spawn([sys.executable, *REFERENCE_ARGV], os.devnull, os.devnull)
    return seconds + bare["seconds"]


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings of ``before`` and
    ``after`` seconds, as they would read on the machine the benchmark was
    tuned on.  Applied op by op, this cancels the drift of a shared
    machine's speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def measure(rounds, seconds: float, judge: Judge,
            spawner: Spawner) -> Tuple[list, float]:
    """Closed loop, one client: whole rounds until time and sample count
    are both reached.  Samples are (kind, scaled seconds, seconds)."""
    samples = []
    t0 = perf_counter()
    before = reference_seconds(spawner)
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            result = spawner.run(op.argv)
            after = reference_seconds(spawner)
            samples.append((op.kind, scale(result.seconds, before, after),
                            result.seconds))
            judge(op, result)
            before = after
        r += 1
        if perf_counter() - t0 >= seconds and len(samples) >= MIN_OPS:
            return samples, perf_counter() - t0


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, steadier
    than the one or two order statistics a plain percentile reads."""
    steps = 32  # midpoint rule, points per order statistic
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    h = 1 / (n * steps)
    weights = [h * sum(density((i * steps + k + 0.5) * h) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _time_metrics(setups, times) -> Dict[str, tuple]:
    ms = [1000 * s for s in times]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(times) / sum(times), "ops/s"),
        "latency_p50_ms": (hd_quantile(ms, 0.5), "ms"),
        "latency_tail_ms": (hd_quantile(ms, TAIL_PERCENTILE / 100), "ms"),
    }


def end_to_end(workload, seed, seconds, work) -> dict:
    spawner = Spawner(work)  # forked while this process is still small
    try:
        setups = []
        reference_seconds(spawner)  # warm-up: the first one reads slow
        before = reference_seconds(spawner)
        for _ in range(SETUP_REPEATS):
            rounds, _, spent = setup(workload, seed, work)
            after = reference_seconds(spawner)
            setups.append((scale(spent, before, after), spent))
            before = after
        judge = Judge()
        samples, wall = measure(rounds, seconds, judge, spawner)
        rss_mb = spawner.peak_rss_mb()
    finally:
        spawner.close()
    metrics = _time_metrics([s for s, _ in setups], [s for _, s, _ in samples])
    raw = _time_metrics([r for _, r in setups], [r for _, _, r in samples])
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    tail = metrics["latency_tail_ms"][0]
    beyond = sum(1 for _, s, _ in samples if 1000 * s > tail)
    print(f"workload {workload} seed {seed}: {len(samples)} ops in "
          f"{len(samples) // len(rounds[0])} rounds, {wall:.2f} s window, "
          "closed loop, 1 client")
    print("times are at reference speed (each op scaled by "
          f"{REFERENCE_S} s / the mean reference time around it); as measured "
          "in brackets")
    for name, (value, unit) in metrics.items():
        measured = f" ({raw[name][0]:.6g})" if name in raw else ""
        print(f"{name} {value:.6g} {unit}{measured}")
    print(f"  latency_tail_ms is p{TAIL_PERCENTILE} of {len(samples)} samples, "
          f"{beyond} beyond it")
    for line in judge.lines():
        print(line)
    for kind in sorted({k for k, _, _ in samples}):
        times = [1000 * s for k, s, _ in samples if k == kind]
        print(f"  op {kind}: {len(times)} runs, median {statistics.median(times):.1f} ms")
    return judge.result(metrics)


def _in_process(ops_file: Path, out_file: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "tracing.py"), str(ops_file), str(out_file)]
    subprocess.run(cmd + (["--traced"] if traced else []), cwd=ROOT, check=True,
                   timeout=PASS_TIMEOUT_S)
    return json.loads(out_file.read_text(encoding="utf-8"))


def _pass_seconds(run: dict) -> float:
    return sum(r["seconds"] for r in run["results"])


def _fastest(runs) -> float:
    """Sum over ops of each op's fastest time across repeated passes."""
    return sum(min(r["seconds"] for r in rs)
               for rs in zip(*(run["results"] for run in runs)))


def per_layer(workload, seed, work) -> dict:
    rounds, tiny, _ = setup(workload, seed, work)
    startup = statistics.median(
        run_cohmin(["validate", str(tiny)]).seconds for _ in range(STARTUP_SAMPLES))
    ops = [op for r in rounds for op in r][:TRACE_OPS]
    ops_file = work / "ops.json"
    ops_file.write_text(json.dumps([list(op.argv) for op in ops]), encoding="utf-8")
    passes = {False: [], True: []}
    for i in range(PASS_REPEATS):
        for traced in (False, True):
            out = work / f"pass{i}-{int(traced)}.json"
            passes[traced].append(_in_process(ops_file, out, traced))
    judge = Judge()
    for run in passes[False] + passes[True]:
        for op, r in zip(ops, run["results"]):
            judge(op, Outcome(r["seconds"], r["code"], r["stdout"], r["stderr"]))
    traced = min(passes[True], key=_pass_seconds)
    metrics = {"frontend.startup_ms": (1000 * startup, "ms")}
    metrics.update(tracing.layer_metrics(traced, _fastest(passes[False]),
                                         _fastest(passes[True])))
    print(f"workload {workload} seed {seed}: first {len(ops)} ops in-process, "
          f"untraced and traced, {PASS_REPEATS} passes each")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in judge.lines():
        print(line)
    for line in trace_checks(workload, traced, metrics):
        print(line)
    return judge.result(metrics)


def trace_checks(workload, traced, metrics) -> List[str]:
    """Consistency of the trace itself; reported, not part of ``correct``."""
    if workload != "ring-minimize":
        return []
    sim, merge = "coherence.coherent_simulation", "coherence.quotient"
    calls = tracing.per_op_calls(traced, (sim, merge))
    ok = all(c[sim] == c[merge] + 1 for c in calls)
    share = metrics["coherence.self_s"][0] / _pass_seconds(traced)
    return [
        f"trace-check simulation_calls == merges + 1 on each of {len(calls)} ops: "
        + ("ok" if ok else "FAILED " + str([(c[sim], c[merge]) for c in calls])),
        f"trace-check coherence self time covers {share:.1%} of in-process op "
        "time: " + ("ok" if share > 0.5 else "FAILED"),
    ]


def _remove(work: Path) -> None:
    """Delete a run's directory, and ``.bench_work`` once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def self_check() -> int:
    """Generators are seeded and byte-stable; ring n=16 folds to 2 states
    in 14 merges."""
    base = ROOT / ".bench_work" / f"self-check-{os.getpid()}"
    ok = True
    try:
        for workload in workloads.WORKLOADS:
            dirs = [base / f"{workload}-{i}" for i in range(3)]
            for d, seed in zip(dirs, (1, 1, workloads.HELD_OUT_SEED)):
                workloads.build(workload, seed, ROOT, d)
            files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
            same, differs = files[0] == files[1], files[0] != files[2]
            ok &= same and differs
            print(f"{workload}: same seed byte-identical: {same}; "
                  f"held-out seed differs: {differs}")
        names, delta = workloads.ring(16, random.Random("self-check"))
        path = base / "ring16.fst"
        path.write_text(workloads.ring_text(names, delta), encoding="utf-8")
        prot = base / "ring.prot"
        prot.write_text(workloads.RING_PROTOCOL, encoding="utf-8")
        r = run_cohmin(["minimize", "--policy", "coherent", "--protocol",
                        str(prot), str(path)])
        m = checks.parse_model_output(r.stdout)
        ring_ok = checks.ring_minimized(names, r.stdout, r.code)
        ok &= ring_ok
        print(f"ring n=16: {len(m.states)} states, {len(m.merges)} merges: "
              + ("ok" if ring_ok else "FAILED"))
    finally:
        _remove(base)
    return 0 if ok else 1


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", args.seed, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def parse_seed(text: str) -> int:
    return workloads.HELD_OUT_SEED if text == "held-out" else int(text)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", default="1", help="an integer, or 'held-out'")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    missing = [x for x in ("src/cohmin/__init__.py", workloads.IM_MODEL,
                           workloads.IM_PROTOCOL) if not (ROOT / x).is_file()]
    if missing:
        print(f"benchmark: not inside a cohmin checkout (missing {missing[0]})",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    try:
        seed = parse_seed(args.seed)
    except ValueError:
        p.error(f"bad --seed {args.seed!r}")
    if args.workload == "all":
        result = run_all(args)
    else:
        work = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
        try:
            if args.trace:
                result = per_layer(args.workload, seed, work)
            else:
                result = end_to_end(args.workload, seed, args.seconds, work)
        finally:
            _remove(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
