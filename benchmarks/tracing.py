"""In-process passes over a list of ``cohmin`` ops, traced or not.

Run as a program (``run.py --trace 1`` starts it, once per mode, each in its
own process so that end-to-end runs never carry wrappers)::

    python3 benchmarks/tracing.py OPS.json OUT.json [--traced]

OPS.json is a list of argv lists.  Each op goes through
``cohmin.frontend.cli.cli_main`` with stdout and stderr captured; OUT.json
gets per-op time, exit code and output, and with ``--traced`` the spans and
tallies below.

Tracing replaces the callables listed in ``WRAPPED`` by wrappers.  cohmin's
modules call each other through module globals and class attributes, so the
wrappers also see inner calls (``coherent_minimize`` -> ``equivalence_pairs``
-> ``coherent_simulation`` -> ``product_reach``).  A *span* wrapper records
(name, op, parent span, start, end) per call; a *tally* wrapper, used for
methods called ~10^5 times per op, only adds up calls and time.  A span's
self time is its duration minus the time its child spans and the tallies
inside it cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

SPAN, TALLY = "span", "tally"
LAYERS = ("frontend", "kernel", "algebra", "coherence", "symbolic", "protocol")


def _text_bytes(args, result):
    return {"bytes": len(args[0])}


def _result_bytes(args, result):
    return {"bytes": len(result)}


def _product_size(args, result):
    return {"built": len(args[0].states) * len(args[1].states),
            "kept": len(result.states)}


def _relation_size(args, result):
    return {"pairs": len(result.pairs)}


def _model_size(args, result):
    return {"states": len(result.states), "transitions": len(result.delta)}


def _monitored_rounds(args, result):
    return {"rounds": len(args[1]) if result.ok else result.index + 1}


# Every traced callable, in one place:
# (module, attribute, layer, kind, counts taken from (args, result)).
WRAPPED = (
    ("cohmin.frontend.fileformat", "parse_model", "frontend", SPAN, _text_bytes),
    ("cohmin.frontend.fileformat", "parse_trace", "frontend", SPAN, _text_bytes),
    ("cohmin.frontend.fileformat", "parse_regex_protocol", "frontend", SPAN,
     _text_bytes),
    ("cohmin.frontend.fileformat", "serialize_model", "frontend", SPAN,
     _result_bytes),
    ("cohmin.kernel", "Transducer.__post_init__", "kernel", SPAN, None),
    ("cohmin.kernel", "Transducer.enabled", "kernel", TALLY, None),
    ("cohmin.kernel", "Transducer.step_set", "kernel", TALLY, None),
    ("cohmin.algebra", "intersect", "algebra", SPAN, _product_size),
    ("cohmin.algebra", "bounded_language_equal", "algebra", SPAN, None),
    ("cohmin.algebra", "determinize", "algebra", SPAN, None),
    ("cohmin.coherence", "coherent_minimize", "coherence", SPAN, None),
    ("cohmin.coherence", "equivalence_pairs", "coherence", SPAN, None),
    ("cohmin.coherence", "coherent_simulation", "coherence", SPAN,
     _relation_size),
    ("cohmin.coherence", "product_reach", "coherence", SPAN, None),
    ("cohmin.coherence", "quotient", "coherence", SPAN, None),
    ("cohmin.coherence", "bisim_minimize", "coherence", SPAN, None),
    ("cohmin.coherence", "coherent_equiv_bounded", "coherence", SPAN, None),
    ("cohmin.symbolic", "sfst_coherent_minimize", "symbolic", SPAN, None),
    ("cohmin.symbolic", "sfst_equivalence_pairs", "symbolic", SPAN, None),
    ("cohmin.symbolic", "sfst_coherent_simulation", "symbolic", SPAN,
     _relation_size),
    ("cohmin.symbolic", "sfst_quotient", "symbolic", SPAN, None),
    ("cohmin.symbolic", "guard_equiv", "symbolic", TALLY, None),
    ("cohmin.symbolic", "expand", "symbolic", SPAN, _model_size),
    ("cohmin.protocol", "compile_regex", "protocol", SPAN, None),
    ("cohmin.protocol", "monitor", "protocol", SPAN, _monitored_rounds),
)


def span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


LAYER_OF = {span_name(m, a): layer for m, a, layer, _, _ in WRAPPED}


class Recorder:
    """Spans and tallies of one traced pass, kept in memory."""

    def __init__(self):
        # span: [name, op, parent index, start, end, tally seconds inside, counts]
        self.spans: List[list] = []
        self.tallies: Dict[str, List[float]] = {}
        self.op = None
        self._open: List[int] = []

    def _span(self, name, fn, measure):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, self.op, open_[-1] if open_ else None, 0.0, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(entry)
            entry[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = perf_counter()
                open_.pop()
            if measure is not None:
                entry[6] = measure(args, result)
            return result

        return wrapper

    def _tally(self, name, fn):
        cell = self.tallies.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if open_:
                    spans[open_[-1]][5] += dt

        return wrapper

    def install(self):
        for module, attr, _, kind, measure in WRAPPED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            name = span_name(module, attr)
            setattr(owner, leaf, self._span(name, fn, measure) if kind == SPAN
                    else self._tally(name, fn))


def run_ops(argvs, recorder=None):
    from cohmin.frontend.cli import cli_main

    results = []
    for i, argv in enumerate(argvs):
        if recorder is not None:
            recorder.op = i
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except Exception as e:  # a traceback is a failed op, not a crash
                code = None
                err.write(f"{type(e).__name__}: {e}\n")
        results.append({"seconds": perf_counter() - t0, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


# -- per-layer metrics ---------------------------------------------------------


def _self_times(spans):
    children = [0.0] * len(spans)
    for name, op, parent, start, end, tally_s, counts in spans:
        if parent is not None:
            children[parent] += end - start
    return [end - start - children[i] - tally_s
            for i, (_, _, _, start, end, tally_s, _) in enumerate(spans)]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traced: dict, untraced_s: float, traced_s: float
                  ) -> Dict[str, tuple]:
    """Per-layer metrics of a traced pass: name -> (value, unit).

    ``*_s`` are inclusive span times unless named ``self``; counts are
    summed over the pass.  ``untraced_s``/``traced_s`` are the in-process
    times of the same ops without and with tracing, for the overhead.
    """
    spans, tallies = traced["spans"], traced["tallies"]
    selfs = _self_times(spans)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for (name, _, _, start, end, _, extra), self_s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + self_s
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    tally_calls = {name: c for name, (c, _) in tallies.items()}
    tally_s = {name: s for name, (_, s) in tallies.items()}
    c = lambda name: calls.get(name, 0)
    t = lambda name: total.get(name, 0.0)
    n = lambda key: counts.get(key, 0)

    parse = ("fileformat.parse_model", "fileformat.parse_trace",
             "fileformat.parse_regex_protocol")
    pass_s = sum(r["seconds"] for r in traced["results"])
    top_level = sum(end - start for _, _, parent, start, end, _, _ in spans
                    if parent is None)
    m = {
        "frontend.parse_s": (sum(t(x) for x in parse), "s"),
        "frontend.parse_bytes": (sum(n(f"{x}.bytes") for x in parse), "bytes"),
        "frontend.serialize_s": (t("fileformat.serialize_model"), "s"),
        "frontend.serialize_bytes": (n("fileformat.serialize_model.bytes"), "bytes"),
        "kernel.transducer_builds": (c("kernel.Transducer.__post_init__"), "count"),
        "kernel.transducer_build_s": (t("kernel.Transducer.__post_init__"), "s"),
        "kernel.enabled_calls": (tally_calls.get("kernel.Transducer.enabled", 0),
                                 "count"),
        "kernel.traces_s": (tally_s.get("kernel.Transducer.step_set", 0.0), "s"),
        "algebra.intersect_s": (t("algebra.intersect"), "s"),
        "algebra.product_states_built": (n("algebra.intersect.built"), "count"),
        "algebra.product_states_kept": (n("algebra.intersect.kept"), "count"),
        "algebra.product_useful_ratio": (
            _ratio(n("algebra.intersect.kept"), n("algebra.intersect.built")),
            "ratio"),
        "algebra.bounded_equal_s": (t("algebra.bounded_language_equal"), "s"),
        "algebra.determinize_calls": (c("algebra.determinize"), "count"),
        "algebra.determinize_s": (t("algebra.determinize"), "s"),
        "coherence.minimize_s": (t("coherence.coherent_minimize"), "s"),
        "coherence.simulation_calls": (c("coherence.coherent_simulation"), "count"),
        "coherence.simulation_self_s": (own.get("coherence.coherent_simulation", 0.0),
                                        "s"),
        "coherence.product_reach_calls": (c("coherence.product_reach"), "count"),
        "coherence.product_reach_s": (t("coherence.product_reach"), "s"),
        "coherence.relation_pairs": (n("coherence.coherent_simulation.pairs"),
                                     "count"),
        "coherence.merges": (c("coherence.quotient"), "count"),
        "coherence.merges_per_simulation": (
            _ratio(c("coherence.quotient"), c("coherence.coherent_simulation")),
            "ratio"),
        "coherence.quotient_s": (t("coherence.quotient"), "s"),
        "coherence.bisim_s": (t("coherence.bisim_minimize"), "s"),
        "symbolic.sfst_simulation_calls": (c("symbolic.sfst_coherent_simulation"),
                                           "count"),
        "symbolic.sfst_simulation_s": (t("symbolic.sfst_coherent_simulation"), "s"),
        "symbolic.guard_equiv_calls": (tally_calls.get("symbolic.guard_equiv", 0),
                                       "count"),
        "symbolic.guard_equiv_s": (tally_s.get("symbolic.guard_equiv", 0.0), "s"),
        "symbolic.expand_s": (t("symbolic.expand"), "s"),
        "symbolic.expand_states": (n("symbolic.expand.states"), "count"),
        "symbolic.expand_transitions": (n("symbolic.expand.transitions"), "count"),
        "protocol.compile_calls": (c("protocol.compile_regex"), "count"),
        "protocol.compile_s": (t("protocol.compile_regex"), "s"),
        "protocol.monitor_s": (t("protocol.monitor"), "s"),
        "protocol.monitor_rounds": (n("protocol.monitor.rounds"), "count"),
        "protocol.monitor_rounds_per_s": (
            _ratio(n("protocol.monitor.rounds"), t("protocol.monitor")), "1/s"),
    }
    for layer in LAYERS:
        spent = sum(s for name, s in own.items() if LAYER_OF[name] == layer)
        spent += sum(s for name, s in tally_s.items() if LAYER_OF[name] == layer)
        m[f"{layer}.self_s"] = (spent, "s")
    m["cli.unattributed_s"] = (pass_s - top_level, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    return m


def per_op_calls(traced: dict, names) -> List[Dict[str, int]]:
    """For each op of the pass, how often each named span was entered."""
    ops = [dict.fromkeys(names, 0) for _ in traced["results"]]
    for name, op, *_ in traced["spans"]:
        if name in ops[op]:
            ops[op][name] += 1
    return ops


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    traced = "--traced" in args
    if traced:
        args.remove("--traced")
    if len(args) != 2:
        print("usage: tracing.py OPS.json OUT.json [--traced]", file=sys.stderr)
        return 1
    ops_path, out_path = map(Path, args)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    argvs = json.loads(ops_path.read_text(encoding="utf-8"))
    recorder = Recorder() if traced else None
    if recorder is not None:
        recorder.install()
    results = run_ops(argvs, recorder)
    out = {"results": results}
    if recorder is not None:
        out["spans"] = recorder.spans
        out["tallies"] = recorder.tallies
    out_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
