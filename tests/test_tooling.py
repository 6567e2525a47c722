"""Contracts with the files around the library: the demos, the benchmark
tracer, running the CLI module with ``python -m`` and the CLI's
independence from the hash seed.

Each reaches into cohmin by name, so a refactor can break it without any
library test noticing.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cohmin.errors import CohminError
from cohmin.frontend import parse_model, parse_trace

from helpers import LINE_CHECK_FILES, UNKNOWN_ENDPOINT_FILES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The headline results each demo must print.
DEMO_LINES = {
    "01_protocol_blind_spots": ["coherent minimisation: 8 -> 4 states",
                                "bisimulation baseline:  8 -> 5 states"],
    "02_attack_monitor": ["verdict:     OK", "verdict:     VIOLATION index=2 round={d4}"],
    "03_symbolic_adder": ["expansion agrees on ['{x=2}', '{x=3}', '{r=5}'] -> True",
                          "expansion agrees on ['{x=2}', '{x=-3}', '{r=-1}'] -> True"],
    "04_iterator_map": ["coherent minimisation: 13 -> 7 states",
                        "bisimulation baseline: 13 -> 12 states"],
    "05_transducer_algebra": ["intersection soundness on 20 random pairs: True"],
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_every_demo_is_collected():
    assert [demo.stem for demo in DEMOS] == sorted(DEMO_LINES)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a temporary working directory: demo 04 writes a DOT file into it
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for line in DEMO_LINES[demo.stem]:
        assert line in proc.stdout


def test_cli_runs_as_module():
    # cohmin.frontend must not import the CLI module before -m runs it
    proc = subprocess.run(
        [sys.executable, "-m", "cohmin.frontend.cli", "validate",
         str(ROOT / "fixtures" / "two_phase.fst")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("ok: transducer")


def test_tracer_targets_resolve():
    """Every (module, attribute) that ``run.py --trace 1`` wraps exists and
    is callable; the tracer module is loaded by path, not installed."""
    spec = importlib.util.spec_from_file_location(
        "cohmin_bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, *_ in tracing.WRAPPED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


# Loads the tracer by path, installs a Recorder and runs, in process, one op
# of each kind the benchmark's workloads run; prints the exit codes, the
# stderr texts, the stdout of the violating monitor op and the monitored
# rounds that ``layer_metrics`` computes from the spans.
_TRACED_PASS = """\
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("cohmin_bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
recorder = tracing.Recorder()
recorder.install()
results = tracing.run_ops(json.loads(sys.argv[2]), recorder)
traced = {"results": results, "spans": recorder.spans, "tallies": recorder.tallies}
metrics = tracing.layer_metrics(traced, 1.0, 1.0)
print(json.dumps({"codes": [r["code"] for r in results],
                  "stderr": [r["stderr"] for r in results],
                  "violation": results[-1]["stdout"],
                  "rounds": metrics["protocol.monitor_rounds"][0]}))
"""


def test_a_traced_pass_runs_every_kind_of_benchmark_op(tmp_path):
    """``run.py --trace 1`` runs ops in process with the tracer's wrappers
    installed; each kind of op the workloads run must still pass through
    them.  The monitor's span counts rounds with ``len`` of the second
    argument of ``protocol.monitor``, so that argument must have one."""
    fix = ROOT / "fixtures"
    (tmp_path / "ring.prot").write_text("alphabet a, b;\nregex (a b)*;\n")
    (tmp_path / "ring.fst").write_text(
        "signature in a; out b;\nstates r0, r1, r2, r3;\ninitial r0;\n"
        "trans r0 -> r1 : {a};\ntrans r1 -> r2 : {b};\n"
        "trans r2 -> r3 : {a};\ntrans r3 -> r0 : {b};\n")
    (tmp_path / "stub.fst").write_text(
        "signature in a; out b;\nstates s0, s1;\ninitial s0;\ntrans s0 -> s1 : {a};\n")
    ring, ring_prot, stub = (str(tmp_path / n) for n in ("ring.fst", "ring.prot", "stub.fst"))
    reader, linear = str(fix / "forked_reader.fst"), str(fix / "linear_protocol.fst")
    im, im_prot = str(fix / "iterator_map.sfst"), str(fix / "iterator_map.prot")
    display = str(fix / "display.prot")
    ops = [
        (["minimize", "--policy", "coherent", "--protocol", ring_prot, ring], 0),
        (["intersect", reader, linear], 0),
        (["relation", "--protocol", linear, reader], 0),
        (["equiv", "--protocol", linear, "--depth", "4", reader, reader], 0),
        (["equiv", "--protocol", ring_prot, "--depth", "4", ring, stub], 3),
        (["minimize", "--policy", "bisim", reader], 0),
        (["expand", "--lo", "-1", "--hi", "1", im], 0),
        (["minimize", "--policy", "coherent", "--protocol", im_prot, im], 0),
        (["minimize", "--policy", "coherent", "--protocol", im_prot,
          "--guard-mode", "bounded-semantic", im], 0),
        (["monitor", "--protocol", display, "--trace", str(fix / "display_legal.trc")], 0),
        (["monitor", "--protocol", display, "--trace", str(fix / "display_attack.trc")], 3),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PASS, str(ROOT / "benchmarks" / "tracing.py"),
         json.dumps([argv for argv, _ in ops])],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [code for _, code in ops]
    assert out["stderr"] == [""] * len(ops)
    legal = parse_trace((fix / "display_legal.trc").read_text())
    index = int(re.match(r"VIOLATION index=(\d+) ", out["violation"]).group(1))
    assert out["rounds"] == len(legal) + index + 1


# Runs every command line of a JSON file (a list) through cli_main and
# writes [code, stdout, stderr] for each as JSON.
_CLI_BATCH = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from cohmin.frontend import cli_main
results = []
with open(sys.argv[1]) as fh:
    matrix = json.load(fh)
for argv in matrix:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _fixture_matrix(extra):
    """Every subcommand on every fixture file (and on ``extra``), then
    intersect, interact and compose on each pair of different model files,
    coherent minimize and relation in both guard modes on each model x
    protocol pair, equiv on each model pair under each protocol, and
    monitor on each protocol x trace pair."""
    files = sorted(str(p) for p in (ROOT / "fixtures").iterdir()) + extra
    models = [f for f in files if f.endswith((".fst", ".sfst"))]
    protocols = [f for f in files if f.endswith((".fst", ".prot"))]
    traces = [f for f in files if f.endswith(".trc")]
    matrix = []
    for f in files:
        try:
            model = parse_model(Path(f).read_text())
            label, pair = min(model.signature.universe), ",".join(sorted(model.states)[-2:])
        except CohminError:
            label, pair = "a", "s0,s1"
        matrix += [["validate", f], ["dot", f], ["traces", "--depth", "3", f],
                   ["project", "--keep", label, f], ["quotient", "--pair", pair, f],
                   ["expand", "--lo", "-1", "--hi", "1", f],
                   ["minimize", "--policy", "bisim", f]]
        matrix += [[op, f, f] for op in ("intersect", "interact", "compose")]
    matrix += [[op, m, m2] for op in ("intersect", "interact", "compose")
               for m in models for m2 in models if m != m2]
    for m in models:
        for p in protocols:
            for mode in ("structural", "bounded-semantic"):
                matrix += [["minimize", "--policy", "coherent", "--guard-mode", mode,
                            "--protocol", p, m],
                           ["relation", "--guard-mode", mode, "--protocol", p, m]]
            matrix += [["equiv", "--protocol", p, m, m2] for m2 in models]
    matrix += [["monitor", "--protocol", p, "--trace", t]
               for p in protocols for t in traces]
    return matrix


# Two guards that overflow at different values on the bounded-semantic test
# domain, under a protocol that allows both rounds: the overflow reported is
# the one of the first transition in canonical order, and ``expand`` names the
# least literal outside its domain, whatever the hash seed.
OVERFLOW_FILES = {
    "overflow_guards.sfst": (
        "signature in a, b; out c;\nstates A, B;\nregisters x;\ninitial A;\n"
        "trans A -> B : {a} when a * 4611686018427387904 > 0;\n"
        "trans A -> B : {b} when b * 3074457345618258603 > 0;\n"),
    "overflow_protocol.prot": "alphabet a, b, c;\nregex (a + b)*;\n",
}


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    extra = []
    files = dict(UNKNOWN_ENDPOINT_FILES)
    files.update((name, text) for name, (text, _) in LINE_CHECK_FILES.items())
    files.update(OVERFLOW_FILES)
    for name, text in sorted(files.items()):
        (tmp_path / name).write_text(text)
        extra.append(str(tmp_path / name))
    matrix = tmp_path / "matrix.json"
    commands = _fixture_matrix(extra)
    matrix.write_text(json.dumps(commands))
    # all seeds at once: three process starts in all
    procs = [subprocess.Popen([sys.executable, "-c", _CLI_BATCH, str(matrix)],
                              env=dict(_env(), PYTHONHASHSEED=seed),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for seed in ("0", "1", "7")]
    try:
        outputs = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    runs = []
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0 and err == "", err
        runs.append(json.loads(out))
    assert runs[0] == runs[1] == runs[2]
    assert {code for code, _, _ in runs[0]} == {0, 2, 3}
    result = dict(zip(map(tuple, commands), runs[0]))
    machine, proto = (str(tmp_path / name) for name in OVERFLOW_FILES)
    overflow = [2, "", "error: arithmetic overflow: -18446744073709551616\n"]
    assert result["minimize", "--policy", "coherent", "--guard-mode", "bounded-semantic",
                  "--protocol", proto, machine] == overflow
    assert result["relation", "--guard-mode", "bounded-semantic", "--protocol", proto,
                  machine] == overflow
    assert result["expand", "--lo", "-1", "--hi", "1", machine] == \
        [2, "", "error: literal 3074457345618258603 outside [-1..1]\n"]
    # the commands over fixtures/ alone are the golden matrix's commands
    fixture_commands = _fixture_matrix([])
    assert _digests(fixture_commands, [result[tuple(argv)] for argv in fixture_commands]) \
        == json.loads(GOLDEN.read_text())


# One sha256 of [code, stdout, stderr] per command of ``_fixture_matrix([])``,
# with the repository root cut from arguments and output.  Regenerate with
#     PYTHONPATH=src python tests/test_tooling.py
# only when the CLI's output is meant to change, and declare every change to
# it in CHANGES.md: it is what keeps "byte-identical output" a test.
GOLDEN = ROOT / "tests" / "golden_cli.json"


def _relative(text):
    return text.replace(str(ROOT) + os.sep, "")


def _digests(matrix, results):
    return {" ".join(map(_relative, argv)): hashlib.sha256(json.dumps(
                [code, _relative(out), _relative(err)]).encode()).hexdigest()
            for argv, (code, out, err) in zip(matrix, results)}


def _write_golden():
    matrix = _fixture_matrix([])
    path = GOLDEN.with_suffix(".matrix.tmp")
    path.write_text(json.dumps(matrix))
    try:
        proc = subprocess.run([sys.executable, "-c", _CLI_BATCH, str(path)], env=_env(),
                              capture_output=True, text=True, timeout=300, check=True)
    finally:
        path.unlink()
    GOLDEN.write_text(json.dumps(_digests(matrix, json.loads(proc.stdout)),
                                 indent=0, sort_keys=True) + "\n")


# Runs the command line it is given in a child process and prints the
# child's max RSS in KiB: this process's own peak is not counted.
_MAX_RSS = """\
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# `expand --lo -4 --hi 4` of iterator_map: 31.3 MB max RSS (Python 3.11,
# x86-64 Linux) when the walk builds the index and no transition set;
# 72.7 MB when it built a set of (source, round, target) triples and the
# constructor indexed it, and 128.6 MB with a set per row and the whole
# text in memory.
EXPAND_RSS_BUDGET_MB = 65


def test_expand_stays_within_its_memory_budget():
    argv = [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
            "expand", "--lo", "-4", "--hi", "4", str(ROOT / "fixtures" / "iterator_map.sfst")]
    proc = subprocess.run([sys.executable, "-c", _MAX_RSS, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < EXPAND_RSS_BUDGET_MB


# tracemalloc peak of `expand` over [-200..200] of one transition with two
# data inputs and the guard `x = y`: 0.34 MiB when each assignment is made,
# tried and dropped, for 160,801 assignments of which 401 fire (Python 3.11,
# x86-64 Linux); holding every assignment's value tuple alone takes about
# 11 MiB.
EXPAND_SELECTIVE_PEAK_BUDGET_MB = 2


def test_expand_holds_no_assignment_a_guard_declines():
    import tracemalloc

    from cohmin import symbolic

    T = parse_model("signature in x, y; out o;\nstates s;\ninitial s;\n"
                    "trans s -> s : {x, y} when x = y;\n")
    tracemalloc.start()
    try:
        M = symbolic.expand(T, -200, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(row) for row in M._adj.values()) == 401
    assert peak / 2**20 < EXPAND_SELECTIVE_PEAK_BUDGET_MB


# `monitor` over this 10^6-round legal trace: 98 MB max RSS when the trace
# was read into a list of lines and a tuple of rounds, 22.2 MB when the
# whole text was read and then split in pieces as it was checked, 15.5 MB
# when the file is read a piece at a time (Python 3.11, x86-64 Linux).
MONITOR_RSS_BUDGET_MB = 45


def test_monitor_streams_a_long_trace(tmp_path):
    (tmp_path / "p.fst").write_text("signature in a; out b;\nstates s0, s1;\n"
                                    "initial s0;\ntrans s0 -> s1 : {a};\n"
                                    "trans s1 -> s0 : {b};\n")
    (tmp_path / "t.trc").write_text("{a}\n{b}\n" * 500_000)
    argv = [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
            "monitor", "--protocol", str(tmp_path / "p.fst"), "--trace",
            str(tmp_path / "t.trc")]
    proc = subprocess.run([sys.executable, "-c", _MAX_RSS, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < MONITOR_RSS_BUDGET_MB


# `monitor` max RSS over {a}/{b} traces of 10^5 and 10^6 rounds: 15.5 MB
# both when the trace file is read a piece at a time; 15.8 and 22.2 MB when
# the whole text was read first (Python 3.11, x86-64 Linux).
MONITOR_RSS_GROWTH_MB = 1


def test_monitor_memory_does_not_grow_with_the_trace(tmp_path):
    (tmp_path / "p.fst").write_text("signature in a; out b;\nstates s0, s1;\n"
                                    "initial s0;\ntrans s0 -> s1 : {a};\n"
                                    "trans s1 -> s0 : {b};\n")
    rss = []
    for rounds in (10**5, 10**6):
        (tmp_path / "t.trc").write_text("{a}\n{b}\n" * (rounds // 2))
        argv = [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
                "monitor", "--protocol", str(tmp_path / "p.fst"), "--trace",
                str(tmp_path / "t.trc")]
        proc = subprocess.run([sys.executable, "-c", _MAX_RSS, *argv], env=_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rss.append(int(proc.stdout) / 1024)
    assert abs(rss[1] - rss[0]) < MONITOR_RSS_GROWTH_MB


# `intersect` of a seeded 2,000-state machine and a 50-state protocol (65,347
# reachable pairs, 7.2 MB of text): 51.5 MB max RSS when the walk built the
# product's index and the writer read it, 32.5 MB when one integer walk
# finds the pairs and each row is computed as it is written (Python 3.11,
# x86-64 Linux).
INTERSECT_RSS_BUDGET_MB = 42


def test_intersect_writes_the_product_as_it_is_walked(tmp_path):
    import random

    rng = random.Random(29)
    rounds = ["{a}", "{b}", "{c}", "{a, c}", "{b, c}", "{}"]
    paths = []
    for prefix, n, fanout in (("m", 2000, 3), ("p", 50, 5)):
        names = [f"{prefix}{i}" for i in range(n)]
        lines = ["signature in a, b; out c;", f"states {', '.join(names)};",
                 f"initial {names[0]};"]
        lines += [f"trans {s} -> {rng.choice(names)} : {rng.choice(rounds)};"
                  for s in names for _ in range(fanout)]
        paths.append(tmp_path / f"{prefix}.fst")
        paths[-1].write_text("\n".join(lines) + "\n")
    argv = [sys.executable, "-c", "from cohmin.frontend.cli import main; main()",
            "intersect", *map(str, paths)]
    proc = subprocess.run([sys.executable, "-c", _MAX_RSS, *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < INTERSECT_RSS_BUDGET_MB


def test_no_module_in_src_imports_a_name_it_never_uses():
    """The linter this project has: every name a module of ``src/cohmin``
    imports at its top level is read somewhere in that module.  A word in a
    string (``__all__``, an annotation written as text) counts as a read."""
    unused = []
    for path in sorted((ROOT / "src" / "cohmin").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in sorted(imported.items()) if name not in used]
    assert unused == []


def test_only_cli_main_ends_the_process():
    """``cli.main`` ends its process through ``os._exit``, which skips the
    interpreter's teardown, ``atexit`` handlers and ``__del__`` methods
    included.  So ``os._exit`` occurs once in ``src/``, in ``main``, and no
    module of ``src/`` registers an ``atexit`` handler or defines ``__del__``."""
    exits, faults = [], []
    for path in sorted((ROOT / "src" / "cohmin").rglob("*.py")):
        where = path.relative_to(ROOT / "src").as_posix()
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if getattr(node, "attr", None) == "_exit" or getattr(node, "id", None) == "_exit":
                    exits.append((where, getattr(stmt, "name", None)))
                if getattr(node, "id", None) == "atexit" or \
                        isinstance(node, ast.ImportFrom) and node.module == "atexit" or \
                        isinstance(node, ast.Import) and "atexit" in [a.name for a in node.names]:
                    faults.append(f"{where}:{node.lineno}: atexit")
                if getattr(node, "name", None) == "__del__":
                    faults.append(f"{where}:{node.lineno}: __del__")
    assert exits == [("cohmin/frontend/cli.py", "main")]
    assert faults == []


def test_symbolic_serves_the_expansion_names_without_loading_it():
    """``expansion`` loads on the first read of a name in ``symbolic``'s lazy
    table, and each such name is ``expansion``'s own object."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cohmin.symbolic\n"
         "print(sorted(m for m in sys.modules if m.startswith('cohmin')))"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout == "['cohmin', 'cohmin.errors', 'cohmin.kernel', 'cohmin.symbolic']\n"
    from cohmin import expansion, symbolic

    assert len(symbolic._EXPANSION) == 12
    for name in symbolic._EXPANSION:
        assert getattr(symbolic, name) is getattr(expansion, name), name


def test_moved_names_are_served_from_their_old_places():
    """The model reader loads neither the writer nor the regex grammar,
    and the kernel not the trace enumerator; each name that moved out is
    served where it was, on first read, as its new module's own object."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cohmin.frontend.fileformat\n"
         "print(sorted(m for m in sys.modules if m.startswith('cohmin')))"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout == ("['cohmin', 'cohmin.errors', 'cohmin.frontend', "
                           "'cohmin.frontend.fileformat', 'cohmin.kernel']\n")
    import cohmin
    from cohmin import algebra, frontend, kernel
    from cohmin.frontend import fileformat, grammar, writer

    served = [(fileformat, fileformat._GRAMMAR, grammar), (fileformat, fileformat._WRITER, writer),
              (kernel, kernel._ALGEBRA, algebra), (cohmin, ("TraceSet",), algebra)]
    served += [(frontend, [name], importlib.import_module(f"cohmin.frontend.{module}"))
               for name, module in frontend._LAZY.items()]
    assert sum(len(names) for _, names, _ in served) == 20
    for old, names, new in served:
        for name in names:
            assert getattr(old, name) is getattr(new, name), (old.__name__, name)


def _src_trees():
    """Each module of ``src/cohmin`` parsed, and for each name the
    (module, top-level statement index) pairs that name it."""
    trees = {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cohmin").rglob("*.py"))}
    users = {}
    for where, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    names = [getattr(node, "id", None) or getattr(node, "attr", None)]
                for name in names:
                    users.setdefault(name, set()).add((where, i))
    return trees, users


def _unnamed(trees, users, private: bool):
    """Top-level functions and classes, private or public, that no other
    top-level statement of ``src/`` names."""
    return [f"{where}:{stmt.lineno}: nothing names {stmt.name}"
            for where, tree in trees.items() for i, stmt in enumerate(tree.body)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") == private and not stmt.name.endswith("__")
            and not users.get(stmt.name, set()) - {(where, i)}]


def test_no_function_in_src_keeps_an_unread_parameter_or_an_unnamed_private_name():
    """Two more lints over ``src/cohmin``: every parameter of a function
    (dunder methods aside, whose parameters the protocol fixes) is read in
    its body, and every private top-level function or class is named by
    some other top-level statement of ``src/``."""
    trees, users = _src_trees()
    faults = []
    for where, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if x]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                faults += [f"{where}:{node.lineno}: {node.name} never reads {p!r}"
                           for p in params if p not in read]
    assert faults + _unnamed(trees, users, private=True) == []


def test_no_public_name_in_src_is_named_only_by_tests():
    """Every public top-level function or class of ``src/cohmin`` is named
    by another top-level statement of ``src/``, by a file in ``demos/`` or
    ``benchmarks/`` (the tracer names its targets in strings), or in a
    package ``__all__``.  A name that only the tests use belongs in them."""
    trees, users = _src_trees()
    outside = ("outside", 0)
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]):
        for name in re.findall(r"\w+", path.read_text(encoding="utf-8")):
            users.setdefault(name, set()).add(outside)
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in stmt.targets):
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        users.setdefault(node.value, set()).add(outside)
    assert _unnamed(trees, users, private=False) == []


def test_every_mutant_fragment_occurs_once():
    """Each entry of the mutation table (``tests/mutants.py``, run by
    ``tools/mutants.py``) names a fragment that occurs exactly once in its
    file, and tests that exist, so the table follows the code it breaks."""
    from mutants import MUTANTS

    faults = []
    for name, rel, fragment, _, tests in MUTANTS:
        if (ROOT / rel).read_text(encoding="utf-8").count(fragment) != 1:
            faults.append(f"{name}: the fragment does not occur exactly once in {rel}")
        for test in tests:
            path, *_, func = test.split("::")
            func = func.split("[")[0]   # a parametrized test's id names one case
            if not re.search(rf"def {func}\b", (ROOT / path).read_text(encoding="utf-8")):
                faults.append(f"{name}: no test {test}")
    assert len(MUTANTS) >= 6 and faults == []


if __name__ == "__main__":
    _write_golden()
