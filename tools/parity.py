#!/usr/bin/env python3
"""Parity checks for a change that must not change behaviour.

    python3 tools/parity.py --seed 1 > change.json
    python3 tools/parity.py --seed 1 --root ../parent > parent.json
    python3 tools/parity.py --compare parent.json change.json
    python3 tools/parity.py --hash-seeds 0-7 tests/test_differential.py tests/test_symbolic.py

**Digests.**  The first two forms build every op of the benchmark's three
workloads for a seed, an integer or ``held-out``, through
``benchmarks/workloads.py``, which they only read.  Each op runs in this
process through ``cohmin.frontend.cli.cli_main``, and the JSON printed
holds, per op, its exit code and one SHA-256 of (exit code, stdout,
stderr), and the directory of the ``cohmin`` package that ran.  Inputs go to a temporary directory; its path and
the checkout's are replaced by ``<work>`` and ``<root>`` before hashing,
so digests of two checkouts compare.  ``--root`` names the checkout whose
``src/`` and ``fixtures/`` are used (default: the one holding this file),
so this script also digests a checkout that lacks it, such as a parent
commit exported next to this one.

**Compare.**  ``--compare A B`` prints every op whose digest differs or
that only one file holds, and exits 1 if there is any.

**Hash seeds.**  ``--hash-seeds SEEDS FILE...`` runs pytest on the files
once per ``PYTHONHASHSEED`` in ``SEEDS`` (``0-7``, or ``0,3,5``), each in
its own process, prints one line per seed and exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(root: Path, seed: int) -> dict:
    """``{op id: {"code", "sha256"}}`` for every op of the workloads, run
    in process against the cohmin under ``root/src``."""
    import workloads

    from cohmin.frontend.cli import cli_main

    ops = {}
    with tempfile.TemporaryDirectory(prefix="cohmin-parity-") as tmp:
        for workload in workloads.WORKLOADS:
            work = Path(tmp) / workload
            for r, round_ in enumerate(workloads.build(workload, seed, root, work)):
                for i, op in enumerate(round_):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli_main(list(op.argv))
                        except Exception as e:  # a traceback is an outcome too
                            code = None
                            err.write(f"{type(e).__name__}: {e}\n")
                    text = json.dumps([code, out.getvalue(), err.getvalue()])
                    text = text.replace(str(work), "<work>").replace(str(root), "<root>")
                    ops[f"{workload}/{r:02d}/{i:02d}/{op.kind}"] = {
                        "code": code,
                        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return ops


def compare(a: dict, b: dict) -> list:
    """The op ids whose entries differ, or that only one digest holds."""
    return [op for op in sorted(a["ops"].keys() | b["ops"].keys())
            if a["ops"].get(op) != b["ops"].get(op)]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def hash_seeds(seeds, files) -> int:
    """Run pytest on ``files`` once per hash seed; 0 iff every run passed."""
    failed = 0
    src = str(ROOT / "src")
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *files], cwd=ROOT, env=env, capture_output=True, text=True)
        summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
        print(f"PYTHONHASHSEED={seed}: {summary}")
        failed += proc.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", help="an integer, or 'held-out'")
    p.add_argument("--root", type=Path, default=ROOT,
                   help="the checkout whose src/ and fixtures/ to run")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    p.add_argument("--hash-seeds", metavar="SEEDS")
    p.add_argument("files", nargs="*", help="test files for --hash-seeds")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        differ = compare(a, b)
        for op in differ:
            print(f"differs: {op}")
        print(f"{len(differ)} of {len(a['ops'].keys() | b['ops'].keys())} ops differ")
        return 1 if differ else 0
    if args.hash_seeds:
        if not args.files:
            p.error("--hash-seeds needs at least one test file")
        return hash_seeds(parse_seeds(args.hash_seeds), args.files)
    if args.seed is None:
        p.error("one of --seed, --compare or --hash-seeds is required")
    sys.path[:0] = [str(args.root.resolve() / "src"), str(ROOT / "benchmarks")]
    import workloads

    seed = workloads.HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)
    ops = digest(args.root.resolve(), seed)
    import cohmin

    json.dump({"seed": args.seed, "cohmin": str(Path(cohmin.__file__).resolve().parent),
               "ops": ops}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
