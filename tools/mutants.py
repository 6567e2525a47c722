#!/usr/bin/env python3
"""Run the mutation table of ``tests/mutants.py``.

    python3 tools/mutants.py        # every mutant, writes MUTANTS.json

The checkout, without ``.git``, caches and benchmark scratch, is copied
once to a temporary directory.  Each mutant is applied there alone: its
fragment, which must occur exactly once in its file, is replaced, the
named tests run in their own pytest process (with ``TIMEOUT`` seconds to
finish), and the file is restored.  A mutant is *killed* when every
named test fails, or when the run outlasts the timeout, which a mutant
that never ends the merge loop does; otherwise it *survived*, and the
tests that passed are listed.  ``MUTANTS.json`` at the root of the
checkout gets, per mutant, its name, file, verdict, the named tests that
did not fail and the seconds taken.  Exits 1 if any mutant survived.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_work",
                                ".benchmarks", "*.dot")
TIMEOUT = 300   # seconds; a mutant that never ends the merge loop hits it


def run_mutant(tree: Path, mutant) -> dict:
    """Apply one mutant in ``tree``, run its tests, restore the file."""
    name, rel, fragment, replacement, tests = mutant
    path = tree / rel
    original = path.read_text(encoding="utf-8")
    if original.count(fragment) != 1:
        raise SystemExit(f"{rel}: the fragment of {name!r} does not occur exactly once")
    path.write_text(original.replace(fragment, replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
        failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
        passed = [t for t in tests if t not in failed]
        verdict = "killed" if not passed else "survived"
    except subprocess.TimeoutExpired:
        passed, verdict = [], "killed (timeout)"
    finally:
        path.write_text(original, encoding="utf-8")
    return {"name": name, "file": rel, "verdict": verdict, "not_failed": passed,
            "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from mutants import MUTANTS

    results = []
    with tempfile.TemporaryDirectory(prefix="cohmin-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for mutant in MUTANTS:
            results.append(run_mutant(tree, mutant))
            r = results[-1]
            print(f"{r['verdict']:>16}  {r['seconds']:7.2f} s  {r['name']}", flush=True)
    (ROOT / "MUTANTS.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["verdict"] == "survived" for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
