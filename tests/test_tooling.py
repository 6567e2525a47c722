"""Contracts with the files around the library: the demos, the benchmark
tracer and running the CLI module with ``python -m``.

Each reaches into cohmin by name, so a refactor can break it without any
library test noticing.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a temporary working directory: demo 04 writes a DOT file into it
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


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
