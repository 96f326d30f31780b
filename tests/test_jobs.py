"""The spark-submit entrypoints run from a checkout without installing
``repro``: the driver and Spark's Python workers both import it."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _run_without_pythonpath(job: str, cwd: Path) -> str:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(JOBS / job), "--scale", "0.01"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_table1_job_runs_without_pythonpath(tmp_path):
    assert "Korean" in _run_without_pythonpath("table1.py", tmp_path)


def test_dataset_stats_job_runs_without_pythonpath(tmp_path):
    out = _run_without_pythonpath("dataset_stats.py", tmp_path)
    assert "recipes_without_utensils" in out
    assert "Korean" in out
