"""The spark-submit entrypoints run from a checkout without installing
``repro``: the driver and Spark's Python workers both import it."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def test_table1_job_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(JOBS / "table1.py"), "--scale", "0.01"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "Korean" in proc.stdout
