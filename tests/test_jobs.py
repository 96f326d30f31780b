"""The reproduction entrypoint runs from a checkout without installing
``repro``: the driver and Spark's Python workers both import it."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

JOBS = Path(__file__).resolve().parent.parent / "jobs"

SECTIONS = [
    "T5: dataset statistics",
    "T1: Table I",
    "T2: elbow",
    "T3: FIHC",
    "T4: authenticity",
    "trees",
]


def test_experiments_job_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(JOBS / "experiments.py"), "--scale", "0.01"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    out = proc.stdout
    for section in SECTIONS:
        assert f"########## {section}" in out, section
    assert "recipes_without_utensils" in out
    assert "Korean" in out
    assert "| Region | Recipes (paper) |" in out  # Table I as markdown
    assert "top authentic ingredients per cuisine" in out
    # geographic, three FIHC and authenticity trees
    assert out.count("newick:") == 5
