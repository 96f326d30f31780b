"""Shared plumbing for the spark-submit entrypoint ``experiments.py``: the
SparkSession and the ``--scale/--seed/--min-support`` arguments.

Importing this module makes ``repro`` importable without ``pip install``:
it puts the checkout's ``src/`` on the driver's ``sys.path`` and on
``PYTHONPATH``, which Spark passes to its Python workers. The entrypoint
imports it before ``repro`` and before any session starts.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from pyspark.sql import SparkSession

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
_path = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _path if _path else "")


def build_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--min-support", type=float, default=0.2, help="FP-Growth support threshold"
    )
    return p
