import os
import sys


def _driver_mem() -> str:
    """Heap size for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > 75% of the
    cgroup v2/v1 limit > half of ``MemTotal`` from /proc/meminfo, clamped
    to 2–8g, the rule of ROADMAP.md's tier-1 test command (2g if
    /proc/meminfo is unreadable).
    spark.driver.memory is read at JVM launch, not from SparkConf, so it
    must be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere —
    this runs at conftest import, which pytest loads before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError, IndexError):
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
        return "2g"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    return f"{min(8, max(2, kib // 2_097_152))}g"  # half of MemTotal, in GiB


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402

# Importing the entrypoint's plumbing puts the checkout's ``src/`` on the
# driver's ``sys.path`` and on ``PYTHONPATH`` (for Spark's Python workers),
# so ``repro`` is importable without ``pip install``.
from jobs import _common  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, built by
    ``jobs/_common.build_session`` so tests plan queries as the entrypoint
    does. Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set
    above, pre-JVM-launch)."""
    s = _common.build_session("repro")
    # One stderr line that says whether the cgroup derivation saw the real
    # limit (README's Running block states the heap rule).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
