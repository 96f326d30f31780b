"""Reproduction benchmark for the Sharma et al. cuisine-clustering repro.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

One driver process runs a closed loop on ``local[4]``: one reproduction
config at a time, each the ``jobs/experiments.py`` pipeline (generate ->
load -> stats -> mine -> Table I -> elbow -> FIHC -> authenticity) called
through the public ``repro`` functions. Whole cycles of the workload's
supports run until the configs that passed their checks add up to
``--seconds`` (or 3 x ``--seconds`` have passed). Every config's outputs
are checked and
fingerprinted; ``paper`` at seed 0 must also reproduce EXPERIMENTS.md.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every config twice, untraced and then traced with a
span around each call into a ``repro`` layer, and reports the per-layer
metrics; both passes must give the same fingerprint.

The last line of stdout is the JSON result. Spans, Spark counts and the
per-region mining record go to ``.bench_work/records/``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"

# Workloads: scale, the supports cycled through, and whether each config
# takes the next seed. ``sweep`` alternates the two ends of the support
# range the pipeline runs cleanly at this scale; ``paper`` covers 0.2. It
# stops at 0.25: at scale 0.05 and support 0.3 about one seed in ten leaves
# a cuisine with no frequent item, and the pipeline raises on its all-zero
# feature row (cosine ``pdist``). Over 400 random seeds every cuisine's most
# frequent item stayed in at least 27.5% of its recipes, so 0.25 mines
# patterns everywhere.
WORKLOADS = {
    "paper": (1.0, (0.2,), False),
    "sweep": (0.05, (0.15, 0.25), True),
}
# The warm-up pass in set-up: every pipeline step at the smallest scale,
# so Spark's code generation, the JIT and the Python workers are warm.
WARMUP_SCALE = 0.01


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def pin_environment(tmp: Path) -> None:
    """Make ``repro`` importable on the driver and in Spark's Python
    workers, pin master and driver memory, and keep every file Spark or
    Python writes inside the checkout. Must run before pyspark starts."""
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(tmp / 'warehouse'))}",
            "pyspark-shell",
        ]
    )


def start_session():
    from pyspark.sql import SparkSession

    # The session settings of jobs/_common.build_session.
    spark = (
        SparkSession.builder.appName("repro-perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    return spark


def stop_spark() -> None:
    """Stop Spark and wait for the JVM (and with it the Python worker
    daemon) to exit; the JVM exits when its stdin closes."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from the JVM's /proc status")


def configs(workload: str, seed: int):
    from pipeline import Config

    scale, supports, next_seed = WORKLOADS[workload]
    i = 0
    while True:
        yield Config(scale, supports[i % len(supports)], seed + i if next_seed else seed)
        i += 1


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = bench_spec()
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    pin_environment(tmp)
    try:
        return measure(start_session(), args, spec)
    finally:
        if "pyspark" in sys.modules:
            stop_spark()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(spark, args, spec) -> int:
    import pipeline
    from pipeline import Config
    from reference import EXPERIMENTS_CONFIG, check_experiments
    from spans import InnerCallPatch, Tracer

    sc = spark.sparkContext
    n_pass = 0

    def one_pass(cfg: Config, traced: bool):
        nonlocal n_pass
        n_pass += 1
        tracer = Tracer(sc, str(n_pass))
        gc.collect()  # start every pass from the same driver heap state
        patch = InnerCallPatch()
        cached: list = []
        try:
            if traced:
                patch.install(tracer)
            wall, out, df = pipeline.run_pass(spark, cfg, tracer, cached)
            tracer.count_spark_work()
            extra = {}
            if traced:
                extra["regions"] = pipeline.region_record(df, cfg.support)
                extra["pattern_support_s"] = pipeline.time_pattern_support(df)
            return wall, out, tracer, extra
        finally:
            patch.restore()
            pipeline.release(cached)

    # ---- set-up: session (already up), then one warm-up pass
    one_pass(Config(WARMUP_SCALE, 0.2, args.seed), traced=False)
    setup_s = time.perf_counter() - T_START

    walls: list[float] = []
    layer: list[dict] = []
    records: list[dict] = []
    cycle = len(WORKLOADS[args.workload][1])
    t0 = time.perf_counter()
    for cfg in configs(args.workload, args.seed):
        # A failed config does not count towards --seconds, so a failure
        # does not shrink the sample; it still counts in ``failed``. Runs
        # stop only after whole cycles of supports, so every run's median
        # is taken over the same mix of supports.
        if records and len(records) % cycle == 0 and (
                sum(walls) >= args.seconds
                or time.perf_counter() - t0 >= 3 * args.seconds):
            break
        rec: dict = {"config": cfg.label()}
        t_cfg = time.perf_counter()
        try:
            wall, out, tracer, _ = one_pass(cfg, traced=False)
            problems = pipeline.check(out)
            if (cfg.scale, cfg.support, cfg.seed) == EXPERIMENTS_CONFIG:
                problems += check_experiments(out)
            rec.update(wall_s=wall, fingerprint=pipeline.fingerprint(out),
                       spans=tracer.records())
            if args.trace:
                problems += traced_pass(one_pass, cfg, out, rec, layer)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        rec.update(elapsed_s=time.perf_counter() - t_cfg, problems=problems)
        records.append(rec)
        print(f"[config] {cfg.label()} wall={rec.get('wall_s', float('nan')):.3f}s "
              f"fingerprint={rec.get('fingerprint')} "
              f"{'ok' if not problems else 'FAILED'}", flush=True)
        for p in problems:
            print(f"  problem: {p}", file=sys.stderr)
        if not problems:
            walls.append(rec["wall_s"])

    attempted = len(records)
    failed = attempted - len(walls)
    if args.trace:
        metrics = per_layer(spec, layer, failed / attempted, jvm_peak_rss_mb(spark))
        print_regions(records)
    else:
        # With every config failed, the time to failure stands in.
        samples = walls or [r["elapsed_s"] for r in records]
        metrics = {
            "setup_s": (setup_s, "s"),
            "reproduce_s": (statistics.median(samples), "s"),
            "driver_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if {k: u for k, (_, u) in metrics.items()} != want:
            raise RuntimeError(f"end-to-end metrics {sorted(metrics)} != {sorted(want)}")

    write_record(args, records, setup_s, metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"[run] workload={args.workload} seed={args.seed} master={MASTER} "
          f"driver_memory={DRIVER_MEMORY} configs={attempted} failed={failed} "
          f"samples={len(walls)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_pass(one_pass, cfg, out, rec: dict, layer: list[dict]) -> list[str]:
    """Run ``cfg`` again with tracing on; append its per-layer metrics to
    ``layer`` and return any problems."""
    from pipeline import fingerprint

    problems = []
    t_wall, t_out, t_tracer, extra = one_pass(cfg, traced=True)
    if fingerprint(t_out) != rec["fingerprint"]:
        problems.append(f"traced fingerprint {fingerprint(t_out)} != {rec['fingerprint']}")
    per_region = Counter(region for region, _, _ in out.mined)
    for r in extra["regions"]:
        if r["patterns"] != per_region[r["region"]]:
            problems.append(
                f"serial fpgrowth mined {r['patterns']} patterns in {r['region']}, "
                f"the grouped miner {per_region[r['region']]}"
            )
    m = t_tracer.layer_metrics()
    m.update(layer_extra(extra, out))
    m["trace.overhead_s"] = t_wall - rec["wall_s"]
    layer.append(m)
    rec.update(traced_wall_s=t_wall, traced_spans=t_tracer.records(), **extra)
    return problems


def print_regions(records: list[dict]) -> None:
    """The per-region mining record of each traced config."""
    for rec in records:
        if "regions" not in rec:
            continue
        print(f"[regions] {rec['config']}")
        print(f"  {'region':24s} {'recipes':>7s} {'min_count':>9s} "
              f"{'freq_items':>10s} {'patterns':>8s} {'seconds':>8s}")
        for r in rec["regions"]:
            print(f"  {r['region']:24s} {r['recipes']:7d} {r['min_count']:9d} "
                  f"{r['frequent_items']:10d} {r['patterns']:8d} {r['seconds']:8.3f}")


def layer_extra(extra: dict, out) -> dict:
    """Per-layer metrics that come from outputs and standalone timings
    rather than from spans."""
    m = {
        "mining.spark_fpm.pattern_support_s": extra["pattern_support_s"],
        "mining.spark_fpm.patterns": len(out.mined),
        "mining.patterns.columns": out.fr.features.shape[1],
        "authenticity.prevalence.columns": len(out.ar.items),
    }
    secs = [r["seconds"] for r in extra["regions"]]
    for r in extra["regions"]:
        m[f"mining.fpgrowth.region_s.{r['region'].replace(' ', '_')}"] = r["seconds"]
    m["mining.fpgrowth.max_region_s"] = max(secs)
    m["mining.fpgrowth.critical_share"] = max(secs) / sum(secs)
    return m


def per_layer(spec, layer, failed_frac, jvm_rss) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {}
    for name, unit in units.items():
        if name == "run.failed_frac":
            v = failed_frac
        elif name == "spark.jvm_peak_rss_mb":
            v = jvm_rss
        else:
            vals = [m[name] for m in layer if name in m]
            if not vals:
                raise RuntimeError(f"per-layer metric {name} was not measured")
            v = statistics.median(vals)
        out[name] = (float(v), unit)
    return out


def write_record(args, records, setup_s, metrics) -> None:
    d = WORK / "records"
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(path, "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "master": MASTER,
                "driver_memory": DRIVER_MEMORY,
                "setup_s": setup_s,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "configs": records,
            },
            f,
            indent=1,
        )


if __name__ == "__main__":
    sys.exit(main())
