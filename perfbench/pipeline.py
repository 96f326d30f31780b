"""One reproduction config: the ``jobs/experiments.py`` pipeline called
through the public ``repro`` functions, plus its output fingerprint and
the checks every config must pass."""
from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.authenticity import authenticity_clustering
from repro.core.elbow import elbow
from repro.core.fihc import fihc
from repro.core.table1 import table1
from repro.mining.fpgrowth import fpgrowth
from repro.mining.patterns import canon_pattern
from repro.mining.spark_fpm import mine_all_regions, pattern_support
from repro.recipedb.generator import RECIPE_SCHEMA, recipes_pdf
from repro.recipedb.stats import dataset_summary
from repro.recipedb.vocab import PAPER_TABLE1, REGIONS


@dataclass(frozen=True)
class Config:
    scale: float
    support: float
    seed: int

    def label(self) -> str:
        return f"scale={self.scale} support={self.support} seed={self.seed}"


@dataclass
class Outputs:
    n_recipes: int
    summary: object
    mined: list[tuple[str, str, int]]   # (region, canonical pattern, freq), sorted
    t1: object
    er: object
    fr: object
    ar: object


def run_pass(spark, cfg: Config, tracer, cached: list) -> tuple[float, Outputs, object]:
    """Run the pipeline once; returns (wall seconds, outputs, recipes df).
    Every DataFrame it caches is appended to ``cached`` as soon as it is
    cached, so the caller can :func:`release` them even after a failure."""
    t0 = time.perf_counter()
    with tracer.span("recipedb.generator.recipes_pdf"):
        pdf = recipes_pdf(scale=cfg.scale, seed=cfg.seed)
    with tracer.span("recipedb.generator.load"):
        df = spark.createDataFrame(pdf, schema=RECIPE_SCHEMA).cache()
        cached.append(df)
        n = df.count()
    del pdf
    with tracer.span("recipedb.stats.dataset_summary"):
        summary = dataset_summary(df)
    with tracer.span("mining.spark_fpm.mine_all_regions"):
        mined = mine_all_regions(df, cfg.support).cache()
        cached.append(mined)
        mined.count()
    with tracer.span("core.table1.table1"):
        t1 = table1(df, min_support=cfg.support)
    with tracer.span("core.elbow.elbow"):
        er = elbow(df, mined=mined)
    with tracer.span("core.fihc.fihc"):
        fr = fihc(df, mined=mined)
    with tracer.span("core.authenticity.authenticity_clustering"):
        ar = authenticity_clustering(df)
    wall = time.perf_counter() - t0
    rows = mined.select("region", "items", "freq").collect()
    mined_rows = sorted((r["region"], canon_pattern(r["items"]), int(r["freq"])) for r in rows)
    return wall, Outputs(n, summary, mined_rows, t1, er, fr, ar), df


def release(cached: list) -> None:
    for d in cached:
        d.unpersist(blocking=True)


def fingerprint(o: Outputs) -> str:
    """Canonical digest of the mined pattern set, the feature matrix with
    its column labels, the linkage matrices and every score."""
    h = hashlib.sha256()

    def add(tag: str, data: bytes) -> None:
        h.update(tag.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    add("mined", "\n".join(f"{r}\t{p}\t{f}" for r, p, f in o.mined).encode())
    add("features", np.ascontiguousarray(o.fr.features, dtype=np.float64).tobytes())
    add("features.shape", repr(o.fr.features.shape).encode())
    add("features.labels", "\n".join(o.fr.patterns).encode())
    for metric in sorted(o.fr.trees):
        add(f"tree.{metric}", np.ascontiguousarray(o.fr.trees[metric]).tobytes())
    add("tree.authenticity", np.ascontiguousarray(o.ar.tree).tobytes())
    add("scores.fihc", o.fr.geo_scores.to_csv(index=False).encode())
    add("scores.authenticity", o.ar.geo_scores.to_csv(index=False).encode())
    add("probes", json.dumps([o.fr.probes, o.ar.probes], sort_keys=True).encode())
    add("elbow", o.er.curve.to_csv(index=False).encode())
    add("knee", repr((o.er.knee_strength, o.er.knee_k)).encode())
    add("table1", o.t1.to_csv(index=False).encode())
    add("summary", o.summary.to_csv(index=False).encode())
    return h.hexdigest()[:16]


def check(o: Outputs) -> list[str]:
    """Consistency checks that hold for every config; returns problems."""
    bad: list[str] = []
    stats = dict(zip(o.summary["metric"], o.summary["value"]))
    if stats["total_recipes"] != o.n_recipes:
        bad.append(f"T5 total_recipes {stats['total_recipes']} != loaded {o.n_recipes}")

    per_region = Counter(region for region, _, _ in o.mined)
    t1_counts = o.t1.groupby("region", sort=False)["n_patterns"].first()
    if list(t1_counts.index) != REGIONS:
        bad.append("T1 regions missing or out of order")
    for region, n in t1_counts.items():
        if n != per_region[region]:
            bad.append(f"T1 {region}: {n} patterns != {per_region[region]} mined")
    if o.t1.groupby("region", sort=False)["n_recipes"].first().sum() != o.n_recipes:
        bad.append("T1 recipe counts do not sum to the dataset size")

    X, labels = o.fr.features, o.fr.patterns
    universe = sorted({p for _, p, _ in o.mined})
    if labels != universe:
        bad.append("feature columns are not the sorted mined pattern universe")
    if X.shape != (len(REGIONS), len(universe)) or not np.isin(X, (0.0, 1.0)).all():
        bad.append(f"feature matrix shape {X.shape} or values are wrong")
    elif [int(v) for v in X.sum(axis=1)] != [per_region[r] for r in REGIONS]:
        bad.append("feature row sums != patterns mined per region")

    if o.ar.matrix.shape != (len(REGIONS), stats["unique_ingredients"]):
        bad.append(
            f"authenticity matrix {o.ar.matrix.shape} != 26 x unique ingredients"
        )
    trees = dict(o.fr.trees, authenticity=o.ar.tree)
    for name, Z in trees.items():
        if (
            Z.shape != (len(REGIONS) - 1, 4)
            or not np.isfinite(Z).all()
            or (np.diff(Z[:, 2]) < -1e-12).any()
            or Z[-1, 3] != len(REGIONS)
        ):
            bad.append(f"linkage {name} is not a valid average-linkage tree")
    scores = [o.fr.geo_scores, o.ar.geo_scores]
    for s in scores:
        for r in s.itertuples():
            if not (-1 <= r.cophenetic_corr_vs_geo <= 1 and 0 <= r.triplet_agreement_vs_geo <= 1):
                bad.append(f"score out of range for {r.metric}")
    if len(o.er.curve) != 10 or not all(math.isfinite(w) for w in o.er.curve["wcss"]):
        bad.append("elbow curve is not 10 finite WCSS values")
    return bad


def region_record(df, support: float) -> list[dict]:
    """Serial ``fpgrowth`` over each region's transactions: recipes,
    min-count, frequent items, patterns and seconds per region."""
    tx = df.select("region", "items").toPandas()
    out = []
    for region, grp in tx.groupby("region", sort=False):
        transactions = [list(t) for t in grp["items"]]
        n = len(transactions)
        t0 = time.perf_counter()
        mined = fpgrowth(transactions, support)
        dt = time.perf_counter() - t0
        out.append(
            {
                "region": region,
                "recipes": n,
                "min_count": max(1, math.ceil(support * n)),
                "frequent_items": sum(1 for k in mined if len(k) == 1),
                "patterns": len(mined),
                "seconds": dt,
            }
        )
    out.sort(key=lambda r: REGIONS.index(r["region"]))
    return out


def time_pattern_support(df) -> float:
    """One ``pattern_support`` over Table I's named patterns, collected,
    as ``table1`` runs it."""
    pats = sorted(
        {tuple(sorted(p)) for _, ps, _ in PAPER_TABLE1.values() for p, _ in ps}
    )
    t0 = time.perf_counter()
    pattern_support(df, pats).toPandas()
    return time.perf_counter() - t0
