"""Per-cuisine frequent-itemset mining in Spark.

Two engines with one output contract, a frame of counts (region, items,
freq), cross-validated in tests:

* :func:`mine_all_regions` — the default: one ``applyInPandas`` over
  region groups running the bitmap :func:`~repro.mining.eclat.eclat` per
  group, on one partition per core (``defaultParallelism``), not one per
  shuffle partition. Materialising it runs 4 Spark jobs. A region's
  transactions always fit one group at RecipeDB scale.
* :func:`mine_region_mllib` — Spark MLlib's DataFrame-based
  ``pyspark.ml.fpm.FPGrowth``, one fit per cuisine (used for
  cross-validation and the miner benchmark).

Also provides :func:`pattern_support`, a Spark SQL containment query used
to measure the support of the paper's *named* patterns directly from the
data (independent of any miner) — oracle-checked against DuckDB.

Both read the recipes one task per core, as every recipe aggregation does:
the miner repartitions by region to ``defaultParallelism`` partitions, and
``pattern_support`` coalesces to that many before its shuffle.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import and_

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .eclat import eclat
from .fpgrowth import check_min_support
from .patterns import canon_pattern

MINED_SCHEMA = T.StructType(
    [
        T.StructField("region", T.StringType(), False),
        T.StructField("items", T.ArrayType(T.StringType()), False),
        T.StructField("freq", T.LongType(), False),
    ]
)


def mine_all_regions(recipes: DataFrame, min_support: float) -> DataFrame:
    """Mine every cuisine in one grouped map.

    The recipes are hash-partitioned by region into ``defaultParallelism``
    partitions; ``groupBy`` reuses that partitioning, so the plan keeps one
    shuffle and the result (and each later read of it) has one Python task
    per core.

    Returns a DataFrame (region, items, freq); ``items`` is sorted so a
    pattern has one canonical representation, and ``freq`` is the number
    of the region's recipes that contain it.
    """
    check_min_support(min_support)

    def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
        region = pdf["region"].iloc[0]
        mined = eclat(pdf["items"], min_support)
        rows = [(region, sorted(itemset), cnt) for itemset, cnt in mined.items()]
        return pd.DataFrame(rows, columns=["region", "items", "freq"])

    parallelism = recipes.sparkSession.sparkContext.defaultParallelism
    return (
        recipes.select("region", "items")
        .repartition(parallelism, "region")
        .groupBy("region")
        .applyInPandas(_mine, schema=MINED_SCHEMA)
    )


def mine_region_mllib(
    recipes: DataFrame, region: str, min_support: float
) -> DataFrame:
    """Mine one cuisine with Spark MLlib FPGrowth.

    Returns the same (region, items, freq) shape as
    :func:`mine_all_regions`.
    """
    from pyspark.ml.fpm import FPGrowth

    check_min_support(min_support)
    sub = recipes.filter(F.col("region") == region).select("items")
    model = FPGrowth(itemsCol="items", minSupport=min_support).fit(sub)
    return model.freqItemsets.select(
        F.lit(region).alias("region"),
        F.array_sort("items").alias("items"),
        F.col("freq").cast("long").alias("freq"),
    )


def pattern_support(
    recipes: DataFrame, patterns: Sequence[Sequence[str]]
) -> DataFrame:
    """Measure the support of explicit itemsets per region via Spark SQL.

    For each pattern P: support = recipes containing all items of P /
    recipes in region. Returns (region, n_recipes, pattern, freq, support)
    where ``n_recipes`` is the region's recipe count and ``pattern`` the
    canonical " + "-joined sorted string. One grouped row per region holds
    every pattern's count (an ``and`` of ``array_contains``), and
    ``stack`` unpivots it into one row per pattern. Raises ``ValueError``
    for an empty pattern list or an empty pattern.
    """
    if not patterns:
        raise ValueError("pattern_support: no patterns given")
    if not all(patterns):
        raise ValueError("pattern_support: a pattern has no items")
    # Positional aliases: pattern names never reach a SQL string, so items
    # with quote characters need no escaping.
    counts = [
        F.sum(reduce(and_, [F.array_contains("items", i) for i in p]).cast("long"))
        .alias(f"p{k}")
        for k, p in enumerate(patterns)
    ]
    rows = [(F.lit(canon_pattern(p)), f"p{k}") for k, p in enumerate(patterns)]
    stacked = F.stack(F.lit(len(rows)), *[x for row in rows for x in row])
    cores = recipes.sparkSession.sparkContext.defaultParallelism
    grouped = recipes.coalesce(cores).groupBy("region")
    wide = grouped.agg(F.count(F.lit(1)).alias("n_recipes"), *counts)
    long = wide.select("region", "n_recipes", stacked.alias("pattern", "freq"))
    return long.withColumn("support", F.col("freq") / F.col("n_recipes"))
