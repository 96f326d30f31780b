"""Per-cuisine frequent-itemset mining in Spark.

Two engines with identical output contracts (cross-validated in tests):

* :func:`mine_all_regions` — the default: one Spark job, ``applyInPandas``
  over region groups running the reference FP-Growth per group. This is
  the "FP-Growth per partition" layout the repro hint describes; a region's
  transactions always fit one group at RecipeDB scale.
* :func:`mine_region_mllib` — Spark MLlib's DataFrame-based
  ``pyspark.ml.fpm.FPGrowth``, one fit per cuisine (used for
  cross-validation and the miner benchmark).

Also provides :func:`pattern_support`, a Spark SQL containment query used
to measure the support of the paper's *named* patterns directly from the
data (independent of any miner) — oracle-checked against DuckDB.
"""
from __future__ import annotations

from collections.abc import Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .fpgrowth import fpgrowth
from .patterns import canon_pattern

MINED_SCHEMA = T.StructType(
    [
        T.StructField("region", T.StringType(), False),
        T.StructField("items", T.ArrayType(T.StringType()), False),
        T.StructField("freq", T.LongType(), False),
        T.StructField("support", T.DoubleType(), False),
    ]
)


def mine_all_regions(
    recipes: DataFrame, min_support: float = 0.2
) -> DataFrame:
    """Mine every cuisine in one grouped-map job.

    Returns a DataFrame (region, items, freq, support); ``items`` is sorted
    so a pattern has one canonical representation.
    """

    def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
        region = pdf["region"].iloc[0]
        transactions = [list(t) for t in pdf["items"]]
        n = len(transactions)
        mined = fpgrowth(transactions, min_support)
        rows = [
            (region, sorted(itemset), cnt, cnt / n)
            for itemset, cnt in mined.items()
        ]
        return pd.DataFrame(rows, columns=["region", "items", "freq", "support"])

    return (
        recipes.select("region", "items")
        .groupBy("region")
        .applyInPandas(_mine, schema=MINED_SCHEMA)
    )


def mine_region_mllib(
    recipes: DataFrame, region: str, min_support: float = 0.2
) -> DataFrame:
    """Mine one cuisine with Spark MLlib FPGrowth.

    Returns the same (region, items, freq, support) shape as
    :func:`mine_all_regions`.
    """
    from pyspark.ml.fpm import FPGrowth

    sub = recipes.filter(F.col("region") == region).select("items")
    n = sub.count()
    model = FPGrowth(
        itemsCol="items", minSupport=min_support, minConfidence=0.5
    ).fit(sub)
    return model.freqItemsets.select(
        F.lit(region).alias("region"),
        F.array_sort("items").alias("items"),
        F.col("freq").cast("long").alias("freq"),
        (F.col("freq") / F.lit(float(n))).alias("support"),
    )


def pattern_support(
    recipes: DataFrame, patterns: Sequence[Sequence[str]]
) -> DataFrame:
    """Measure the support of explicit itemsets per region via Spark SQL.

    For each pattern P: support = recipes containing all items of P /
    recipes in region. Returns (region, n_recipes, pattern, freq, support)
    where ``n_recipes`` is the region's recipe count and ``pattern`` the
    canonical " + "-joined sorted string.
    """
    aggs = [F.count(F.lit(1)).alias("n_recipes")]
    pairs = []
    for k, p in enumerate(patterns):
        cond = None
        for item in p:
            c = F.array_contains("items", item)
            cond = c if cond is None else (cond & c)
        # Positional aliases: pattern names never reach a SQL string, so
        # items with quote characters need no escaping.
        aggs.append(F.sum(cond.cast("long")).alias(f"p{k}"))
        pairs.append(
            F.struct(
                F.lit(canon_pattern(p)).alias("pattern"),
                F.col(f"p{k}").alias("freq"),
            )
        )
    wide = recipes.groupBy("region").agg(*aggs)
    return wide.select(
        "region", "n_recipes", F.explode(F.array(*pairs)).alias("pf")
    ).select(
        "region",
        "n_recipes",
        F.col("pf.pattern").alias("pattern"),
        F.col("pf.freq").cast("long").alias("freq"),
        (F.col("pf.freq") / F.col("n_recipes")).alias("support"),
    )
