"""Section-III dataset statistics, computed in Spark SQL (oracle-checked).

Reproduces the numbers the paper reports about RecipeDB: total recipes,
unique ingredient / process / utensil counts, average items per recipe by
type, and the number of recipes without utensil information. (Table I's
per-region recipe counts come from ``spark_fpm.pattern_support``.)

Like every recipe aggregation, the query reads the cached frame one task
per core: it coalesces the recipes to ``defaultParallelism`` partitions
before its shuffle, so the 28 Arrow-batch partitions of the scale-1.0
frame do not each write ``spark.sql.shuffle.partitions`` blocks.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .generator import ITEM_COLUMNS

# Column codes of the per-recipe sentinel rows; items get 0, 1, 2 (their
# position in ITEM_COLUMNS).
_RECIPE, _NO_UTENSILS = -1, -2


def dataset_summary(recipes: DataFrame) -> pd.DataFrame:
    """All Section-III stats as one tidy pandas frame (metric, value).

    One query, no Python lambda: ``stack`` turns every recipe into four
    (column code, list) rows, a one-null sentinel list coded
    ``_NO_UTENSILS`` when the utensil list is empty (else ``_RECIPE``),
    then each of ``ITEM_COLUMNS`` by its position. One ``explode`` and a
    count of the ``(column, item)`` pairs follow. The ~16.6k counts
    (scale 1.0) are collected, and pandas derives the eight metrics: a
    column's unique count is its number of distinct items, its average
    the sum of its counts over N.
    """
    sentinel = F.when(F.size("utensils") == 0, _NO_UTENSILS).otherwise(_RECIPE)
    rows = [(sentinel, F.array(F.lit(None).cast("string")))]
    rows += [(F.lit(i), F.col(c)) for i, c in enumerate(ITEM_COLUMNS)]
    stacked = F.stack(F.lit(len(rows)), *[x for row in rows for x in row])
    cores = recipes.sparkSession.sparkContext.defaultParallelism
    counts = (
        recipes.coalesce(cores)
        .select(stacked.alias("column", "list"))
        .select("column", F.explode("list").alias("item"))
        .groupBy("column", "item")
        .count()
        .toPandas()
    )
    per_column = counts.groupby("column")["count"]
    total, uniq = per_column.sum(), per_column.size()
    n_no_utensils = int(total.get(_NO_UTENSILS, 0))
    n = int(total.get(_RECIPE, 0)) + n_no_utensils
    if n == 0:
        raise ValueError("dataset_summary: the frame holds no recipes")
    return pd.DataFrame(
        [("total_recipes", n)]
        + [(f"unique_{c}", int(uniq.get(i, 0))) for i, c in enumerate(ITEM_COLUMNS)]
        + [
            (f"avg_{c}", round(int(total.get(i, 0)) / n, 2))
            for i, c in enumerate(ITEM_COLUMNS)
        ]
        + [("recipes_without_utensils", n_no_utensils)],
        columns=["metric", "value"],
    )
