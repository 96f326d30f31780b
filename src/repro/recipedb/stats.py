"""Section-III dataset statistics, computed in Spark SQL (oracle-checked).

Reproduces the numbers the paper reports about RecipeDB: total recipes,
per-region recipe counts (Table I column 2), unique ingredient / process /
utensil counts, average items per recipe by type, and the number of
recipes without utensil information.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

ITEM_COLUMNS = ("ingredients", "processes", "utensils")


def region_counts(recipes: DataFrame) -> DataFrame:
    """(region, n_recipes) — Table I column 2."""
    return recipes.groupBy("region").agg(
        F.count(F.lit(1)).alias("n_recipes")
    )


def _tagged(column: str):
    """``column``'s items as (column, item) structs."""
    return F.transform(
        column, lambda x: F.struct(F.lit(column).alias("column"), x.alias("item"))
    )


def dataset_summary(recipes: DataFrame) -> pd.DataFrame:
    """All Section-III stats as one tidy pandas frame (metric, value).

    Two queries: one aggregation over the recipes (total, average list
    sizes, recipes without utensils) and one distinct count over every
    exploded item, grouped by the column it came from.
    """
    sizes = recipes.agg(
        F.count(F.lit(1)).alias("total"),
        *[F.avg(F.size(c)).alias(c) for c in ITEM_COLUMNS],
        F.sum((F.size("utensils") == 0).cast("long")).alias("no_utensils"),
    ).first()
    uniq = dict(
        recipes.select(
            F.explode(F.concat(*[_tagged(c) for c in ITEM_COLUMNS])).alias("t")
        )
        .groupBy("t.column")
        .agg(F.countDistinct("t.item"))
        .collect()
    )
    return pd.DataFrame(
        [("total_recipes", sizes["total"])]
        + [(f"unique_{c}", uniq.get(c, 0)) for c in ITEM_COLUMNS]
        + [(f"avg_{c}", round(sizes[c], 2)) for c in ITEM_COLUMNS]
        + [("recipes_without_utensils", sizes["no_utensils"])],
        columns=["metric", "value"],
    )
