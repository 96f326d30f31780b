"""The DuckDB oracle itself (smoke), on the test-scale RecipeDB."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.recipedb.vocab import REGIONS


@pytest.fixture(scope="module")
def sizes(recipes_small):
    """Scalar-only view of the recipes (the oracle compares no arrays)."""
    return recipes_small.select(
        "region", "recipe_id", F.size("items").alias("n_items")
    )


def test_oracle_accepts_matching_aggregate(spark, sizes):
    got = sizes.groupBy("region").agg(
        F.count(F.lit(1)).alias("cnt"),
        F.sum("n_items").alias("n_items"),
    )
    assert_equivalent(
        got,
        """SELECT region, count(*) AS cnt, sum(n_items) AS n_items
           FROM r GROUP BY region""",
        r=sizes,
    )


def test_oracle_accepts_join(spark, sizes):
    groups = pd.DataFrame(
        {"region": REGIONS, "grp": [i % 3 for i in range(len(REGIONS))]}
    )
    got = (
        sizes.join(spark.createDataFrame(groups), "region")
        .groupBy("grp")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )
    assert_equivalent(
        got,
        """SELECT grp, count(*) AS cnt
           FROM r JOIN g ON r.region = g.region
           GROUP BY grp""",
        r=sizes,
        g=groups,
    )


def test_oracle_rejects_wrong_result(spark, sizes):
    wrong = sizes.groupBy("region").agg(
        (F.count(F.lit(1)) + 1).alias("cnt")  # off by one
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT region, count(*) AS cnt FROM r GROUP BY region",
            r=sizes,
        )


def test_oracle_rejects_column_mismatch(spark, sizes):
    got = sizes.groupBy("region").agg(F.count(F.lit(1)).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            got,
            "SELECT region, count(*) AS cnt FROM r GROUP BY region",
            r=sizes,
        )


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [10.0, 20.0, 30.0]})
    got = spark.createDataFrame(pdf).groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)
