"""Spark mining engines: grouped applyInPandas vs local reference vs MLlib,
plus the oracle-checked pattern-support query."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.mining.fpgrowth import fpgrowth
from repro.mining.spark_fpm import (
    mine_all_regions,
    mine_region_mllib,
    pattern_support,
)
from repro.oracle import assert_equivalent
from repro.recipedb.vocab import NAMED_PATTERNS, REGIONS


def _local_mined(pdf: pd.DataFrame, region: str, min_support: float = 0.2):
    sub = pdf[pdf["region"] == region]
    return fpgrowth([list(t) for t in sub["items"]], min_support)


def test_grouped_covers_all_regions(mined_small_pdf):
    assert list(mined_small_pdf.columns) == ["region", "items", "freq"]
    assert sorted(mined_small_pdf["region"].unique()) == sorted(REGIONS)


def test_grouped_items_sorted(mined_small_pdf):
    for items in mined_small_pdf["items"].head(300):
        assert list(items) == sorted(items)


@pytest.mark.parametrize("region", REGIONS)
def test_grouped_equals_local_reference(region, mined_small_pdf, recipes_small_pdf):
    """The applyInPandas engine must return exactly the local FP-Growth
    result for each region."""
    expected = _local_mined(recipes_small_pdf, region)
    got = {
        frozenset(r.items): r.freq
        for r in mined_small_pdf[mined_small_pdf["region"] == region].itertuples()
    }
    assert got == expected


def test_grouped_one_partition_per_core(spark, recipes_small, mined_small):
    """The mined frame has one partition (one Python task) per core, not
    one per ``spark.sql.shuffle.partitions`` (64); this call hits the
    frame ``mined_small`` cached."""
    mined = mine_all_regions(recipes_small, 0.2)
    assert mined.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism


@pytest.mark.parametrize("region", ["Korean", "Greek", "Middle Eastern"])
def test_mllib_equals_local_reference(spark, recipes_small, recipes_small_pdf, region):
    """Spark MLlib FPGrowth must agree itemset-for-itemset with the
    reference implementation."""
    expected = _local_mined(recipes_small_pdf, region)
    got_pdf = mine_region_mllib(recipes_small, region, 0.2).toPandas()
    assert list(got_pdf.columns) == ["region", "items", "freq"]
    got = {frozenset(r.items): r.freq for r in got_pdf.itertuples()}
    assert got == expected


def test_grouped_miner_rejects_null_item(spark):
    """``RECIPE_SCHEMA``'s arrays admit null elements; a null item fails the
    region's group with ``eclat``'s message, not a silent miscount."""
    df = spark.createDataFrame(
        [("A", ["a", "b"]), ("A", ["a", None]), ("A", [None, "c"]), ("A", ["c"])],
        "region string, items array<string>",
    )
    with pytest.raises(PythonException, match="holds a null item None"):
        mine_all_regions(df, 0.5).collect()


def test_min_support_filters_more_patterns(spark, recipes_small):
    lo = mine_all_regions(recipes_small, 0.15).count()
    hi = mine_all_regions(recipes_small, 0.3).count()
    base = mine_all_regions(recipes_small, 0.2).count()
    assert lo > base > hi


@pytest.mark.parametrize("min_support", [0, 1.5])
def test_spark_miners_reject_bad_min_support(spark, recipes_small, min_support):
    """Refused on the driver, before any Spark job runs."""
    with pytest.raises(ValueError, match="min_support"):
        mine_all_regions(recipes_small, min_support)
    with pytest.raises(ValueError, match="min_support"):
        mine_region_mllib(recipes_small, "Korean", min_support)


def test_pattern_support_oracle(spark, recipes_small, recipes_small_pdf):
    """The containment-count SQL (used to measure Table I named-pattern
    supports) must match DuckDB computing the same thing over the exploded
    table."""
    pats = [("butter",), ("sesame oil", "soy sauce")]
    got = pattern_support(recipes_small, pats).select("region", "pattern", "freq")
    long_pdf = (
        recipes_small_pdf[["region", "recipe_id", "items"]]
        .explode("items")
        .rename(columns={"items": "item"})
    )
    regions_pdf = recipes_small_pdf[["region"]].drop_duplicates()
    sql = """
        WITH hits AS (
            SELECT region, recipe_id,
                   count(DISTINCT item) FILTER (item = 'butter') AS has_butter,
                   count(DISTINCT item) FILTER (item IN ('sesame oil','soy sauce')) AS pair_n
            FROM long GROUP BY region, recipe_id
        ), per_region AS (
            SELECT region,
                   sum(CASE WHEN has_butter = 1 THEN 1 ELSE 0 END) AS butter_freq,
                   sum(CASE WHEN pair_n = 2 THEN 1 ELSE 0 END) AS pair_freq
            FROM hits GROUP BY region
        )
        SELECT r.region, p.pattern,
               coalesce(CASE WHEN p.pattern = 'butter' THEN pr.butter_freq
                             ELSE pr.pair_freq END, 0) AS freq
        FROM regions r
        CROSS JOIN (SELECT 'butter' AS pattern UNION ALL
                    SELECT 'sesame oil + soy sauce') p
        LEFT JOIN per_region pr ON pr.region = r.region
    """
    assert_equivalent(got, sql, long=long_pdf, regions=regions_pdf)


def test_pattern_support_quoted_item_names(spark):
    """Item names with backtick and single-quote characters are measured
    like any other (the patterns never go through a SQL string)."""
    recipes_pdf = pd.DataFrame(
        {
            "region": ["A", "A", "A", "B", "B"],
            "recipe_id": [0, 1, 2, 3, 4],
            "items": [
                ["chef's knife", "`tick`", "salt"],
                ["chef's knife", "salt"],
                ["`tick`"],
                ["`tick`", "salt", "chef's knife"],
                ["salt"],
            ],
        }
    )
    pats = [("chef's knife",), ("salt", "`tick`"), ("`tick`", "chef's knife")]
    schema = "region string, recipe_id long, items array<string>"
    got = pattern_support(spark.createDataFrame(recipes_pdf, schema), pats)
    long_pdf = recipes_pdf.explode("items").rename(columns={"items": "item"})
    pats_pdf = pd.DataFrame(
        [(" + ".join(sorted(p)), item) for p in pats for item in p],
        columns=["pattern", "item"],
    )
    sql = """
        WITH sizes AS (
            SELECT pattern, count(*) AS k FROM pats GROUP BY pattern
        ), hits AS (
            SELECT l.region, l.recipe_id, p.pattern, count(DISTINCT l.item) AS k
            FROM long l JOIN pats p ON l.item = p.item
            GROUP BY l.region, l.recipe_id, p.pattern
        ), found AS (
            SELECT h.region, h.pattern, count(*) AS freq
            FROM hits h JOIN sizes s ON h.pattern = s.pattern AND h.k = s.k
            GROUP BY h.region, h.pattern
        ), totals AS (
            SELECT region, count(*) AS n FROM recipes GROUP BY region
        )
        SELECT t.region, t.n AS n_recipes, s.pattern, coalesce(f.freq, 0) AS freq,
               coalesce(f.freq, 0)::DOUBLE / t.n AS support
        FROM totals t CROSS JOIN sizes s
        LEFT JOIN found f ON f.region = t.region AND f.pattern = s.pattern
    """
    assert_equivalent(
        got,
        sql,
        long=long_pdf,
        pats=pats_pdf,
        recipes=recipes_pdf[["region", "recipe_id"]],
    )


def test_pattern_support_rejects_empty_input(recipes_small):
    """An empty pattern list and an empty pattern are refused by name."""
    with pytest.raises(ValueError, match="no patterns given"):
        pattern_support(recipes_small, [])
    with pytest.raises(ValueError, match="a pattern has no items"):
        pattern_support(recipes_small, [("butter",), ()])


def test_pattern_support_matches_mined_result(mined_small_pdf, recipes_small, spark):
    """Where a named pattern was mined, the SQL containment count must
    equal the mined count exactly."""
    region = "Japanese"
    mined = mined_small_pdf[mined_small_pdf["region"] == region]
    row = mined[mined["items"].map(lambda x: list(x) == ["soy sauce"])]
    assert len(row) == 1
    sql_freq = (
        pattern_support(recipes_small, [("soy sauce",)])
        .filter(F.col("region") == region)
        .first()["freq"]
    )
    assert sql_freq == int(row["freq"].iloc[0])


def test_named_patterns_measured_for_every_region(spark, recipes_small):
    sup = pattern_support(recipes_small, NAMED_PATTERNS).toPandas()
    assert len(sup) == len(NAMED_PATTERNS) * 26
    assert sup["support"].between(0, 1).all()
