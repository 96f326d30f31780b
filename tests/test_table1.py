"""End-to-end Table I reproduction at test scale.

Exact-shape assertions (tight supports, near-exact counts) are reserved
for the full-scale run recorded in EXPERIMENTS.md; at test scale (~120+
recipes per cuisine) supports carry sampling noise ~0.04, so tolerances
are set accordingly. Everything is seeded, so these are deterministic.
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.table1 import format_table1, table1
from repro.mining.spark_fpm import mine_all_regions
from repro.recipedb.generator import RECIPE_SCHEMA
from repro.recipedb.vocab import PAPER_TABLE1, REGIONS

ALL_REGIONS = pytest.mark.parametrize("region", REGIONS)


@pytest.fixture(scope="module")
def t1(spark, recipes_small) -> pd.DataFrame:
    return table1(recipes_small, min_support=0.2)


def test_one_row_per_named_pattern(t1):
    expected = sum(len(pats) for _, pats, _ in PAPER_TABLE1.values())
    assert len(t1) == expected


def test_all_regions_covered(t1):
    assert sorted(t1["region"].unique()) == sorted(REGIONS)


@ALL_REGIONS
def test_named_pattern_support_close_to_paper(t1, region):
    """Measured support of the paper's named pattern(s) within sampling
    noise of the paper value (+ the designed 0.012-0.02 margin)."""
    rows = t1[t1["region"] == region]
    for row in rows.itertuples():
        assert row.support == pytest.approx(row.paper_support + 0.016, abs=0.11), (
            f"{region} / {row.pattern}: measured {row.support} "
            f"vs paper {row.paper_support}"
        )


@ALL_REGIONS
def test_pattern_count_same_ballpark(t1, region):
    """Pattern counts at small scale fluctuate (fillers sit just above the
    threshold) but must stay in the paper's ballpark."""
    row = t1[t1["region"] == region].iloc[0]
    paper_n = row.paper_n_patterns
    assert 0.45 * paper_n <= row.n_patterns <= 1.8 * paper_n, (
        f"{region}: {row.n_patterns} vs paper {paper_n}"
    )


def test_pattern_count_ordering_roughly_preserved(t1):
    """The cuisines the paper ranks pattern-richest must measure well above
    the pattern-poorest (shape of the Table I count column)."""
    per_region = t1.groupby("region").first()
    rich = per_region.loc[["Northern Africa", "Indian Subcontinent"], "n_patterns"].mean()
    poor = per_region.loc[["Australian", "Canadian", "Caribbean"], "n_patterns"].mean()
    assert rich > 2.0 * poor


def test_table1_three_jobs(recipes_small, mined_small, spark_jobs):
    """With the mined frame cached, Table I is one collect of its regions
    plus the two jobs of the pattern-support query; the pattern counts
    take no Spark aggregation of their own."""
    assert spark_jobs(lambda: table1(recipes_small, min_support=0.2)) <= 3


def test_pattern_counts_include_regions_that_mine_nothing(spark, recipes_small):
    """At support 0.35 several cuisines mine no pattern at this scale; they
    keep their rows, with ``n_patterns`` 0, and every count equals the
    mined frame's rows for that region."""
    t = table1(recipes_small, min_support=0.35)
    mined = mine_all_regions(recipes_small, 0.35).toPandas()
    expected = mined["region"].value_counts().reindex(REGIONS, fill_value=0)
    got = t.groupby("region", sort=False)["n_patterns"].first()
    assert list(got.index) == REGIONS
    assert got.tolist() == expected.tolist()
    assert (got == 0).sum() == 7


def test_recipes_scaled_counts(t1):
    """At scale 0.05 every region has max(120, round(0.05 * paper_n))."""
    for row in t1.itertuples():
        expected = max(120, round(0.05 * row.paper_n_recipes))
        assert row.n_recipes == expected


def test_supports_are_probabilities(t1):
    assert (t1["support"] >= 0).all()
    assert (t1["support"] <= 1).all()


def test_format_table1_markdown(t1):
    md = format_table1(t1)
    assert md.startswith("| Region |")
    assert len(md.splitlines()) == 2 + 26
    for region in REGIONS:
        assert region in md


def test_multi_pattern_regions_have_multiple_rows(t1):
    assert len(t1[t1["region"] == "Northern Africa"]) == 3
    assert len(t1[t1["region"] == "Korean"]) == 2
    assert len(t1[t1["region"] == "UK"]) == 2


def test_table1_rejects_empty_frame(spark):
    with pytest.raises(ValueError, match="no recipes for Australian, Belgian, "):
        table1(spark.createDataFrame([], RECIPE_SCHEMA), min_support=0.2)


def test_table1_names_every_cuisine_without_recipes(recipes_small):
    """Two cuisines missing: one error names both, in REGIONS order."""
    lacking = recipes_small.filter(~F.col("region").isin("Thai", "Korean"))
    with pytest.raises(ValueError, match="no recipes for Thai, Korean$"):
        table1(lacking, min_support=0.2)


def test_table1_rejects_cuisines_outside_regions(spark, recipes_small, spark_jobs):
    """A recipe of a cuisine outside REGIONS is named in the error, not
    dropped from the table, and the check comes before the mining job."""
    atlantis = spark.createDataFrame(
        [("Atlantis", 10**9, ["salt"], [], [], ["salt"])], RECIPE_SCHEMA
    )

    def call():
        with pytest.raises(ValueError, match="cuisines not in REGIONS: Atlantis$"):
            table1(recipes_small.unionByName(atlantis), min_support=0.2)

    assert spark_jobs(call) <= 2


@pytest.mark.parametrize("min_support", [0, 1.5])
def test_table1_rejects_bad_min_support_before_spark(
    recipes_small, spark_jobs, min_support
):
    def call():
        with pytest.raises(ValueError, match="min_support"):
            table1(recipes_small, min_support=min_support)

    assert spark_jobs(call) == 0
