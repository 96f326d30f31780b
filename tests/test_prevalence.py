"""Authenticity prevalence: the dense prevalence matrix vs a DuckDB oracle,
relative prevalence vs a per-item loop reference, dense matrix correctness."""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.authenticity.prevalence import (
    authenticity_matrix,
    prevalence,
    top_authentic_items,
)
from repro.recipedb.generator import RECIPE_SCHEMA
from repro.recipedb.vocab import REGIONS


@pytest.fixture(scope="module")
def long_ingredients(recipes_small_pdf) -> pd.DataFrame:
    return (
        recipes_small_pdf[["region", "recipe_id", "ingredients"]]
        .explode("ingredients")
        .rename(columns={"ingredients": "item"})
        .dropna(subset=["item"])
    )


@pytest.fixture(scope="module")
def prev_small(spark, recipes_small):
    return prevalence(recipes_small)


def test_prevalence_oracle_cuisine_norm(prev_small, long_ingredients, recipes_small_pdf):
    """Every nonzero entry of the dense P equals DuckDB's per-cuisine
    count(*) / N_c, and every other entry is 0."""
    P, items = prev_small
    totals = recipes_small_pdf.groupby("region").size().reset_index(name="n_total")
    con = duckdb.connect()
    try:
        con.register("long", long_ingredients)
        con.register("totals", totals)
        expected = con.execute(
            """
            SELECT l.region, l.item, count(*) / any_value(t.n_total) AS prevalence
            FROM long l JOIN totals t ON l.region = t.region
            GROUP BY l.region, l.item
            """
        ).fetchdf()
    finally:
        con.close()
    assert items == sorted(set(expected["item"]))
    col = {it: j for j, it in enumerate(items)}
    want = np.zeros((len(REGIONS), len(items)))
    want[
        [REGIONS.index(r) for r in expected["region"]],
        [col[it] for it in expected["item"]],
    ] = expected["prevalence"]
    np.testing.assert_allclose(P, want, rtol=1e-12, atol=0)


def test_prevalence_bounds(prev_small):
    P, _ = prev_small
    assert ((P >= 0) & (P <= 1)).all()
    # every vocabulary item is used by at least one cuisine
    assert (P.max(axis=0) > 0).all()


def test_signature_ingredients_prevalent(prev_small):
    """Sanity: Japanese soy sauce prevalence ~ its event probability."""
    P, items = prev_small
    # 120 recipes at test scale -> sd ~ 0.046; 0.1 is a ~2-sigma band.
    p = P[REGIONS.index("Japanese"), items.index("soy sauce")]
    assert p == pytest.approx(0.462, abs=0.1)


def test_relative_prevalence_window_matches_dense(spark, recipes_small, recipes_small_pdf):
    """Reference for eq. 2: for a sample of items and every cuisine c,
    P_i^c minus the mean of P_i^k over the other 25 cuisines, by an
    explicit loop over recipe sets, against the dense NumPy matrix."""
    rel, items = authenticity_matrix(recipes_small)
    recipes_of = {
        region: [set(ing) for ing in group["ingredients"]]
        for region, group in recipes_small_pdf.groupby("region")
    }

    def prev(item: str, region: str) -> float:
        recs = recipes_of[region]
        return sum(item in r for r in recs) / len(recs)

    rng = np.random.default_rng(0)
    sample = rng.choice(len(items), size=min(200, len(items)), replace=False)
    for j in [items.index("soy sauce"), *sample]:
        for c, region in enumerate(REGIONS):
            others = [prev(items[j], k) for k in REGIONS if k != region]
            want = prev(items[j], region) - sum(others) / len(others)
            assert rel[c, j] == pytest.approx(want, abs=1e-12)


def test_prevalence_rejects_unlisted_region(spark):
    pdf = pd.DataFrame(
        {
            "region": ["Atlantis"],
            "recipe_id": [0],
            "ingredients": [["salt"]],
            "processes": [["boil"]],
            "utensils": [["pot"]],
            "items": [["boil", "pot", "salt"]],
        }
    )
    with pytest.raises(ValueError, match="Atlantis"):
        prevalence(spark.createDataFrame(pdf, RECIPE_SCHEMA))


def test_prevalence_rejects_empty_frame(spark):
    """No recipes: no matrix to score, rather than a 26 × 0 one that fails
    later as a zero-variance tree."""
    with pytest.raises(ValueError, match="no recipes"):
        authenticity_matrix(spark.createDataFrame([], RECIPE_SCHEMA))


def test_prevalence_two_jobs(spark_jobs, recipes_small):
    """T4's counts are one query: a shuffle map stage and a collect."""
    assert spark_jobs(lambda: prevalence(recipes_small)) <= 2


def test_relative_prevalence_column_identity(spark):
    """Hand-made frame: in Korean one of two recipes has salt and the other
    no ingredients, so P = 0.5 (N_c counts recipes, not ingredient rows);
    Thai has no ingredients at all and the other 24 cuisines no recipes, so
    their rows are 0. For each item sum_c p_i^c = S_i - (n S_i - S_i)/(n - 1)
    = 0, and it is finite."""
    pdf = pd.DataFrame(
        {
            "region": ["Korean", "Korean", "Thai"],
            "recipe_id": [0, 1, 2],
            "ingredients": [["salt"], [], []],
            "processes": [["boil"], ["fry"], ["boil"]],
            "utensils": [[], [], ["pot"]],
            "items": [["boil", "salt"], ["fry"], ["boil", "pot"]],
        }
    )
    df = spark.createDataFrame(pdf, RECIPE_SCHEMA)
    korean = REGIONS.index("Korean")
    P, items = prevalence(df)
    assert items == ["salt"]
    want = np.zeros((26, 1))
    want[korean] = 0.5
    assert P.tolist() == want.tolist()
    rel, _ = authenticity_matrix(df)
    assert np.isfinite(rel).all()
    want = np.full((26, 1), -0.5 / 25)
    want[korean] = 0.5
    assert rel.tolist() == want.tolist()
    assert np.allclose(rel.sum(axis=0), 0.0)


def test_authenticity_matrix_shape_and_items_sorted(spark, recipes_small):
    rel, items = authenticity_matrix(recipes_small)
    assert rel.shape == (26, len(items))
    assert items == sorted(items)


def test_authenticity_matrix_absent_item_negative(spark, recipes_small):
    """An item a cuisine never uses must get a strictly negative relative
    prevalence there if others use it (the "least prevalent" fingerprint)."""
    rel, items = authenticity_matrix(recipes_small)
    j = items.index("soy sauce")
    greek = rel[REGIONS.index("Greek"), j]
    japanese = rel[REGIONS.index("Japanese"), j]
    assert greek < 0 < japanese


def test_top_authentic_items_shape(spark, recipes_small):
    rel, items = authenticity_matrix(recipes_small)
    tops = top_authentic_items(rel, items, k=4)
    assert len(tops) == 26 * 8
    assert set(tops["side"]) == {"most", "least"}


@pytest.mark.parametrize("k", [0, -1])
def test_top_authentic_items_rejects_k_below_one(k):
    rel = np.array([[0.5, -0.5]] * len(REGIONS))
    with pytest.raises(ValueError, match="k must be >= 1"):
        top_authentic_items(rel, ["a", "b"], k=k)


def test_top_authentic_items_signature(spark, recipes_small):
    """Each cuisine's signature items should surface among its most
    authentic ingredients."""
    rel, items = authenticity_matrix(recipes_small)
    tops = top_authentic_items(rel, items, k=8)
    jp = set(tops[(tops["region"] == "Japanese") & (tops["side"] == "most")]["item"])
    assert "soy sauce" in jp
    mx = set(tops[(tops["region"] == "Mexican") & (tops["side"] == "most")]["item"])
    assert "cilantro" in mx
