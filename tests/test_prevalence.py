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
    return prevalence(recipes_small, REGIONS)


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
    rel, items = authenticity_matrix(recipes_small, REGIONS)
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


def test_authenticity_matrix_follows_region_order(spark, recipes_small, prev_small):
    """Rows follow ``regions``: the reversed list gives the reversed rows
    (eq. 2 sums the rows in the other order, hence the tolerance)."""
    P, items = prev_small
    P_rev, items_rev = prevalence(recipes_small, REGIONS[::-1])
    assert items_rev == items
    assert np.array_equal(P_rev, P[::-1])
    rel, _ = authenticity_matrix(recipes_small, REGIONS)
    rel_rev, _ = authenticity_matrix(recipes_small, REGIONS[::-1])
    np.testing.assert_allclose(rel_rev, rel[::-1], rtol=0, atol=1e-12)


def test_prevalence_rejects_unlisted_region(spark, recipes_small):
    with pytest.raises(ValueError, match="Korean"):
        prevalence(recipes_small, [r for r in REGIONS if r != "Korean"])


def test_relative_prevalence_column_identity():
    """For each item, sum_c p_i^c = sum_c P_i^c * (1 - ... ) — concretely:
    sum of relative prevalences equals sum(P) - (n-1)^-1 * (n-1) * sum(P)
    ... which telescopes to 0 exactly. Verify on a toy matrix."""
    P = np.array([[0.5, 0.0], [0.1, 0.2], [0.0, 0.4]])
    n = 3
    rel = P - (P.sum(0, keepdims=True) - P) / (n - 1)
    # sum_c [P_ic - (S_i - P_ic)/(n-1)] = S_i - (n S_i - S_i)/(n-1) = 0
    assert np.allclose(rel.sum(axis=0), 0.0)


def test_authenticity_matrix_shape_and_items_sorted(spark, recipes_small):
    rel, items = authenticity_matrix(recipes_small, REGIONS)
    assert rel.shape == (26, len(items))
    assert items == sorted(items)


def test_authenticity_matrix_absent_item_negative(spark, recipes_small):
    """An item a cuisine never uses must get a strictly negative relative
    prevalence there if others use it (the "least prevalent" fingerprint)."""
    rel, items = authenticity_matrix(recipes_small, REGIONS)
    j = items.index("soy sauce")
    greek = rel[REGIONS.index("Greek"), j]
    japanese = rel[REGIONS.index("Japanese"), j]
    assert greek < 0 < japanese


def test_top_authentic_items_shape(spark, recipes_small):
    rel, items = authenticity_matrix(recipes_small, REGIONS)
    tops = top_authentic_items(rel, items, REGIONS, k=4)
    assert len(tops) == 26 * 8
    assert set(tops["side"]) == {"most", "least"}


def test_top_authentic_items_signature(spark, recipes_small):
    """Each cuisine's signature items should surface among its most
    authentic ingredients."""
    rel, items = authenticity_matrix(recipes_small, REGIONS)
    tops = top_authentic_items(rel, items, REGIONS, k=8)
    jp = set(tops[(tops["region"] == "Japanese") & (tops["side"] == "most")]["item"])
    assert "soy sauce" in jp
    mx = set(tops[(tops["region"] == "Mexican") & (tops["side"] == "most")]["item"])
    assert "cilantro" in mx
