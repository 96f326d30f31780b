"""Generator invariants — pandas level (fast, no Spark) and Spark level."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.recipedb import vocab as V
from repro.recipedb.generator import (
    MIN_RECIPES,
    _scaled_n,
    _tempered_weights,
    cuisine_pdf,
    recipes_pdf,
)
from repro.recipedb.vocab import PROFILES, REGIONS, item_type

ALL_REGIONS = pytest.mark.parametrize("region", REGIONS)


@pytest.fixture(scope="module")
def small_pdf():
    return recipes_pdf(scale=0.02, seed=7)


# ---------------------------------------------------------------------------
# determinism / shape
# ---------------------------------------------------------------------------
def test_deterministic_same_seed():
    a = cuisine_pdf("Korean", scale=0.3, seed=3)
    b = cuisine_pdf("Korean", scale=0.3, seed=3)
    assert a["items"].map(tuple).tolist() == b["items"].map(tuple).tolist()


def test_different_seed_differs():
    a = cuisine_pdf("Korean", scale=0.3, seed=3)
    b = cuisine_pdf("Korean", scale=0.3, seed=4)
    assert a["items"].map(tuple).tolist() != b["items"].map(tuple).tolist()


def _fingerprint(pdf) -> str:
    """First 16 hex digits of sha256 over the frame's rows in frame order,
    one tab-separated line per recipe with ``|``-joined item lists."""
    h = hashlib.sha256()
    for row in pdf.itertuples(index=False):
        lists = (row.ingredients, row.processes, row.utensils, row.items)
        cells = [row.region, str(row.recipe_id), *("|".join(x) for x in lists)]
        h.update(("\t".join(cells) + "\n").encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "scale, seed, expected",
    [
        (0.05, 0, "f1b5b8a9b6e478b6"),
        (0.05, 5, "ce6fd6a9e8292f2b"),
        (1.0, 0, "d9caf311680e593e"),
    ],
)
def test_dataset_fingerprint_pinned(scale, seed, expected):
    """The dataset is pinned cell for cell: row order, ids, typed columns and
    items (a dropout recipe that kept a utensil item changes the hash)."""
    assert _fingerprint(recipes_pdf(scale=scale, seed=seed)) == expected


def test_scaled_n_floor():
    prof = PROFILES["Central American"]  # 460 recipes at scale 1.0
    assert _scaled_n(prof, 0.01) == MIN_RECIPES
    assert _scaled_n(prof, 1.0) == 460


@ALL_REGIONS
def test_region_recipe_counts_at_full_scale(region):
    prof = PROFILES[region]
    assert _scaled_n(prof, 1.0) == V.PAPER_TABLE1[region][0]


def test_all_regions_present(small_pdf):
    assert sorted(small_pdf["region"].unique()) == sorted(REGIONS)


def test_recipe_ids_unique(small_pdf):
    assert small_pdf["recipe_id"].is_unique


# ---------------------------------------------------------------------------
# per-recipe structure
# ---------------------------------------------------------------------------
def test_items_is_union_of_typed_columns(small_pdf):
    for _, row in small_pdf.sample(200, random_state=0).iterrows():
        assert sorted(row["ingredients"] + row["processes"] + row["utensils"]) == list(
            row["items"]
        )


def test_items_sorted_unique(small_pdf):
    for items in small_pdf["items"].head(500):
        assert list(items) == sorted(set(items))


def test_typed_columns_typed_correctly(small_pdf):
    for _, row in small_pdf.sample(100, random_state=1).iterrows():
        assert all(item_type(i) == "ingredient" for i in row["ingredients"])
        assert all(item_type(i) == "process" for i in row["processes"])
        assert all(item_type(i) == "utensil" for i in row["utensils"])


def test_utensil_dropout_fraction():
    pdf = cuisine_pdf("Italian", scale=0.3, seed=0)
    frac = (pdf["utensils"].map(len) == 0).mean()
    assert frac == pytest.approx(V.UTENSIL_DROPOUT, abs=0.03)


def test_dropout_recipes_have_no_utensils(small_pdf):
    for _, row in small_pdf.iterrows():
        if len(row["utensils"]) == 0:
            assert not any(item_type(i) == "utensil" for i in row["items"])


def test_average_lengths_near_targets():
    pdf = recipes_pdf(scale=0.05, seed=0)
    avg_ing = pdf["ingredients"].map(len).mean()
    avg_proc = pdf["processes"].map(len).mean()
    avg_ut = pdf["utensils"].map(len).mean()
    # Targets: ~10 / ~12 / ~3 with utensils diluted by the 12.4% dropout.
    assert 7 <= avg_ing <= 14
    assert 8 <= avg_proc <= 16
    assert 1.5 <= avg_ut <= 4.5


# ---------------------------------------------------------------------------
# statistical calibration (per-cuisine, uses larger n for tighter bounds)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "region",
    ["Australian", "Japanese", "Greek", "Indian Subcontinent", "Korean", "US"],
)
def test_named_pattern_support_near_target(region):
    prof = PROFILES[region]
    pdf = cuisine_pdf(region, scale=1.0, seed=0)
    sets = [set(t) for t in pdf["items"]]
    n = len(sets)
    for (items, paper_support) in prof.paper_patterns:
        measured = sum(1 for s in sets if set(items) <= s) / n
        assert measured == pytest.approx(paper_support + 0.016, abs=0.035), (
            f"{region} {items}: measured {measured:.3f} vs paper {paper_support}"
        )


def test_tail_items_never_frequent():
    """No tail item's marginal may approach the 0.2 mining threshold."""
    pdf = cuisine_pdf("Italian", scale=0.3, seed=0)
    n = len(pdf)
    prof = PROFILES["Italian"]
    fixed = prof.fixed_items
    from collections import Counter

    c: Counter[str] = Counter()
    for t in pdf["items"]:
        c.update(i for i in t if i not in fixed)
    top = c.most_common(5)
    assert all(cnt / n < 0.18 for _, cnt in top), top


def test_tempered_weights_cap():
    w = _tempered_weights(300, lam=9.0, cap_marginal=0.12)
    assert w.sum() == pytest.approx(1.0)
    assert (w * 9.0).max() <= 0.12 + 1e-6


def test_tempered_weights_no_draws():
    w = _tempered_weights(10, lam=0.0)
    assert w.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Spark-side
# ---------------------------------------------------------------------------
def test_spark_roundtrip_matches_pandas(spark, recipes_small, recipes_small_pdf):
    assert recipes_small.count() == len(recipes_small_pdf)
    assert recipes_small.columns == [
        "region",
        "recipe_id",
        "ingredients",
        "processes",
        "utensils",
        "items",
    ]
