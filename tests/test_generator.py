"""Generator invariants — Arrow level (fast, no Spark) and Spark level."""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.recipedb import vocab as V
from repro.recipedb.generator import (
    ITEM_COLUMNS,
    MIN_RECIPES,
    _scaled_n,
    _tempered_weights,
    cuisine_pdf,
    recipes_pdf,
)
from repro.recipedb.vocab import PROFILES, REGIONS, item_type
from tests.conftest import TEST_SCALE, TEST_SEED

ALL_REGIONS = pytest.mark.parametrize("region", REGIONS)


@pytest.fixture(scope="module")
def small_rows():
    return recipes_pdf(scale=0.02, seed=7).to_pylist()


# ---------------------------------------------------------------------------
# determinism / shape
# ---------------------------------------------------------------------------
def test_deterministic_same_seed():
    a = cuisine_pdf("Korean", scale=0.3, seed=3)
    b = cuisine_pdf("Korean", scale=0.3, seed=3)
    assert a.equals(b)


def test_different_seed_differs():
    a = cuisine_pdf("Korean", scale=0.3, seed=3)
    b = cuisine_pdf("Korean", scale=0.3, seed=4)
    assert not a.equals(b)


def _fingerprint(table) -> str:
    """First 16 hex digits of sha256 over the table's rows in table order,
    one tab-separated line per recipe with ``|``-joined item lists."""
    h = hashlib.sha256()
    for row in table.to_pylist():
        lists = (row["ingredients"], row["processes"], row["utensils"], row["items"])
        cells = [row["region"], str(row["recipe_id"]), *("|".join(x) for x in lists)]
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
    # Central American has 460 recipes at scale 1.0.
    assert _scaled_n("Central American", 0.01) == MIN_RECIPES
    assert _scaled_n("Central American", 1.0) == 460


@pytest.mark.parametrize("scale", [0, -3, float("nan"), float("inf")])
def test_scale_must_be_finite_positive(scale):
    with pytest.raises(ValueError, match="scale must be a finite number > 0"):
        cuisine_pdf("Korean", scale=scale)


@ALL_REGIONS
def test_region_recipe_counts_at_full_scale(region):
    assert _scaled_n(region, 1.0) == V.PAPER_TABLE1[region][0]


def test_all_regions_present(small_rows):
    assert {row["region"] for row in small_rows} == set(REGIONS)


def test_recipe_ids_unique(small_rows):
    ids = [row["recipe_id"] for row in small_rows]
    assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# per-recipe structure
# ---------------------------------------------------------------------------
def test_items_is_union_of_typed_columns(small_rows):
    for row in small_rows:
        assert sorted(row["ingredients"] + row["processes"] + row["utensils"]) == row["items"]


def test_items_sorted_unique(small_rows):
    for row in small_rows:
        assert row["items"] == sorted(set(row["items"]))


def test_typed_columns_typed_correctly(small_rows):
    for row in small_rows:
        assert all(item_type(i) == "ingredient" for i in row["ingredients"])
        assert all(item_type(i) == "process" for i in row["processes"])
        assert all(item_type(i) == "utensil" for i in row["utensils"])


def test_typed_columns_within_universe():
    """Every item the generator emits lies in its type's Section-III universe."""
    table = recipes_pdf(scale=0.05, seed=0)
    for kind, col in zip(V.KINDS, ITEM_COLUMNS):
        emitted = {i for recipe in table[col].to_pylist() for i in recipe}
        outside = emitted - V.universe(kind)
        assert not outside, sorted(outside)[:5]


def test_utensil_dropout_fraction():
    pdf = cuisine_pdf("Italian", scale=0.3, seed=0).to_pandas()
    frac = (pdf["utensils"].map(len) == 0).mean()
    assert frac == pytest.approx(V.UTENSIL_DROPOUT, abs=0.03)


def test_dropout_recipes_have_no_utensils(small_rows):
    for row in small_rows:
        if len(row["utensils"]) == 0:
            assert not any(item_type(i) == "utensil" for i in row["items"])


def test_average_lengths_near_targets():
    pdf = recipes_pdf(scale=0.05, seed=0).to_pandas()
    avg_ing = pdf["ingredients"].map(len).mean()
    avg_proc = pdf["processes"].map(len).mean()
    avg_ut = pdf["utensils"].map(len).mean()
    # Targets: ~10 / ~12 / ~3 with utensils diluted by the 12.4% dropout.
    assert 7 <= avg_ing <= 14
    assert 8 <= avg_proc <= 16
    assert 1.5 <= avg_ut <= 4.5


def test_no_process_wide_gc_switches():
    """The pipeline never switches off, freezes or retunes the collector:
    such a switch would hold for every caller in the process."""
    switch = re.compile(r"\bgc\.(disable|freeze|set_threshold)\b|\bfrom gc import\b")
    roots = [Path(repro.__file__).parent, Path(__file__).parents[1] / "jobs"]
    hits = [
        f"{path}:{n}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if switch.search(line)
    ]
    assert hits == []


# ---------------------------------------------------------------------------
# statistical calibration (per-cuisine, uses larger n for tighter bounds)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "region",
    ["Australian", "Japanese", "Greek", "Indian Subcontinent", "Korean", "US"],
)
def test_named_pattern_support_near_target(region):
    transactions = cuisine_pdf(region, scale=1.0, seed=0)["items"].to_pylist()
    sets = [set(t) for t in transactions]
    n = len(sets)
    for (items, paper_support) in V.PAPER_TABLE1[region][1]:
        measured = sum(1 for s in sets if set(items) <= s) / n
        assert measured == pytest.approx(paper_support + 0.016, abs=0.035), (
            f"{region} {items}: measured {measured:.3f} vs paper {paper_support}"
        )


def test_tail_items_never_frequent():
    """No tail item's marginal may approach the 0.2 mining threshold."""
    transactions = cuisine_pdf("Italian", scale=0.3, seed=0)["items"].to_pylist()
    n = len(transactions)
    fixed = PROFILES["Italian"].fixed_items
    from collections import Counter

    c: Counter[str] = Counter()
    for t in transactions:
        c.update(i for i in t if i not in fixed)
    top = c.most_common(5)
    assert all(cnt / n < 0.18 for _, cnt in top), top


def test_tempered_weights_cap():
    w = _tempered_weights(300, lam=9.0)
    assert w.sum() == pytest.approx(1.0)
    assert (w * 9.0).max() <= 0.12 + 1e-6


def test_tempered_weights_no_draws():
    w = _tempered_weights(10, lam=0.0)
    assert w.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Spark-side
# ---------------------------------------------------------------------------
def test_spark_roundtrip_matches_generator(recipes_small):
    """Every cell survives the Arrow handoff: the cast to the non-null
    ``RECIPE_SCHEMA`` and the list-of-string conversion."""
    table = recipes_pdf(scale=TEST_SCALE, seed=TEST_SEED)
    assert recipes_small.columns == table.column_names
    got = [row.asDict() for row in recipes_small.orderBy("recipe_id").collect()]
    assert got == table.to_pylist()
