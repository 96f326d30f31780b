"""Cuisine-profile calibration invariants (no Spark needed)."""
from __future__ import annotations

import itertools

import pytest

from repro.recipedb import vocab as V
from repro.recipedb.vocab import (
    GLOBAL_FILLER_PREFIX,
    MIN_SUPPORT,
    PAPER_TABLE1,
    PROFILES,
    REGIONS,
    Event,
    event_pattern_count,
    item_type,
    plan_blocks,
)

ALL_REGIONS = pytest.mark.parametrize("region", REGIONS)


def test_26_regions():
    assert len(REGIONS) == 26
    assert len(PROFILES) == 26


def test_total_recipes_near_paper():
    # Table I's per-region counts don't sum exactly to the paper's quoted
    # 118,071 (the paper's own numbers are slightly inconsistent); we keep
    # Table I's counts verbatim.
    assert abs(V.N_RECIPES_TOTAL - 118_071) < 500


@ALL_REGIONS
def test_profile_matches_paper_rows(region):
    prof = PROFILES[region]
    n_rec, pats, n_pat = PAPER_TABLE1[region]
    assert prof.n_recipes == n_rec
    assert prof.paper_n_patterns == n_pat
    assert len(prof.events) == len(pats)


@ALL_REGIONS
def test_expected_pattern_count_equals_paper(region):
    """The closed-form count E + sum(2^b - 1) + #fillers must equal the
    paper's published pattern count exactly — this is the calibration."""
    prof = PROFILES[region]
    assert prof.expected_n_patterns == prof.paper_n_patterns


@ALL_REGIONS
def test_event_probs_cover_paper_support(region):
    """Generation probability = paper support + noise margin, in (s, s+0.03]."""
    prof = PROFILES[region]
    for ev, (items, support) in zip(prof.events, prof.paper_patterns):
        assert tuple(ev.items) == tuple(items)
        assert support < ev.prob <= support + 0.03


@ALL_REGIONS
def test_cross_layer_products_stay_under_threshold(region):
    """No pair of *independently* fired layers may co-occur at >= ~0.2,
    otherwise accidental frequent pairs would break the count calibration.
    (Items within one event are correlated by design and excluded.)"""
    prof = PROFILES[region]
    _, marginals = event_pattern_count(prof.events)
    groups: list[float] = list(marginals.values())
    indep = [b.prob for b in prof.blocks] + [p for _, p in prof.fillers]
    # filler/block vs filler/block:
    for a, b in itertools.combinations(indep, 2):
        assert a * b < 0.19
    # filler/block vs any event-item marginal:
    for a in indep:
        for m in groups:
            assert a * m < 0.19


@ALL_REGIONS
def test_layers_are_disjoint(region):
    prof = PROFILES[region]
    event_items = [i for e in prof.events for i in e.items]
    block_items = [i for b in prof.blocks for i in b.items]
    filler_items = [i for i, _ in prof.fillers]
    assert len(block_items) == len(set(block_items)), "blocks overlap"
    assert len(filler_items) == len(set(filler_items)), "fillers duplicated"
    assert not set(event_items) & set(block_items)
    assert not set(event_items) & set(filler_items)
    assert not set(block_items) & set(filler_items)


@ALL_REGIONS
def test_filler_probs_within_ladder(region):
    for _, p in PROFILES[region].fillers:
        assert 0.2 < p <= 0.32


@ALL_REGIONS
def test_tail_pools_exclude_fixed_items(region):
    prof = PROFILES[region]
    fixed = prof.fixed_items
    assert not fixed & set(V.tail_ingredient_pool(region))
    assert not fixed & set(V.tail_process_pool(region))
    assert not fixed & set(V.tail_utensil_pool(region))


@ALL_REGIONS
def test_tail_pools_typed_by_construction(region):
    """The generator types tail items by their pool, not per item."""
    assert {item_type(i) for i in V.tail_ingredient_pool(region)} == {"ingredient"}
    assert {item_type(i) for i in V.tail_process_pool(region)} == {"process"}
    assert {item_type(i) for i in V.tail_utensil_pool(region)} == {"utensil"}


def test_universe_sizes_match_paper():
    assert len(V.ingredient_universe()) == V.N_UNIQUE_INGREDIENTS == 20_280
    assert len(V.process_universe()) == V.N_UNIQUE_PROCESSES == 268
    assert len(V.utensil_universe()) == V.N_UNIQUE_UTENSILS == 69


def test_universes_are_disjoint():
    ing, proc, ut = (
        V.ingredient_universe(),
        V.process_universe(),
        V.utensil_universe(),
    )
    assert not ing & proc
    assert not ing & ut
    assert not proc & ut


def test_india_nafrica_share_block_prefix():
    """The engineered India–N.Africa closeness: identical spice blocks."""
    bi = [b.items for b in PROFILES["Indian Subcontinent"].blocks]
    bn = [b.items for b in PROFILES["Northern Africa"].blocks]
    assert bi == bn


def test_canada_france_share_franco_blocks():
    bc = PROFILES["Canadian"].blocks[0].items
    bf = PROFILES["French"].blocks[0].items
    assert set(bc) <= set(bf)
    bus = {i for b in PROFILES["US"].blocks for i in b.items}
    assert not set(bc) & bus, "Canadian blocks must not overlap US blocks"


def test_plan_blocks_identity():
    for r in range(0, 150):
        sizes, f = plan_blocks(r)
        assert sum((1 << b) - 1 for b in sizes) + f == max(r, 0)
        assert f >= 0


def test_plan_blocks_small_remainder_has_no_blocks():
    for r in range(0, 21):
        sizes, f = plan_blocks(r)
        assert sizes == []
        assert f == r


def test_event_pattern_count_single_event():
    # One event of k items with prob >= sigma -> all 2^k - 1 subsets count.
    ev = (Event(items=("a", "b", "c"), prob=0.3),)
    count, marg = event_pattern_count(ev, sigma=0.2)
    assert count == 7
    assert marg == {"a": pytest.approx(0.3), "b": pytest.approx(0.3), "c": pytest.approx(0.3)}


def test_event_pattern_count_below_threshold():
    ev = (Event(items=("a", "b"), prob=0.1),)
    count, _ = event_pattern_count(ev, sigma=0.2)
    assert count == 0


def test_event_pattern_count_overlapping_events():
    # Korean shape: two events sharing one item; the shared item's marginal
    # is the union probability; cross-event pairs stay infrequent.
    ev = (
        Event(items=("soy", "sesame"), prob=0.36),
        Event(items=("go", "sesame"), prob=0.26),
    )
    count, marg = event_pattern_count(ev, sigma=0.2)
    assert marg["sesame"] == pytest.approx(1 - (1 - 0.36) * (1 - 0.26))
    # {soy},{go},{sesame},{soy,sesame},{go,sesame} frequent; {soy,go} and
    # {soy,go,sesame} occur only when both events fire (0.0936) -> not.
    assert count == 5


def test_item_type_classification():
    assert item_type("butter") == "ingredient"
    assert item_type("skillet") == "utensil"
    assert item_type("bake") == "process"
    assert item_type("proc-042") == "process"
    assert item_type("ut-03") == "utensil"
    assert item_type("glob-ing-00001") == "ingredient"
    assert item_type("spice-ing-000") == "ingredient"


def test_global_filler_prefix_cap():
    """Only the first GLOBAL_FILLER_PREFIX fillers may come from the global
    generics *as such*; any later global-named filler must be justified by a
    family/continent pool of that cuisine (e.g. 'garlic' in east_asia)."""
    for region in REGIONS:
        prof = PROFILES[region]
        fam_items = {
            i for f, _ in prof.families for i in V.FILLER_POOLS[f]
        } | set(V.CONTINENT_FILLERS[V.CONTINENTS[region]])
        for pos, (item, _p) in enumerate(prof.fillers):
            if item in V.GLOBAL_FILLERS and pos >= GLOBAL_FILLER_PREFIX:
                assert item in fam_items, (region, pos, item)


@ALL_REGIONS
def test_fillers_count_matches_plan(region):
    prof = PROFILES[region]
    e_count, _ = event_pattern_count(prof.events)
    sizes, f = plan_blocks(prof.paper_n_patterns - e_count)
    assert [len(b.items) for b in prof.blocks] == sizes
    assert len(prof.fillers) == f


def test_min_support_is_paper_threshold():
    assert MIN_SUPPORT == 0.2


def test_utensil_dropout_fraction():
    assert V.UTENSIL_DROPOUT == pytest.approx(14_601 / 118_071)


@ALL_REGIONS
def test_families_well_formed(region):
    fams = V.FAMILIES[region]
    assert fams, "every cuisine needs at least one family"
    for f, w in fams:
        assert f in V.BLOCK_POOLS
        assert f in V.FILLER_POOLS
        assert 0 < w <= 1.0
    assert region in V.CONTINENTS
