"""The exact miners — FP-Growth (the reference) and the bitmap Eclat (the
grouped engine): hand cases, brute force, properties. Each case runs every
miner in ``MINERS``."""
from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import bruteforce, fpgrowth, min_count
from repro.mining.patterns import canon_pattern
from repro.recipedb.generator import cuisine_pdf

# Classic textbook example (Han et al. 2000, Table 1).
HAN = [
    ["f", "a", "c", "d", "g", "i", "m", "p"],
    ["a", "b", "c", "f", "l", "m", "o"],
    ["b", "f", "h", "j", "o"],
    ["b", "c", "k", "s", "p"],
    ["a", "f", "c", "e", "l", "p", "m", "n"],
]

MINERS = [fpgrowth, eclat]


def test_han_example_frequent_singletons():
    for miner in MINERS:
        res = miner(HAN, 3 / 5)
        singles = {next(iter(k)): v for k, v in res.items() if len(k) == 1}
        assert singles == {"f": 4, "c": 4, "a": 3, "b": 3, "m": 3, "p": 3}


def test_han_example_full_result_vs_bruteforce():
    for miner in MINERS:
        assert miner(HAN, 3 / 5) == bruteforce(HAN, 3 / 5)


def test_simple_pair():
    tx = [["a", "b"], ["a", "b"], ["a"], ["b"], ["a", "b", "c"]]
    for miner in MINERS:
        res = miner(tx, 0.6)
        assert res[frozenset(["a"])] == 4
        assert res[frozenset(["b"])] == 4
        assert res[frozenset(["a", "b"])] == 3
        assert frozenset(["c"]) not in res


def test_empty_transactions():
    for miner in MINERS:
        assert miner([], 0.5) == {}


def test_transactions_with_empty_sets():
    for miner in MINERS:
        assert miner([[], [], ["a"]], 0.5) == {}  # no frequent item
        assert miner([["a"], ["a"], []], 0.5) == {frozenset(["a"]): 2}


def test_min_support_one_requires_every_transaction():
    tx = [["a", "b"], ["a", "b"], ["a"]]
    for miner in MINERS:
        assert miner(tx, 1.0) == {frozenset(["a"]): 3}


def test_single_transaction_all_subsets():
    for miner in MINERS:
        res = miner([["x", "y", "z"]], 0.5)
        assert len(res) == 7  # every non-empty subset occurs once
        assert all(v == 1 for v in res.values())


def test_duplicate_items_within_transaction_collapse():
    tx = [["a", "a", "b"], ["a", "b", "b"]]
    for miner in MINERS:
        assert miner(tx, 0.9) == {
            frozenset(["a"]): 2,
            frozenset(["b"]): 2,
            frozenset(["a", "b"]): 2,
        }


def test_boundary_support_inclusive():
    # 2/4 = 0.5 exactly: MLlib counts freq/n >= minSupport, so included.
    tx = [["a"], ["a"], ["b"], ["b"]]
    for miner in MINERS:
        assert miner(tx, 0.5) == {frozenset(["a"]): 2, frozenset(["b"]): 2}


@pytest.mark.parametrize(
    "n, min_support, expected",
    [(10, 0.2, 2), (7, 0.2, 2), (10, 1e-9, 1)],
)
def test_support_threshold_count(n, min_support, expected):
    assert min_count(n, min_support) == expected


@pytest.mark.parametrize("min_support", [0, -0.1, 1.5, float("nan")])
@pytest.mark.parametrize("miner", [fpgrowth, eclat, apriori, bruteforce])
def test_min_support_outside_unit_interval_rejected(miner, min_support):
    """0 would mine the whole subset lattice and 1.5 nothing; both are
    refused, on empty input too."""
    for tx in ([["a", "b"]] * 3, []):
        with pytest.raises(ValueError, match=r"min_support must be in \(0, 1\]"):
            miner(tx, min_support)


def test_miners_agree_at_exact_boundary():
    # 10 transactions at 0.2: min count is exactly 2, so the pair {a, b}
    # (count 2) is frequent and {c} (count 1) is not, for every miner.
    tx = [["a", "b"], ["a", "b", "c"]] + [["a"], ["b"], ["d"]] * 2 + [["e"]] * 2
    expected = {
        frozenset(["a"]): 4,
        frozenset(["b"]): 4,
        frozenset(["a", "b"]): 2,
        frozenset(["d"]): 2,
        frozenset(["e"]): 2,
    }
    for miner in (fpgrowth, eclat, bruteforce, apriori):
        assert miner(tx, 0.2) == expected


def test_chain_dataset():
    # Nested transactions build a single-chain FP-tree, which is mined by
    # the same recursion as any other tree.
    tx = [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]
    chain = [list("abcdefghijkl"[:k]) for k in range(1, 13)]
    for miner in MINERS:
        res = miner(tx, 0.5)
        assert res == bruteforce(tx, 0.5)
        assert res[frozenset(["a", "b"])] == 3
        assert res[frozenset(["a", "b", "c"])] == 2
        assert miner(chain, 0.25) == bruteforce(chain, 0.25)


@pytest.mark.parametrize("min_support", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_fixed_random_sets_vs_bruteforce(min_support):
    import random

    rnd = random.Random(min_support)
    items = list("abcdefgh")
    tx = [
        rnd.sample(items, rnd.randint(1, 6)) for _ in range(40)
    ]
    expected = bruteforce(tx, min_support)
    for miner in MINERS:
        assert miner(tx, min_support) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5),
        min_size=0,
        max_size=25,
    ),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_property_matches_bruteforce(tx, min_support):
    expected = bruteforce(tx, min_support)
    for miner in MINERS:
        assert miner(tx, min_support) == expected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=20,
    )
)
def test_property_downward_closure(tx):
    """Every subset of a frequent itemset is frequent with >= its count."""
    for miner in MINERS:
        res = miner(tx, 0.3)
        for itemset, count in res.items():
            for item in itemset:
                sub = itemset - {item}
                if sub:
                    assert res[sub] >= count


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=20,
    )
)
def test_property_counts_are_exact(tx):
    sets = [frozenset(t) for t in tx]
    for miner in MINERS:
        for itemset, count in miner(tx, 0.25).items():
            assert count == sum(1 for s in sets if itemset <= s)


def test_mined_fingerprint_pinned(recipes_small_pdf):
    """The mined sets are pinned, for every miner: sorted (region, pattern,
    freq) rows of the test dataset at supports 0.15, 0.2 and 0.25, and of
    Northern Africa's deep lattice (scale 1.0, support 0.05, ~7.1k
    patterns); sha256, first 16 hex digits."""
    inputs = [(recipes_small_pdf, s) for s in (0.15, 0.2, 0.25)]
    inputs.append((cuisine_pdf("Northern Africa", scale=1.0).to_pandas(), 0.05))
    for miner in MINERS:
        h = hashlib.sha256()
        for pdf, min_support in inputs:
            rows = sorted(
                (region, canon_pattern(itemset), freq)
                for region, group in pdf.groupby("region")
                for itemset, freq in miner(list(group["items"]), min_support).items()
            )
            h.update(repr((min_support, rows)).encode())
        assert h.hexdigest()[:16] == "6036b65f1f412111", miner.__name__
