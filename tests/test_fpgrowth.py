"""FP-Growth reference implementation: hand cases, brute force, properties."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.apriori import apriori
from repro.mining.fpgrowth import bruteforce, fpgrowth, min_count

# Classic textbook example (Han et al. 2000, Table 1).
HAN = [
    ["f", "a", "c", "d", "g", "i", "m", "p"],
    ["a", "b", "c", "f", "l", "m", "o"],
    ["b", "f", "h", "j", "o"],
    ["b", "c", "k", "s", "p"],
    ["a", "f", "c", "e", "l", "p", "m", "n"],
]


def test_han_example_frequent_singletons():
    res = fpgrowth(HAN, 3 / 5)
    singles = {next(iter(k)): v for k, v in res.items() if len(k) == 1}
    assert singles == {"f": 4, "c": 4, "a": 3, "b": 3, "m": 3, "p": 3}


def test_han_example_full_result_vs_bruteforce():
    assert fpgrowth(HAN, 3 / 5) == bruteforce(HAN, 3 / 5)


def test_simple_pair():
    tx = [["a", "b"], ["a", "b"], ["a"], ["b"], ["a", "b", "c"]]
    res = fpgrowth(tx, 0.6)
    assert res[frozenset(["a"])] == 4
    assert res[frozenset(["b"])] == 4
    assert res[frozenset(["a", "b"])] == 3
    assert frozenset(["c"]) not in res


def test_empty_transactions():
    assert fpgrowth([], 0.5) == {}


def test_transactions_with_empty_sets():
    assert fpgrowth([[], [], ["a"]], 0.5) == {}
    assert fpgrowth([["a"], ["a"], []], 0.5) == {frozenset(["a"]): 2}


def test_min_support_one_requires_every_transaction():
    tx = [["a", "b"], ["a", "b"], ["a"]]
    res = fpgrowth(tx, 1.0)
    assert res == {frozenset(["a"]): 3}


def test_single_transaction_all_subsets():
    res = fpgrowth([["x", "y", "z"]], 0.5)
    assert len(res) == 7  # every non-empty subset occurs once
    assert all(v == 1 for v in res.values())


def test_duplicate_items_within_transaction_collapse():
    res = fpgrowth([["a", "a", "b"], ["a", "b", "b"]], 0.9)
    assert res[frozenset(["a", "b"])] == 2


def test_boundary_support_inclusive():
    # 2/4 = 0.5 exactly: MLlib counts freq/n >= minSupport, so included.
    tx = [["a"], ["a"], ["b"], ["b"]]
    res = fpgrowth(tx, 0.5)
    assert res == {frozenset(["a"]): 2, frozenset(["b"]): 2}


@pytest.mark.parametrize(
    "n, min_support, expected",
    [(10, 0.2, 2), (7, 0.2, 2), (10, 1e-9, 1)],
)
def test_support_threshold_count(n, min_support, expected):
    assert min_count(n, min_support) == expected


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
    assert fpgrowth(tx, 0.2) == bruteforce(tx, 0.2) == apriori(tx, 0.2) == expected


def test_long_single_path_shortcut():
    # A chain dataset exercises the single-path combination shortcut.
    tx = [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]
    res = fpgrowth(tx, 0.5)
    assert res == bruteforce(tx, 0.5)
    assert res[frozenset(["a", "b"])] == 3
    assert res[frozenset(["a", "b", "c"])] == 2


@pytest.mark.parametrize("min_support", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_fixed_random_sets_vs_bruteforce(min_support):
    import random

    rnd = random.Random(min_support)
    items = list("abcdefgh")
    tx = [
        rnd.sample(items, rnd.randint(1, 6)) for _ in range(40)
    ]
    assert fpgrowth(tx, min_support) == bruteforce(tx, min_support)


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
    assert fpgrowth(tx, min_support) == bruteforce(tx, min_support)


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
    res = fpgrowth(tx, 0.3)
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
    res = fpgrowth(tx, 0.25)
    sets = [frozenset(t) for t in tx]
    for itemset, count in res.items():
        assert count == sum(1 for s in sets if itemset <= s)
