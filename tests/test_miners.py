"""The exact-miner contract: FP-Growth (the reference), the bitmap Eclat
(the grouped engine) and Apriori (T6's candidate-generation baseline)
return the same itemsets with the same counts. Hand cases, brute force,
properties, real cuisines and a pinned fingerprint; every case runs for
each miner in ``MINERS``, so a failure names its miner."""
from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.apriori import apriori
from repro.mining.eclat import eclat
from repro.mining.fpgrowth import bruteforce, fpgrowth, min_count
from repro.mining.patterns import canon_pattern
from repro.recipedb.generator import cuisine_pdf, recipes_pdf
from tests.conftest import TEST_SCALE, TEST_SEED

# Classic textbook example (Han et al. 2000, Table 1).
HAN = [
    ["f", "a", "c", "d", "g", "i", "m", "p"],
    ["a", "b", "c", "f", "l", "m", "o"],
    ["b", "f", "h", "j", "o"],
    ["b", "c", "k", "s", "p"],
    ["a", "f", "c", "e", "l", "p", "m", "n"],
]

MINERS = [fpgrowth, eclat, apriori]


def _name(miner) -> str:
    return miner.__name__


each_miner = pytest.mark.parametrize("miner", MINERS, ids=_name)


def _counts(**by_pattern: int) -> dict[frozenset[str], int]:
    """``_counts(ab=3)`` is ``{frozenset("ab"): 3}``: one letter per item."""
    return {frozenset(p): c for p, c in by_pattern.items()}


@each_miner
def test_han_example_frequent_singletons(miner):
    res = miner(HAN, 3 / 5)
    singles = {next(iter(k)): v for k, v in res.items() if len(k) == 1}
    assert singles == {"f": 4, "c": 4, "a": 3, "b": 3, "m": 3, "p": 3}


@each_miner
def test_han_example_full_result_vs_bruteforce(miner):
    assert miner(HAN, 3 / 5) == bruteforce(HAN, 3 / 5)


@each_miner
@pytest.mark.parametrize(
    "tx, expected",
    [
        # {c} occurs once, under the min count of 3.
        ([["a", "b"], ["a", "b"], ["a"], ["b"], ["a", "b", "c"]], _counts(a=4, b=4, ab=3)),
        (
            [["a", "b", "c"]] * 3 + [["a", "b"], ["c"]],
            _counts(a=4, b=4, c=4, ab=4, ac=3, bc=3, abc=3),
        ),
    ],
    ids=["pair", "triangle"],
)
def test_hand_counts(miner, tx, expected):
    assert miner(tx, 0.6) == expected


@each_miner
def test_empty_transactions(miner):
    assert miner([], 0.5) == {}


@each_miner
@pytest.mark.parametrize(
    "tx, expected",
    [
        ([[], [], ["a"]], {}),
        ([["a"], ["b"], ["c"], ["d"]], {}),
        ([["a"], ["a"], []], _counts(a=2)),
    ],
    ids=["empty-sets", "no-frequent-item", "one-frequent-item"],
)
def test_sparse_transactions(miner, tx, expected):
    assert miner(tx, 0.5) == expected


@each_miner
def test_min_support_one_requires_every_transaction(miner):
    tx = [["a", "b"], ["a", "b"], ["a"]]
    assert miner(tx, 1.0) == {frozenset(["a"]): 3}


@each_miner
@pytest.mark.parametrize(
    "tx, min_support", [([["x", "y", "z"]], 0.5), ([list("abcde")] * 5, 1.0)],
    ids=["single", "deep"],
)
def test_identical_transactions_give_every_subset(miner, tx, min_support):
    """n copies of one transaction of k items: all 2^k - 1 non-empty
    subsets are frequent, each with count n."""
    items = tx[0]
    expected = {
        frozenset(c): len(tx)
        for r in range(1, len(items) + 1)
        for c in itertools.combinations(items, r)
    }
    assert len(expected) == 2 ** len(items) - 1
    assert miner(tx, min_support) == expected


@each_miner
def test_duplicate_items_within_transaction_collapse(miner):
    tx = [["a", "a", "b"], ["a", "b", "b"]]
    assert miner(tx, 0.9) == _counts(a=2, b=2, ab=2)


@each_miner
def test_boundary_support_inclusive(miner):
    # 2/4 = 0.5 exactly: MLlib counts freq/n >= minSupport, so included.
    assert miner([["a"], ["a"], ["b"], ["b"]], 0.5) == _counts(a=2, b=2)


@pytest.mark.parametrize(
    "n, min_support, expected",
    [(10, 0.2, 2), (7, 0.2, 2), (10, 1e-9, 1)],
)
def test_support_threshold_count(n, min_support, expected):
    assert min_count(n, min_support) == expected


@pytest.mark.parametrize("min_support", [0, -0.1, 1.5, float("nan")])
@pytest.mark.parametrize("miner", [*MINERS, bruteforce], ids=_name)
def test_min_support_outside_unit_interval_rejected(miner, min_support):
    """0 would mine the whole subset lattice and 1.5 nothing; both are
    refused, on empty input too."""
    for tx in ([["a", "b"]] * 3, []):
        with pytest.raises(ValueError, match=r"min_support must be in \(0, 1\]"):
            miner(tx, min_support)


@pytest.mark.parametrize("miner", [*MINERS, bruteforce], ids=_name)
def test_miners_agree_at_exact_boundary(miner):
    # 10 transactions at 0.2: min count is exactly 2, so the pair {a, b}
    # (count 2) is frequent and {c} (count 1) is not.
    tx = [["a", "b"], ["a", "b", "c"]] + [["a"], ["b"], ["d"]] * 2 + [["e"]] * 2
    assert miner(tx, 0.2) == _counts(a=4, b=4, ab=2, d=2, e=2)


@each_miner
def test_chain_dataset(miner):
    # Nested transactions build a single-chain FP-tree, which is mined by
    # the same recursion as any other tree.
    tx = [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]
    chain = [list("abcdefghijkl"[:k]) for k in range(1, 13)]
    res = miner(tx, 0.5)
    assert res == bruteforce(tx, 0.5)
    assert res[frozenset(["a", "b"])] == 3
    assert res[frozenset(["a", "b", "c"])] == 2
    assert miner(chain, 0.25) == bruteforce(chain, 0.25)


@each_miner
@pytest.mark.parametrize("min_support", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_fixed_random_sets_vs_bruteforce(miner, min_support):
    rnd = random.Random(min_support)
    items = list("abcdefgh")
    tx = [rnd.sample(items, rnd.randint(1, 6)) for _ in range(40)]
    assert miner(tx, min_support) == bruteforce(tx, min_support)


def test_eclat_rejects_null_item():
    """A null item would be factorized to code -1 and counted as the
    previous transaction's last item; it is refused by name instead."""
    tx = [["a", "b"], ["a", None], [None, "c"], ["c"]]
    with pytest.raises(ValueError, match=r"transaction 1 holds a null item None"):
        eclat(tx, 0.5)


@each_miner
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=5),
        min_size=0,
        max_size=25,
    ),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_property_matches_bruteforce(miner, tx, min_support):
    assert miner(tx, min_support) == bruteforce(tx, min_support)


@each_miner
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=20,
    )
)
def test_property_downward_closure(miner, tx):
    """Every subset of a frequent itemset is frequent with >= its count."""
    res = miner(tx, 0.3)
    for itemset, count in res.items():
        for item in itemset:
            sub = itemset - {item}
            if sub:
                assert res[sub] >= count


def _containment_counts(tx, mined) -> dict[frozenset[str], int]:
    """Each mined itemset's count by direct containment in ``tx``."""
    sets = [frozenset(t) for t in tx]
    return {itemset: sum(itemset <= s for s in sets) for itemset in mined}


@each_miner
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=20,
    )
)
def test_property_counts_are_exact(miner, tx):
    mined = miner(tx, 0.25)
    assert mined == _containment_counts(tx, mined)


@each_miner
@pytest.mark.parametrize(
    "region, min_support", [("Greek", 0.25), ("US", 0.35)], ids=["Greek-0.25", "US-0.35"]
)
def test_real_cuisine_counts(miner, region, min_support):
    """On a test-scale cuisine, every miner returns FP-Growth's itemsets,
    and every count equals direct containment in the recipes."""
    tx = cuisine_pdf(region, scale=TEST_SCALE, seed=TEST_SEED)["items"].to_pylist()
    mined = miner(tx, min_support)
    assert mined  # an empty result would make the checks below vacuous
    assert mined == fpgrowth(tx, min_support)
    assert mined == _containment_counts(tx, mined)


@pytest.fixture(scope="module")
def fingerprint_inputs():
    test_pdf = recipes_pdf(scale=TEST_SCALE, seed=TEST_SEED).to_pandas()
    inputs = [(test_pdf, s) for s in (0.15, 0.2, 0.25)]
    inputs.append((cuisine_pdf("Northern Africa", scale=1.0).to_pandas(), 0.05))
    return inputs


@each_miner
def test_mined_fingerprint_pinned(miner, fingerprint_inputs):
    """The mined sets are pinned: sorted (region, pattern, freq) rows of the
    test dataset at supports 0.15, 0.2 and 0.25, and of Northern Africa's
    deep lattice (scale 1.0, support 0.05, ~7.1k patterns); sha256, first
    16 hex digits."""
    h = hashlib.sha256()
    for pdf, min_support in fingerprint_inputs:
        rows = sorted(
            (region, canon_pattern(itemset), freq)
            for region, group in pdf.groupby("region")
            for itemset, freq in miner(list(group["items"]), min_support).items()
        )
        h.update(repr((min_support, rows)).encode())
    assert h.hexdigest()[:16] == "6036b65f1f412111"
