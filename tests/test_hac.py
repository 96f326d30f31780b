"""HAC substrate: hand-computed linkages, a UPGMA definition oracle,
scipy-convention compliance, cophenetic / newick / ascii rendering."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cluster.distance import pdist, squareform
from repro.cluster.hac import (
    ascii_dendrogram,
    cophenetic,
    linkage,
    to_newick,
)

# Four collinear points at 0, 1, 3, 7 -> unambiguous merge order.
LINE = np.array([[0.0], [1.0], [3.0], [7.0]])


def _cond(X):
    return pdist(X, "euclidean")


def test_average_linkage_line():
    Z = linkage(_cond(LINE))
    assert Z[0].tolist() == [0.0, 1.0, 1.0, 2.0]
    assert Z[1][2] == pytest.approx(2.5)  # mean(3, 2)
    assert Z[2][2] == pytest.approx((7 + 6 + 4) / 3)


def test_scipy_conventions():
    rng = np.random.default_rng(0)
    X = rng.random((9, 4))
    Z = linkage(_cond(X))
    n = 9
    assert Z.shape == (n - 1, 4)
    seen = set()
    for t in range(n - 1):
        a, b, h, size = Z[t]
        assert a < b
        assert a not in seen and b not in seen  # each cluster merged once
        seen.update([a, b])
        assert int(a) < n + t and int(b) < n + t
        assert h >= 0
    assert Z[-1, 3] == n  # final cluster holds everything


def test_monotone_heights():
    """Average linkage on a metric is monotone (no inversions)."""
    rng = np.random.default_rng(1)
    X = rng.random((12, 3))
    Z = linkage(_cond(X))
    assert (np.diff(Z[:, 2]) >= -1e-12).all()


def test_linkage_rejects_bad_length():
    with pytest.raises(ValueError):
        linkage(np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linkage_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        linkage([bad, 1.0, 2.0])


def _binary_jaccard(seed):
    X = (np.random.default_rng(seed).random((14, 20)) < 0.3).astype(float)
    return pdist(X, "jaccard")


@pytest.mark.parametrize(
    "cond",
    [_cond(np.random.default_rng(s).random((12, 3))) for s in range(3)]
    + [_binary_jaccard(s) for s in range(3)],
)
def test_upgma_definition_oracle(cond):
    """Every merge height is the mean original distance between the two
    merged leaf sets, and the smallest such mean over the active clusters."""
    Z = linkage(cond)
    n = len(Z) + 1
    D = squareform(cond, n)
    members = {i: [i] for i in range(n)}

    def mean(a, b):
        return D[np.ix_(members[a], members[b])].mean()

    for t, (a, b, h, size) in enumerate(Z):
        a, b = int(a), int(b)
        assert h == pytest.approx(mean(a, b), abs=1e-12)
        lowest = min(mean(x, y) for x, y in itertools.combinations(members, 2))
        assert h <= lowest + 1e-12
        members[n + t] = members.pop(a) + members.pop(b)
        assert size == len(members[n + t])


def test_cophenetic_line_single():
    Z = linkage(_cond(LINE))
    c = cophenetic(Z)
    # merges: (0,1)@1, (01,2)@2.5, (012,3)@17/3
    assert c.tolist() == pytest.approx([1.0, 2.5, 17 / 3, 2.5, 17 / 3, 17 / 3])


def test_cophenetic_is_ultrametric():
    rng = np.random.default_rng(2)
    X = rng.random((10, 3))
    Z = linkage(_cond(X))
    C = squareform(cophenetic(Z), 10)
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert C[i, j] <= max(C[i, k], C[k, j]) + 1e-9


def test_newick_wellformed():
    Z = linkage(_cond(LINE))
    nk = to_newick(Z, ["a", "b", "c", "d"])
    assert nk.endswith(";")
    assert nk.count("(") == nk.count(")") == 3
    for leaf in "abcd":
        assert leaf in nk


def test_newick_spaces_replaced():
    Z = linkage(_cond(LINE))
    nk = to_newick(Z, ["a a", "b b", "c c", "d d"])
    assert "a_a" in nk and " " not in nk.replace("; ", ";")


def test_ascii_dendrogram_contains_all_labels():
    rng = np.random.default_rng(3)
    X = rng.random((8, 2))
    Z = linkage(_cond(X))
    labels = [f"leaf{i}" for i in range(8)]
    art = ascii_dendrogram(Z, labels)
    for lab in labels:
        assert lab in art
    assert len(art.splitlines()) == 8


def test_ascii_dendrogram_zero_heights():
    art = ascii_dendrogram(linkage(np.zeros(3)), ["a", "b", "c"])
    assert len(art.splitlines()) == 3


def test_deterministic_tie_break():
    # Equilateral configuration: all pairwise distances equal.
    cond = np.array([1.0, 1.0, 1.0])
    Z1 = linkage(cond)
    Z2 = linkage(cond)
    assert np.array_equal(Z1, Z2)
    assert Z1[0, 0] == 0 and Z1[0, 1] == 1  # smallest pair first
