"""HAC substrate: hand-computed linkages, scipy-convention compliance,
cophenetic / newick / ascii rendering."""
from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.distance import pdist
from repro.cluster.hac import (
    METHODS,
    ascii_dendrogram,
    cophenetic,
    linkage,
    to_newick,
)

# Four collinear points at 0, 1, 3, 7 -> unambiguous merge order.
LINE = np.array([[0.0], [1.0], [3.0], [7.0]])


def _cond(X):
    return pdist(X, "euclidean")


def test_single_linkage_line():
    Z = linkage(_cond(LINE), "single")
    # merges: (0,1)@1, (01,2)@2, (012,3)@4
    assert Z[0].tolist() == [0.0, 1.0, 1.0, 2.0]
    assert Z[1].tolist() == [2.0, 4.0, 2.0, 3.0]
    assert Z[2].tolist() == [3.0, 5.0, 4.0, 4.0]


def test_complete_linkage_line():
    Z = linkage(_cond(LINE), "complete")
    assert Z[0].tolist() == [0.0, 1.0, 1.0, 2.0]
    assert Z[1].tolist() == [2.0, 4.0, 3.0, 3.0]
    assert Z[2].tolist() == [3.0, 5.0, 7.0, 4.0]


def test_average_linkage_line():
    Z = linkage(_cond(LINE), "average")
    assert Z[0].tolist() == [0.0, 1.0, 1.0, 2.0]
    assert Z[1][2] == pytest.approx(2.5)  # mean(3, 2)
    assert Z[2][2] == pytest.approx((7 + 6 + 4) / 3)


def test_ward_matches_twopoint_euclidean():
    X = np.array([[0.0], [2.0]])
    Z = linkage(_cond(X), "ward")
    assert Z[0][2] == pytest.approx(2.0)


def test_ward_three_points():
    # Ward distance between {0,1} (merged at 1) and {2} at coordinate 4:
    # sqrt(((1+1)*4^2 + (1+1)*3^2 - 1*1^2)/3) = sqrt(49/3)
    X = np.array([[0.0], [1.0], [4.0]])
    Z = linkage(_cond(X), "ward")
    assert Z[0][2] == pytest.approx(1.0)
    assert Z[1][2] == pytest.approx(np.sqrt(49 / 3))


@pytest.mark.parametrize("method", METHODS)
def test_scipy_conventions(method):
    rng = np.random.default_rng(0)
    X = rng.random((9, 4))
    Z = linkage(_cond(X), method)
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


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_monotone_heights(method):
    """Single/complete/average linkage on a metric are monotone (no
    inversions)."""
    rng = np.random.default_rng(1)
    X = rng.random((12, 3))
    Z = linkage(_cond(X), method)
    assert (np.diff(Z[:, 2]) >= -1e-12).all()


def test_linkage_rejects_bad_method():
    with pytest.raises(ValueError):
        linkage(_cond(LINE), "centroid")


def test_linkage_rejects_bad_length():
    with pytest.raises(ValueError):
        linkage(np.zeros(5))


def test_cophenetic_line_single():
    Z = linkage(_cond(LINE), "single")
    c = cophenetic(Z)
    # pairs: (0,1)=1, (0,2)=2, (0,3)=4, (1,2)=2, (1,3)=4, (2,3)=4
    assert c.tolist() == [1.0, 2.0, 4.0, 2.0, 4.0, 4.0]


def test_cophenetic_is_ultrametric():
    rng = np.random.default_rng(2)
    X = rng.random((10, 3))
    Z = linkage(_cond(X), "complete")
    from repro.cluster.distance import squareform

    C = squareform(cophenetic(Z), 10)
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert C[i, j] <= max(C[i, k], C[k, j]) + 1e-9


def test_newick_wellformed():
    Z = linkage(_cond(LINE), "average")
    nk = to_newick(Z, ["a", "b", "c", "d"])
    assert nk.endswith(";")
    assert nk.count("(") == nk.count(")") == 3
    for leaf in "abcd":
        assert leaf in nk


def test_newick_spaces_replaced():
    Z = linkage(_cond(LINE), "average")
    nk = to_newick(Z, ["a a", "b b", "c c", "d d"])
    assert "a_a" in nk and " " not in nk.replace("; ", ";")


def test_ascii_dendrogram_contains_all_labels():
    rng = np.random.default_rng(3)
    X = rng.random((8, 2))
    Z = linkage(_cond(X), "average")
    labels = [f"leaf{i}" for i in range(8)]
    art = ascii_dendrogram(Z, labels)
    for lab in labels:
        assert lab in art
    assert len(art.splitlines()) == 8


def test_deterministic_tie_break():
    # Equilateral configuration: all pairwise distances equal.
    cond = np.array([1.0, 1.0, 1.0])
    Z1 = linkage(cond, "average")
    Z2 = linkage(cond, "average")
    assert np.array_equal(Z1, Z2)
    assert Z1[0, 0] == 0 and Z1[0, 1] == 1  # smallest pair first
