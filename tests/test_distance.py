"""Distance substrate: metric correctness vs brute force, properties,
condensed-form helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.distance import (
    METRICS,
    condense,
    pdist,
    squareform,
)


def _brute(X, metric):
    n = len(X)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x, y = np.asarray(X[i], float), np.asarray(X[j], float)
            if metric == "euclidean":
                out.append(math.sqrt(((x - y) ** 2).sum()))
            elif metric == "cosine":
                out.append(
                    1 - (x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
                )
            else:
                bx, by = x != 0, y != 0
                union = (bx | by).sum()
                out.append(0.0 if union == 0 else 1 - (bx & by).sum() / union)
    return np.array(out)


def test_squareform_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.random((7, 3))
    c = pdist(X, "euclidean")
    sq = squareform(c, 7)
    assert np.allclose(sq, sq.T)
    assert np.allclose(np.diag(sq), 0)
    # The condensed vector enumerates the upper triangle in row-major order.
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    assert [sq[i, j] for i, j in pairs] == c.tolist()
    assert np.array_equal(condense(sq), c)


def test_squareform_length_check():
    with pytest.raises(ValueError):
        squareform(np.zeros(5), 4)


@pytest.mark.parametrize("metric", METRICS)
def test_matches_bruteforce_dense(metric):
    rng = np.random.default_rng(1)
    X = rng.random((10, 6))
    assert np.allclose(pdist(X, metric), _brute(X, metric), atol=1e-10)


@pytest.mark.parametrize("metric", METRICS)
def test_matches_bruteforce_binary(metric):
    rng = np.random.default_rng(2)
    X = (rng.random((12, 20)) < 0.4).astype(float)
    X[X.sum(axis=1) == 0, 0] = 1.0  # avoid zero vectors for cosine
    assert np.allclose(pdist(X, metric), _brute(X, metric), atol=1e-10)


@pytest.mark.parametrize("metric", METRICS)
def test_identical_rows_zero_distance(metric):
    X = np.ones((4, 5))
    assert np.allclose(pdist(X, metric), 0.0, atol=1e-12)


def test_euclidean_known_value():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert pdist(X, "euclidean")[0] == pytest.approx(5.0)


def test_cosine_orthogonal():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert pdist(X, "cosine")[0] == pytest.approx(1.0)


def test_cosine_rejects_zero_vector():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        pdist(X, "cosine")


def test_jaccard_known_value():
    X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    # intersection 1, union 3
    assert pdist(X, "jaccard")[0] == pytest.approx(1 - 1 / 3)


def test_jaccard_all_zero_rows():
    X = np.zeros((2, 3))
    assert pdist(X, "jaccard")[0] == 0.0


def test_unknown_metric():
    with pytest.raises(ValueError):
        pdist(np.ones((3, 2)), "manhattan")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_euclidean_triangle_inequality(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    sq = squareform(pdist(X, "euclidean"), n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert sq[i, j] <= sq[i, k] + sq[k, j] + 1e-9

