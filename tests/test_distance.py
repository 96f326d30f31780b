"""Distance substrate: metric correctness vs brute force, properties of
the square distance matrix."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.distance import METRICS, pdist


def _brute(X, metric):
    n = len(X)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x, y = np.asarray(X[i], float), np.asarray(X[j], float)
            if metric == "euclidean":
                out[i, j] = math.sqrt(((x - y) ** 2).sum())
            elif metric == "cosine":
                out[i, j] = 1 - (x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
            else:
                bx, by = x != 0, y != 0
                union = (bx | by).sum()
                out[i, j] = 0.0 if union == 0 else 1 - (bx & by).sum() / union
    return out


@pytest.mark.parametrize("metric", METRICS)
def test_pdist_square_symmetric_zero_diagonal(metric):
    rng = np.random.default_rng(0)
    dense = rng.random((7, 3))
    binary = (rng.random((9, 15)) < 0.4).astype(float)
    binary[binary.sum(axis=1) == 0, 0] = 1.0  # avoid zero vectors for cosine
    for X in (dense, binary):
        D = pdist(X, metric)
        assert D.shape == (len(X), len(X))
        assert np.array_equal(D, D.T)
        assert (np.diag(D) == 0.0).all()


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
    assert pdist(X, "euclidean")[0, 1] == pytest.approx(5.0)


def test_cosine_orthogonal():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert pdist(X, "cosine")[0, 1] == pytest.approx(1.0)


def test_cosine_rejects_zero_vector():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        pdist(X, "cosine")


def test_jaccard_known_value():
    X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    # intersection 1, union 3
    assert pdist(X, "jaccard")[0, 1] == pytest.approx(1 - 1 / 3)


def test_jaccard_all_zero_rows():
    X = np.zeros((2, 3))
    assert pdist(X, "jaccard")[0, 1] == 0.0


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
    sq = pdist(X, "euclidean")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert sq[i, j] <= sq[i, k] + sq[k, j] + 1e-9

