"""K-means + elbow substrate."""
from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.kmeans import kmeans, knee_k, knee_strength, wcss_curve


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0, 0], [10, 10], [20, 0]], dtype=float)
    X = np.vstack(
        [c + rng.normal(0, 0.5, (30, 2)) for c in centers]
    )
    return X


def test_k1_center_is_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    labels, centers, wcss = kmeans(X, 1, seed=0)
    assert np.allclose(centers[0], [2.0, 0.0])
    assert wcss == pytest.approx(8.0)  # 4 + 0 + 4
    assert set(labels) == {0}


def test_k_equals_n_zero_wcss():
    X = np.array([[0.0], [5.0], [9.0]])
    _, _, wcss = kmeans(X, 3, seed=0)
    assert wcss == pytest.approx(0.0)


def test_recovers_blobs(blobs):
    labels, centers, wcss = kmeans(blobs, 3, seed=1)
    # Each blob of 30 points must land in one cluster.
    for g in range(3):
        seg = labels[g * 30 : (g + 1) * 30]
        assert len(set(seg)) == 1
    assert wcss < 100


def test_deterministic(blobs):
    r1 = kmeans(blobs, 3, seed=5)
    r2 = kmeans(blobs, 3, seed=5)
    assert np.array_equal(r1[0], r2[0])
    assert r1[2] == r2[2]


def test_k_bounds(blobs):
    with pytest.raises(ValueError):
        kmeans(blobs, 0)
    with pytest.raises(ValueError):
        kmeans(blobs, len(blobs) + 1)


def test_wcss_nonincreasing_in_k(blobs):
    curve = wcss_curve(blobs, range(1, 8))
    ws = [w for _, w in curve]
    # modulo tiny local-optimum noise, WCSS decreases with k
    for a, b in zip(ws, ws[1:]):
        assert b <= a * 1.05


def test_sharp_elbow_detected(blobs):
    """3 well-separated blobs -> crisp elbow at k=3."""
    curve = wcss_curve(blobs, range(1, 9))
    assert knee_strength(curve) > 0.5
    assert knee_k(curve) == 3


def test_smooth_curve_no_elbow():
    """Smooth exponential decay -> low knee strength (the paper's Fig 1
    situation)."""
    curve = [(k, float(np.exp(-0.25 * k))) for k in range(1, 11)]
    assert knee_strength(curve) < 0.35


def test_linear_curve_zero_knee():
    curve = [(k, 10.0 - k) for k in range(1, 11)]
    assert knee_strength(curve) == pytest.approx(0.0, abs=1e-9)


def test_flat_curve():
    curve = [(k, 1.0) for k in range(1, 6)]
    assert knee_strength(curve) == 0.0


def test_knee_needs_three_points():
    with pytest.raises(ValueError):
        knee_strength([(1, 2.0), (2, 1.0)])


def test_empty_cluster_reseeded():
    # Duplicate points force potential empty clusters; must not crash.
    X = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    labels, centers, wcss = kmeans(X, 3, seed=0)
    assert wcss >= 0.0
