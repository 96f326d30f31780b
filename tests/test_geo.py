"""Geographic substrate: haversine, centroid table, geo reference tree."""
from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.hac import cophenetic
from repro.geo.regions import (
    REGION_COORDS,
    geo_distances,
    geo_tree,
    haversine_km,
)
from repro.recipedb.vocab import REGIONS


def test_all_regions_have_coords():
    assert set(REGION_COORDS) == set(REGIONS)


def test_coords_in_range():
    for lat, lon in REGION_COORDS.values():
        assert -90 <= lat <= 90
        assert -180 <= lon <= 180


def test_haversine_zero():
    assert haversine_km(48.85, 2.35, 48.85, 2.35) == 0.0


def test_haversine_symmetric():
    d1 = haversine_km(51.5, -0.1, 48.85, 2.35)
    d2 = haversine_km(48.85, 2.35, 51.5, -0.1)
    assert d1 == pytest.approx(d2)


def test_haversine_london_paris():
    # ~343 km
    d = haversine_km(51.5074, -0.1278, 48.8566, 2.3522)
    assert d == pytest.approx(343.5, abs=5)


def test_haversine_antipodal():
    d = haversine_km(0, 0, 0, 180)
    assert d == pytest.approx(np.pi * 6371.0088, rel=1e-3)


def test_haversine_quarter_meridian():
    d = haversine_km(0, 0, 90, 0)
    assert d == pytest.approx(np.pi / 2 * 6371.0088, rel=1e-3)


def test_geo_distances_symmetric_and_positive():
    D = geo_distances()
    assert D.shape == (26, 26)
    assert np.array_equal(D, D.T)
    assert (np.diag(D) == 0).all()
    assert (D[~np.eye(26, dtype=bool)] > 0).all()


def test_geo_distances_specific_pair():
    D = geo_distances()
    i, j = REGIONS.index("UK"), REGIONS.index("Irish")
    assert D[i, j] == haversine_km(*REGION_COORDS["UK"], *REGION_COORDS["Irish"])


def test_geo_tree_shape():
    Z = geo_tree()
    assert Z.shape == (25, 4)
    assert (np.diff(Z[:, 2]) >= -1e-9).all()  # average linkage, monotone


def test_geo_tree_neighbors_cluster_early():
    """UK–Ireland and Belgium–Germany must be cophenetically closer than
    either is to Australia."""
    C = cophenetic(geo_tree())
    at = REGIONS.index
    assert C[at("UK"), at("Irish")] < C[at("UK"), at("Australian")]
    assert C[at("Belgian"), at("Deutschland")] < C[at("Belgian"), at("Japanese")]


def test_geo_tree_continents_separate():
    """European regions merge together well below the height at which they
    join the Asia-Pacific block."""
    C = cophenetic(geo_tree())
    at = REGIONS.index
    assert C[at("French"), at("Italian")] < C[at("French"), at("Japanese")]
    assert C[at("Mexican"), at("US")] < C[at("Mexican"), at("Thai")]


def test_geo_tree_canada_us_adjacent():
    """Pure geography puts Canada with the US (the baseline the cuisine
    trees deviate from, per the paper's discussion)."""
    C = cophenetic(geo_tree())
    at = REGIONS.index
    assert C[at("Canadian"), at("US")] < C[at("Canadian"), at("French")]
