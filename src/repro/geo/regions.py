"""Geographic reference for validation (paper Figure 6).

The paper validates cuisine trees against "the geographical relationship
among the cuisines": a HAC dendrogram over geographical distance between
regions. We assign each of the 26 cuisine regions a representative
centroid (for multi-country regions, a population-weighted-ish central
point), compute great-circle distances, and cluster.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ..cluster.hac import linkage
from ..recipedb.vocab import REGIONS

# (latitude, longitude) in degrees.
REGION_COORDS: dict[str, tuple[float, float]] = {
    "Australian": (-25.0, 134.0),
    "Belgian": (50.6, 4.5),
    "Canadian": (53.0, -95.0),
    "Caribbean": (18.2, -75.0),
    "Central American": (13.5, -86.0),
    "Chinese and Mongolian": (37.0, 105.0),
    "Deutschland": (51.0, 10.0),
    "Eastern European": (50.0, 28.0),
    "French": (46.5, 2.5),
    "Greek": (39.0, 22.5),
    "Indian Subcontinent": (22.0, 78.0),
    "Irish": (53.2, -7.7),
    "Italian": (42.5, 12.5),
    "Japanese": (36.0, 138.0),
    "Mexican": (23.5, -102.0),
    "Rest Africa": (0.0, 22.0),
    "South American": (-14.0, -60.0),
    "Southeast Asian": (5.0, 110.0),
    "Spanish and Portuguese": (40.0, -5.0),
    "Thai": (15.5, 101.0),
    "Korean": (36.5, 128.0),
    "Middle Eastern": (29.0, 45.0),
    "Northern Africa": (28.0, 9.0),
    "Scandinavian": (62.0, 15.0),
    "UK": (54.0, -2.5),
    "US": (39.5, -98.0),
}

EARTH_RADIUS_KM = 6371.0088


def haversine_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def geo_distances() -> np.ndarray:
    """Square great-circle distance matrix (km) over ``REGIONS``."""
    coords = [REGION_COORDS[r] for r in REGIONS]
    D = np.zeros((len(coords), len(coords)))
    for i, j in itertools.combinations(range(len(coords)), 2):
        D[i, j] = D[j, i] = haversine_km(*coords[i], *coords[j])
    return D


def geo_tree() -> np.ndarray:
    """The Figure-6 reference: average-linkage HAC over geographic distance."""
    return linkage(geo_distances())
