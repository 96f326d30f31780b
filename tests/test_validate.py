"""Tree-comparison metrics."""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.cluster.distance import pdist
from repro.cluster.hac import cophenetic, linkage
from repro.core.authenticity import authenticity_clustering
from repro.core.fihc import fihc
from repro.core.validate import (
    cophenetic_correlation,
    relationship_probes,
    triplet_agreement,
)
from repro.geo.regions import geo_distances, geo_tree
from repro.recipedb.vocab import REGIONS


@pytest.fixture
def tree_pair():
    """Cophenetic matrices of a random tree and of a perturbed copy."""
    rng = np.random.default_rng(0)
    X = rng.random((10, 4))
    C1 = cophenetic(linkage(pdist(X, "euclidean")))
    Y = X + rng.normal(0, 2.0, X.shape)  # heavily perturbed copy
    C2 = cophenetic(linkage(pdist(Y, "euclidean")))
    return C1, C2


def test_identical_trees_perfect_scores(tree_pair):
    C1, _ = tree_pair
    assert cophenetic_correlation(C1, C1) == pytest.approx(1.0)
    assert triplet_agreement(C1, C1) == pytest.approx(1.0)


def test_scaled_heights_still_perfect(tree_pair):
    """Cophenetic correlation and triplet agreement are invariant to
    monotone height scaling."""
    C1, _ = tree_pair
    C2 = 7.5 * C1
    assert cophenetic_correlation(C1, C2) == pytest.approx(1.0)
    assert triplet_agreement(C1, C2) == pytest.approx(1.0)


def test_different_trees_imperfect(tree_pair):
    C1, C2 = tree_pair
    assert cophenetic_correlation(C1, C2) < 0.999
    assert triplet_agreement(C1, C2) < 1.0


def test_scores_bounded(tree_pair):
    C1, C2 = tree_pair
    assert -1.0 <= cophenetic_correlation(C1, C2) <= 1.0
    assert 0.0 <= triplet_agreement(C1, C2) <= 1.0


def test_leafcount_mismatch_rejected(tree_pair):
    C1, _ = tree_pair
    small = cophenetic(linkage(pdist(np.random.default_rng(1).random((5, 2)))))
    with pytest.raises(ValueError, match="different leaf counts"):
        cophenetic_correlation(C1, small)
    with pytest.raises(ValueError, match="different leaf counts"):
        triplet_agreement(C1, small)


def test_triplet_agreement_needs_three_leaves():
    C = 1.0 - np.eye(2)
    with pytest.raises(ValueError, match="got 2"):
        triplet_agreement(C, C)


def test_geo_tree_correlates_with_its_distances():
    """The reference tree against the great-circle distances it was built
    from: the second reading of Fig 6, one call with no tree on one side."""
    r = cophenetic_correlation(cophenetic(geo_tree()), geo_distances())
    assert r == pytest.approx(0.8389, abs=5e-5)


def _closest_pair(C: np.ndarray, i: int, j: int, k: int) -> frozenset[int]:
    """Which pair of {i,j,k} has the smallest cophenetic distance (merges
    first). Ties return the union of tied pairs so agreement is graded
    correctly."""
    pairs = [(i, j), (i, k), (j, k)]
    d = [C[a, b] for a, b in pairs]
    lo = min(d)
    tied = [frozenset(p) for p, dv in zip(pairs, d) if dv <= lo + 1e-12]
    return tied[0] if len(tied) == 1 else frozenset().union(*tied)


def _triplet_agreement_oracle(Z1: np.ndarray, Z2: np.ndarray) -> float:
    """Per-triple reference: the trees agree when some first-merging pair
    is shared (exact match, or a tie on either side)."""
    n = Z1.shape[0] + 1
    C1, C2 = cophenetic(Z1), cophenetic(Z2)
    triples = list(itertools.combinations(range(n), 3))
    agree = sum(
        len(_closest_pair(C1, *t) & _closest_pair(C2, *t)) >= 2 for t in triples
    )
    return agree / len(triples)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ties", [False, True])
def test_triplet_agreement_matches_per_triple_oracle(seed, ties):
    """Random trees, and tie-heavy trees built from integer distances."""
    rng = np.random.default_rng(seed)

    def tree():
        A = rng.integers(1, 4, (12, 12)).astype(float) if ties else rng.random((12, 12))
        return linkage(A + A.T)

    Z1, Z2 = tree(), tree()
    for A, B in ((Z1, Z2), (Z2, Z1), (Z1, Z1)):
        C1, C2 = cophenetic(A), cophenetic(B)
        assert triplet_agreement(C1, C2) == _triplet_agreement_oracle(A, B)


@pytest.mark.parametrize(
    "probe, a, b, c",
    [
        ("canadian_closer_to_french_than_us", "Canadian", "French", "US"),
        ("indian_closer_to_nafrica_than_thai",
         "Indian Subcontinent", "Northern Africa", "Thai"),
        ("indian_closer_to_nafrica_than_seasia",
         "Indian Subcontinent", "Northern Africa", "Southeast Asian"),
    ],
    ids=["canada", "india_thai", "india_seasia"],
)
def test_relationship_probe_reads_its_two_distances(probe, a, b, c):
    """A hand-built cophenetic matrix over ``REGIONS``: a star at height 2
    with two cherries at height 1, Canadian–French and Indian
    Subcontinent–Northern Africa. Every probe holds; swapping the two
    distances a probe compares makes it fail, and so does a tie."""
    at = REGIONS.index
    C = 2.0 * (1.0 - np.eye(len(REGIONS)))
    for x, y in (("Canadian", "French"), ("Indian Subcontinent", "Northern Africa")):
        C[at(x), at(y)] = C[at(y), at(x)] = 1.0
    assert all(relationship_probes(C).values())
    ia, ib, ic = at(a), at(b), at(c)
    swapped = C.copy()
    swapped[ia, ib] = swapped[ib, ia] = C[ia, ic]
    swapped[ia, ic] = swapped[ic, ia] = C[ia, ib]
    assert relationship_probes(swapped)[probe] is False
    C[ia, ib] = C[ib, ia] = C[ia, ic]
    assert relationship_probes(C)[probe] is False


def test_relationship_probes_keys():
    rng = np.random.default_rng(2)
    X = rng.random((26, 5))
    C = cophenetic(linkage(pdist(X)))
    probes = relationship_probes(C)
    assert set(probes) == {
        "canadian_closer_to_french_than_us",
        "indian_closer_to_nafrica_than_thai",
        "indian_closer_to_nafrica_than_seasia",
    }
    assert all(isinstance(v, bool) for v in probes.values())


def test_triplet_agreement_random_baseline():
    """Two independent random trees should agree on roughly 1/3 of
    triples, far from 1.0."""
    rng = np.random.default_rng(3)
    C1 = cophenetic(linkage(pdist(rng.random((15, 8)))))
    C2 = cophenetic(linkage(pdist(rng.random((15, 8)))))
    score = triplet_agreement(C1, C2)
    assert 0.1 < score < 0.7


def test_tree_fingerprint_pinned(spark, recipes_small, mined_small):
    """The test-scale trees and scores are pinned byte for byte: the three
    FIHC linkage matrices, the authenticity linkage and both ``geo_scores``
    CSVs (sha256, first 16 hex digits)."""
    fr = fihc(recipes_small, mined=mined_small)
    ar = authenticity_clustering(recipes_small)
    h = hashlib.sha256()
    for metric in sorted(fr.trees):
        h.update(np.ascontiguousarray(fr.trees[metric]).tobytes())
    h.update(np.ascontiguousarray(ar.tree).tobytes())
    h.update(fr.geo_scores.to_csv(index=False).encode())
    h.update(ar.geo_scores.to_csv(index=False).encode())
    assert h.hexdigest()[:16] == "e1ccbe9053f61aa9"
