"""Elbow pipeline (Fig 1): WCSS curve shape and the no-sharp-elbow claim."""
from __future__ import annotations

import pytest

from repro.core.elbow import SHARP_KNEE_THRESHOLD, elbow


@pytest.fixture(scope="module")
def elbow_result(spark, recipes_small, mined_small):
    return elbow(recipes_small, mined=mined_small)


def test_curve_covers_requested_ks(elbow_result):
    assert elbow_result.curve["k"].tolist() == list(range(1, 11))


def test_wcss_positive_and_decreasing_overall(elbow_result):
    ws = elbow_result.curve["wcss"]
    assert (ws >= 0).all()
    assert ws.iloc[-1] < ws.iloc[0]


def test_wcss_roughly_monotone(elbow_result):
    ws = elbow_result.curve["wcss"].tolist()
    for a, b in zip(ws, ws[1:]):
        assert b <= a * 1.1  # k-means local optima allow small bumps


def test_no_sharp_elbow(elbow_result):
    """The paper's Fig-1 conclusion: the elbow method fails to choose k."""
    assert elbow_result.knee_strength < SHARP_KNEE_THRESHOLD
    assert not elbow_result.has_sharp_elbow


def test_knee_strength_bounded(elbow_result):
    assert 0.0 <= elbow_result.knee_strength <= 1.0


def test_deterministic(spark, recipes_small, mined_small):
    r1 = elbow(recipes_small, mined=mined_small)
    r2 = elbow(recipes_small, mined=mined_small)
    assert r1.curve["wcss"].tolist() == r2.curve["wcss"].tolist()


def test_elbow_runs_on_the_driver(spark_jobs, recipes_small, mined_small):
    """The elbow mines nothing itself: its one Spark job is the collect of
    the caller's mined frame; k-means is NumPy."""
    assert spark_jobs(lambda: elbow(recipes_small, mined=mined_small)) == 1
