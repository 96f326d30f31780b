"""Deterministic synthetic-RecipeDB recipe sampler.

Produces the transaction table every downstream pipeline consumes:

    region: str, recipe_id: long,
    ingredients: array<string>, processes: array<string>,
    utensils: array<string>, items: array<string>

``items`` is the concatenation the paper feeds to FP-Growth (Section V-A:
"Ingredients, utensils and processes were concatenated"). All sampling is
seeded per cuisine, so the same ``(scale, seed)`` always yields the same
dataset — which is what lets the DuckDB oracle and pytest assert exact
results.

Layer semantics are defined in ``vocab`` (see DESIGN.md §3): signature
events, style blocks, independent fillers, Zipf-tempered tails, and a
12.37 % utensil-information dropout. Events containing utensil items are
generated at ``p / (1 - dropout)`` so their *measured* support still lands
on the calibrated target after dropout removes utensils.

Assembly draws no random numbers: every layer contributes ``(recipe, item
code)`` pairs over the cuisine's sorted vocabulary, one ``np.unique`` sorts
and de-duplicates them, and one mask applies the dropout.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from . import vocab
from .vocab import (
    PROFILES,
    REGIONS,
    UTENSIL_DROPOUT,
    CuisineProfile,
    item_type,
)

RECIPE_SCHEMA = T.StructType(
    [
        T.StructField("region", T.StringType(), False),
        T.StructField("recipe_id", T.LongType(), False),
        T.StructField("ingredients", T.ArrayType(T.StringType()), False),
        T.StructField("processes", T.ArrayType(T.StringType()), False),
        T.StructField("utensils", T.ArrayType(T.StringType()), False),
        T.StructField("items", T.ArrayType(T.StringType()), False),
    ]
)

# Floor on per-region recipe count at small scales, so unit tests still see
# statistically usable supports for every cuisine (Central American has only
# 460 recipes at scale 1.0).
MIN_RECIPES = 120

# Item types in the order of the typed columns; assembly codes them 0, 1, 2.
_KINDS = ("ingredient", "process", "utensil")
_UTENSIL = _KINDS.index("utensil")


def _tempered_weights(n: int, lam: float, cap_marginal: float = 0.12) -> np.ndarray:
    """Zipf-ish weights over a pool of ``n`` items, tempered and capped so
    that with ``lam`` draws per recipe no single item's marginal probability
    exceeds ``cap_marginal`` (tail items must never cross the 0.2 mining
    threshold)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = 1.0 / (ranks + 20.0) ** 0.85
    w /= w.sum()
    if lam > 0:
        cap = cap_marginal / lam
        for _ in range(4):
            w = np.minimum(w, cap)
            w /= w.sum()
    return w


def _tail_draws(
    rng: np.random.Generator,
    n_recipes: int,
    lam: float,
    pool: list[str],
    at_least: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a tail layer: per-recipe Poisson(lam) draws from ``pool`` with
    tempered-Zipf weights, as ``(recipe index, pool index)`` arrays (duplicates
    collapse at assembly). ``at_least`` truncates the count from below
    (utensils: every recipe *with* utensil information has at least one
    utensil, so the no-utensil count equals the Section-III dropout figure exactly)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    if lam <= 0 or not pool:
        return empty
    counts = np.minimum(rng.poisson(lam, n_recipes), int(2 * lam + 4))
    if at_least:
        counts = np.maximum(counts, at_least)
    total = int(counts.sum())
    if total == 0:
        return empty
    w = _tempered_weights(len(pool), lam)
    flat = rng.choice(len(pool), size=total, p=w)
    return np.repeat(np.arange(n_recipes), counts), flat


def _scaled_n(profile: CuisineProfile, scale: float) -> int:
    return max(MIN_RECIPES, int(round(profile.n_recipes * scale)))


def _per_recipe(
    names: np.ndarray, recipe: np.ndarray, code: np.ndarray, n: int
) -> list[list[str]]:
    """Cut ``(recipe, code)`` pairs sorted by recipe into one list of item
    names per recipe ``0..n-1`` (empty where a recipe has none)."""
    flat = names[code].tolist()
    bounds = np.searchsorted(recipe, np.arange(n + 1)).tolist()
    return list(map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:])))


def cuisine_pdf(
    region: str, *, scale: float = 1.0, seed: int = 0, id_offset: int = 0
) -> pd.DataFrame:
    """Generate one cuisine's recipes as a pandas DataFrame."""
    prof = PROFILES[region]
    n = _scaled_n(prof, scale)
    rng = np.random.default_rng(seed * 1_000_003 + prof.index + 17)

    # Vocabulary: one code and one type per item, codes in sorted-name order
    # (sorted codes are sorted names). Tail pools are typed by construction.
    pools = [
        vocab.tail_ingredient_pool(region),
        vocab.tail_process_pool(region),
        vocab.tail_utensil_pool(region),
    ]
    kind_of = {it: _KINDS.index(item_type(it)) for it in prof.fixed_items}
    for t, pool in enumerate(pools):
        kind_of.update(dict.fromkeys(pool, t))
    names = np.array(sorted(kind_of), dtype=object)
    code = {it: c for c, it in enumerate(names)}
    kind = np.array([kind_of[it] for it in names], dtype=np.int8)

    dropout = rng.random(n) < UTENSIL_DROPOUT

    # Fixed layers: every (itemset, prob) is an all-or-nothing Bernoulli fire.
    fires: list[tuple[tuple[str, ...], np.ndarray]] = []
    for ev in list(prof.events) + list(prof.blocks):
        p = ev.prob
        if any(kind_of[i] == _UTENSIL for i in ev.items):
            p = min(0.98, p / (1.0 - UTENSIL_DROPOUT))
        fires.append((ev.items, rng.random(n) < p))
    for it, p in prof.fillers:
        fires.append(((it,), rng.random(n) < p))
    # One key ``recipe * V + code`` per (recipe, item) pair; V = vocabulary size.
    V = len(names)
    keys = [
        (np.flatnonzero(m)[:, None] * V + [code[i] for i in its]).ravel()
        for its, m in fires
    ]

    # Tail layers: Poisson rates top up the Section-III length targets.
    exp_len = vocab.expected_layer_lengths(region)
    lam_ing = float(np.clip(vocab.AVG_INGREDIENTS - exp_len["ingredient"], 1.0, 12.0))
    lam_proc = float(np.clip(vocab.AVG_PROCESSES - exp_len["process"], 1.0, 14.0))
    lam_ut = float(np.clip(vocab.AVG_UTENSILS - exp_len["utensil"], 0.5, 5.0))
    for t, (lam, pool) in enumerate(zip((lam_ing, lam_proc, lam_ut), pools)):
        r, j = _tail_draws(rng, n, lam, pool, at_least=int(t == _UTENSIL))
        keys.append(r * V + np.array([code[i] for i in pool], dtype=np.int64)[j])

    # Sorted, duplicate-free pairs. Recipes without utensil information lose
    # utensil items from every layer, signature events included.
    rec, c = np.divmod(np.unique(np.concatenate(keys)), V)
    del keys  # lowers the peak while the columns are built
    keep = ~(dropout[rec] & (kind[c] == _UTENSIL))
    rec, c = rec[keep], c[keep]
    k = kind[c]
    typed = {
        col: _per_recipe(names, rec[k == t], c[k == t], n)
        for t, col in enumerate(("ingredients", "processes", "utensils"))
    }
    return pd.DataFrame(
        {
            "region": region,
            "recipe_id": np.arange(id_offset, id_offset + n, dtype=np.int64),
            **typed,
            "items": _per_recipe(names, rec, c, n),
        }
    )


def recipes_pdf(*, scale: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Generate the full 26-cuisine dataset as pandas (driver-side)."""
    frames = []
    offset = 0
    for region in REGIONS:
        pdf = cuisine_pdf(region, scale=scale, seed=seed, id_offset=offset)
        offset += len(pdf)
        frames.append(pdf)
    return pd.concat(frames, ignore_index=True)


def recipes(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> DataFrame:
    """Generate the dataset as a Spark DataFrame.

    Generation itself is driver-side numpy (118k small rows at scale 1.0 —
    far below any distributed-generation threshold); Spark receives typed
    arrays so every downstream pipeline runs in the DataFrame/Catalyst layer.
    """
    pdf = recipes_pdf(scale=scale, seed=seed)
    return spark.createDataFrame(pdf, schema=RECIPE_SCHEMA)
