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

Layer semantics and their calibration live in ``vocab`` (see DESIGN.md
§3): signature events, style blocks, independent fillers, the ordered tail
pools and tail Poisson rates (``tail_pools``, ``tail_rates``), and a
12.37 % utensil-information dropout. This module only draws and
assembles. Events containing utensil items are generated at
``p / (1 - dropout)`` so their *measured* support still lands on the
calibrated target after dropout removes utensils.

Assembly draws no random numbers: every layer contributes ``(recipe, item
code)`` pairs over the cuisine's sorted vocabulary, one ``np.unique`` sorts
and de-duplicates them, and one mask applies the dropout. Each list column
is then one Arrow ``ListArray``: offsets cut the sorted pairs by recipe.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .vocab import (
    KINDS,
    PAPER_TABLE1,
    PROFILES,
    REGIONS,
    UTENSIL_DROPOUT,
    item_type,
    tail_pools,
    tail_rates,
)

ITEM_COLUMNS = ("ingredients", "processes", "utensils")  # one per type in KINDS
RECIPE_SCHEMA = T.StructType(
    [
        T.StructField("region", T.StringType(), False),
        T.StructField("recipe_id", T.LongType(), False),
    ]
    + [
        T.StructField(c, T.ArrayType(T.StringType()), False)
        for c in (*ITEM_COLUMNS, "items")
    ]
)

# Floor on per-region recipe count at small scales, so unit tests still see
# statistically usable supports for every cuisine (Central American has only
# 460 recipes at scale 1.0).
MIN_RECIPES = 120

# Assembly codes item types by their position in KINDS.
_UTENSIL = KINDS.index("utensil")


def _tempered_weights(n: int, lam: float) -> np.ndarray:
    """Zipf-ish weights over a pool of ``n`` items, tempered and capped so
    that with ``lam`` draws per recipe no single item's marginal probability
    exceeds 0.12 (tail items must never cross the 0.2 mining threshold)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = 1.0 / (ranks + 20.0) ** 0.85
    w /= w.sum()
    if lam > 0:
        cap = 0.12 / lam
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


def _scaled_n(region: str, scale: float) -> int:
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
    return max(MIN_RECIPES, int(round(PAPER_TABLE1[region][0] * scale)))


def cuisine_pdf(
    region: str, *, scale: float = 1.0, seed: int = 0, id_offset: int = 0
) -> pa.Table:
    """Generate one cuisine's recipes as an Arrow table with the columns of
    ``RECIPE_SCHEMA``."""
    prof = PROFILES[region]
    n = _scaled_n(region, scale)
    rng = np.random.default_rng(seed * 1_000_003 + prof.index + 17)

    # Vocabulary: one code and one type per item, codes in sorted-name order
    # (sorted codes are sorted names). Tail pools are typed by construction.
    pools = tail_pools(region)
    kind_of = {it: KINDS.index(item_type(it)) for it in prof.fixed_items}
    for t, pool in enumerate(pools):
        kind_of.update(dict.fromkeys(pool, t))
    names = sorted(kind_of)
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
    for t, (lam, pool) in enumerate(zip(tail_rates(region), pools)):
        r, j = _tail_draws(rng, n, lam, pool, at_least=int(t == _UTENSIL))
        keys.append(r * V + np.array([code[i] for i in pool], dtype=np.int64)[j])

    # Sorted, duplicate-free pairs. Recipes without utensil information lose
    # utensil items from every layer, signature events included.
    rec, c = np.divmod(np.unique(np.concatenate(keys)), V)
    del keys  # lowers the peak while the columns are built
    keep = ~(dropout[rec] & (kind[c] == _UTENSIL))
    rec, c = rec[keep], c[keep]
    k = kind[c]
    # One list column per item type in KINDS order, then ``items`` (all of them).
    vocab = pa.array(names, pa.string())
    lists = [
        pa.ListArray.from_arrays(
            np.searchsorted(rec[m], np.arange(n + 1)).astype(np.int32),
            vocab.take(c[m]),
        )
        for m in [k == t for t in range(len(KINDS))] + [slice(None)]
    ]
    ids = np.arange(id_offset, id_offset + n, dtype=np.int64)
    return pa.table(
        [pa.array([region] * n, pa.string()), ids, *lists],
        names=RECIPE_SCHEMA.names,
    )


def recipes_pdf(*, scale: float = 1.0, seed: int = 0) -> pa.Table:
    """Generate the full 26-cuisine dataset as one Arrow table (driver-side).

    The name predates the Arrow table; the benchmark times this call by it.
    """
    tables = []
    offset = 0
    for region in REGIONS:
        table = cuisine_pdf(region, scale=scale, seed=seed, id_offset=offset)
        offset += table.num_rows
        tables.append(table)
    # One chunk per cuisine, not merged: merging copies the whole table on
    # the driver. createDataFrame makes one partition per <=10,000-row batch
    # (28 at scale 1.0); the aggregations downstream read them one task per
    # core.
    return pa.concat_tables(tables)


def recipes(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> DataFrame:
    """Generate the dataset as a Spark DataFrame.

    Generation itself is driver-side numpy (118k small rows at scale 1.0 —
    far below any distributed-generation threshold); Spark receives the
    Arrow table, so every downstream pipeline runs in the DataFrame/Catalyst
    layer.
    """
    return spark.createDataFrame(recipes_pdf(scale=scale, seed=seed), schema=RECIPE_SCHEMA)
