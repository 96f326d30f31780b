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
) -> list[list[str]]:
    """Sample a tail layer: per-recipe Poisson(lam) draws from ``pool`` with
    tempered-Zipf weights (duplicates collapse at assembly). ``at_least``
    truncates the count from below (utensils: every recipe *with* utensil
    information has at least one utensil, so the no-utensil count equals the
    Section-III dropout figure exactly)."""
    if lam <= 0 or not pool:
        return [[] for _ in range(n_recipes)]
    counts = np.minimum(rng.poisson(lam, n_recipes), int(2 * lam + 4))
    if at_least:
        counts = np.maximum(counts, at_least)
    total = int(counts.sum())
    if total == 0:
        return [[] for _ in range(n_recipes)]
    w = _tempered_weights(len(pool), lam)
    flat = rng.choice(len(pool), size=total, p=w)
    out: list[list[str]] = []
    pos = 0
    arr = np.asarray(pool, dtype=object)
    for c in counts:
        out.append(list(arr[flat[pos : pos + c]]))
        pos += c
    return out


def _scaled_n(profile: CuisineProfile, scale: float) -> int:
    return max(MIN_RECIPES, int(round(profile.n_recipes * scale)))


def cuisine_pdf(
    region: str, *, scale: float = 1.0, seed: int = 0, id_offset: int = 0
) -> pd.DataFrame:
    """Generate one cuisine's recipes as a pandas DataFrame."""
    prof = PROFILES[region]
    n = _scaled_n(prof, scale)
    rng = np.random.default_rng(seed * 1_000_003 + prof.index + 17)

    dropout = rng.random(n) < UTENSIL_DROPOUT

    # Fixed layers: every (itemset, prob) is an all-or-nothing Bernoulli fire.
    fires: list[tuple[tuple[str, ...], np.ndarray]] = []
    for ev in list(prof.events) + list(prof.blocks):
        p = ev.prob
        if any(item_type(i) == "utensil" for i in ev.items):
            p = min(0.98, p / (1.0 - UTENSIL_DROPOUT))
        fires.append((ev.items, rng.random(n) < p))
    for it, p in prof.fillers:
        fires.append(((it,), rng.random(n) < p))

    # Tail layers: Poisson rates top up the Section-III length targets.
    exp_len = vocab.expected_layer_lengths(region)
    lam_ing = float(np.clip(vocab.AVG_INGREDIENTS - exp_len["ingredient"], 1.0, 12.0))
    lam_proc = float(np.clip(vocab.AVG_PROCESSES - exp_len["process"], 1.0, 14.0))
    lam_ut = float(np.clip(vocab.AVG_UTENSILS - exp_len["utensil"], 0.5, 5.0))
    tail_ing = _tail_draws(rng, n, lam_ing, vocab.tail_ingredient_pool(region))
    tail_proc = _tail_draws(rng, n, lam_proc, vocab.tail_process_pool(region))
    tail_ut = _tail_draws(rng, n, lam_ut, vocab.tail_utensil_pool(region), at_least=1)

    ingredients: list[list[str]] = []
    processes: list[list[str]] = []
    utensils: list[list[str]] = []
    items: list[list[str]] = []
    for r in range(n):
        rec: set[str] = set()
        for ev_items, mask in fires:
            if mask[r]:
                rec.update(ev_items)
        rec.update(tail_ing[r])
        rec.update(tail_proc[r])
        if not dropout[r]:
            rec.update(tail_ut[r])
        ing_r: list[str] = []
        proc_r: list[str] = []
        ut_r: list[str] = []
        for it in rec:
            t = item_type(it)
            if t == "ingredient":
                ing_r.append(it)
            elif t == "process":
                proc_r.append(it)
            else:
                ut_r.append(it)
        if dropout[r]:
            # Recipes without utensil information lose utensil items from
            # every layer, signature events included.
            for it in ut_r:
                rec.discard(it)
            ut_r = []
        ingredients.append(sorted(ing_r))
        processes.append(sorted(proc_r))
        utensils.append(sorted(ut_r))
        items.append(sorted(rec))

    return pd.DataFrame(
        {
            "region": region,
            "recipe_id": np.arange(id_offset, id_offset + n, dtype=np.int64),
            "ingredients": ingredients,
            "processes": processes,
            "utensils": utensils,
            "items": items,
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


def exploded_items(df: DataFrame) -> DataFrame:
    """Long format (region, recipe_id, item) — the shape the DuckDB oracle
    queries use. Items are unique within a recipe by construction."""
    from pyspark.sql import functions as F

    return df.select("region", "recipe_id", F.explode("items").alias("item"))
