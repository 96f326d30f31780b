"""Table I reproduction harness.

For every cuisine: number of recipes, the paper's named significant
pattern(s) with the support *we* measure (via the oracle-checked Spark SQL
containment query — independent of the miner; the same query yields the
recipe counts), and the total number of frequent patterns FP-Growth finds
at support 0.2.

The paper's "Pattern" column is editorial (a raw support ranking would put
generic items first — the paper itself notes the skew toward salt/onion/
add); measuring the named pattern's support and the pattern count is the
falsifiable content of the table.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..mining.patterns import canon_pattern
from ..mining.spark_fpm import mine_all_regions, pattern_support
from ..recipedb.vocab import MIN_SUPPORT, PAPER_TABLE1, REGIONS


def table1(
    recipes: DataFrame, min_support: float = MIN_SUPPORT
) -> pd.DataFrame:
    """Reproduce Table I. Returns one row per (region, named pattern):

    region, n_recipes (measured), paper_n_recipes, pattern,
    paper_support, support (measured), paper_n_patterns,
    n_patterns (measured at ``min_support``).
    """
    mined = mine_all_regions(recipes, min_support)
    counts = (
        mined.groupBy("region")
        .agg(F.count(F.lit(1)).alias("n_patterns"))
        .toPandas()
        .set_index("region")["n_patterns"]
    )
    all_patterns = sorted(
        {tuple(sorted(p)) for _, pats, _ in PAPER_TABLE1.values() for p, _ in pats}
    )
    sup = (
        pattern_support(recipes, all_patterns)
        .toPandas()
        .set_index(["region", "pattern"])
    )
    rows = []
    for region in REGIONS:
        paper_n_rec, pats, paper_n_pat = PAPER_TABLE1[region]
        for p, paper_sup in pats:
            canon = canon_pattern(p)
            hit = sup.loc[(region, canon)]
            rows.append(
                {
                    "region": region,
                    "n_recipes": int(hit["n_recipes"]),
                    "paper_n_recipes": paper_n_rec,
                    "pattern": canon,
                    "paper_support": paper_sup,
                    "support": round(float(hit["support"]), 3),
                    "paper_n_patterns": paper_n_pat,
                    "n_patterns": int(counts.get(region, 0)),
                }
            )
    return pd.DataFrame(rows)


def format_table1(t1: pd.DataFrame) -> str:
    """Markdown rendering, paper value next to measured value."""
    lines = [
        "| Region | Recipes (paper) | Pattern | Support (paper) | #Patterns (paper) |",
        "|---|---|---|---|---|",
    ]
    for region, grp in t1.groupby("region", sort=False):
        first = grp.iloc[0]
        pat_cell = "<br>".join(grp["pattern"])
        sup_cell = "<br>".join(
            f"{r.support:.2f} ({r.paper_support:.2f})" for r in grp.itertuples()
        )
        lines.append(
            f"| {region} | {first.n_recipes} ({first.paper_n_recipes}) | {pat_cell} "
            f"| {sup_cell} | {first.n_patterns} ({first.paper_n_patterns}) |"
        )
    return "\n".join(lines)
