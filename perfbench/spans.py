"""Spans and Spark work counts around calls into the ``repro`` layers.

Every span sets its own Spark job group while it is open, so each job the
span launches can later be looked up through ``statusTracker``. Job
groups are set in both run modes; only traced runs wrap the inner layer
functions, by rebinding the names that ``repro`` modules imported, so no
file under ``src/`` changes.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function, span name) wrapped in traced passes. Spans take the
# name of the layer that owns the function; the three validation scores
# share one span name, so validation is timed as one layer.
INNER_CALLS = [
    ("repro.mining.spark_fpm", "mine_all_regions", "mining.spark_fpm.mine_all_regions"),
    ("repro.mining.spark_fpm", "pattern_support", "mining.spark_fpm.pattern_support"),
    ("repro.mining.patterns", "feature_matrix", "mining.patterns.feature_matrix"),
    ("repro.cluster.kmeans", "wcss_curve", "cluster.kmeans.wcss_curve"),
    ("repro.cluster.distance", "pdist", "cluster.distance.pdist"),
    ("repro.cluster.hac", "linkage", "cluster.hac.linkage"),
    ("repro.core.validate", "cophenetic_correlation", "core.validate.validate"),
    ("repro.core.validate", "triplet_agreement", "core.validate.validate"),
    ("repro.core.validate", "relationship_probes", "core.validate.validate"),
    ("repro.authenticity.prevalence", "authenticity_matrix", "authenticity.prevalence.authenticity_matrix"),
]

# Layers whose Spark work is reported as jobs / stages / tasks per config.
SPARK_LAYERS = [
    "recipedb.generator",
    "recipedb.stats",
    "mining.spark_fpm",
    "mining.patterns",
    "authenticity.prevalence",
    "core.table1",
    "core.elbow",
    "core.fihc",
    "core.authenticity",
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    group: str
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records the spans of one pass; ``pass_id`` keeps job groups unique."""

    def __init__(self, sc, pass_id: str):
        self.sc = sc
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _set_group(self, group: str | None) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", group)

    @contextmanager
    def span(self, name: str):
        """Open a span and its job group; closing restores the parent's."""
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            group=f"bench-{self.pass_id}-{len(self.spans)}",
            start=0.0,
        )
        self.spans.append(s)
        if parent:
            parent.children.append(s.id)
        self._stack.append(s)
        self._set_group(s.group)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent.group if parent else None)

    # ---- Spark work, read after the pass so it stays out of the timing
    def count_spark_work(self, settle_s: float = 10.0) -> None:
        """Fill jobs / stages / tasks for every span from ``statusTracker``.

        The status store is updated from the listener bus, which may lag the
        action that returned; poll until every job has finished and no
        stage has a running task. Stages skipped because their shuffle
        output was reused run no task and are not counted.
        """
        st = self.sc.statusTracker()
        deadline = time.monotonic() + settle_s
        while True:
            pending = False
            for s in self.spans:
                s.jobs = s.stages = s.tasks = 0
                for jid in st.getJobIdsForGroup(s.group):
                    info = st.getJobInfo(jid)
                    if info is None or info.status not in ("SUCCEEDED", "FAILED"):
                        pending = True
                        continue
                    s.jobs += 1
                    for sid in info.stageIds:
                        stage = st.getStageInfo(sid)
                        if stage is None:
                            continue
                        if stage.numActiveTasks:
                            pending = True
                        if stage.numCompletedTasks:
                            s.stages += 1
                            s.tasks += stage.numCompletedTasks
            if not pending or time.monotonic() > deadline:
                return
            time.sleep(0.05)

    def inclusive(self, s: Span, attr: str) -> int:
        return getattr(s, attr) + sum(
            self.inclusive(self.spans[c], attr) for c in s.children
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-config layer metrics: seconds per span name (summed over
        calls), Spark work per layer, self time of the ``core`` stages."""
        m: dict[str, float] = {}
        for s in self.spans:
            key = f"{s.name}_s"
            m[key] = m.get(key, 0.0) + s.seconds
        for layer in SPARK_LAYERS:
            # Outermost spans of the layer only, so nested calls into the
            # same layer are not counted twice.
            tops = [
                s for s in self.spans
                if s.layer == layer
                and not self._has_ancestor_in(s, layer)
            ]
            for attr in ("jobs", "stages", "tasks"):
                m[f"{layer}.spark_{attr}"] = sum(self.inclusive(s, attr) for s in tops)
        for s in self.spans:
            if s.parent is None and s.layer.startswith("core."):
                child_s = sum(self.spans[c].seconds for c in s.children)
                key = f"{s.layer}.self_s"
                m[key] = m.get(key, 0.0) + s.seconds - child_s
        roots = [s for s in self.spans if s.parent is None]
        for attr in ("jobs", "stages", "tasks"):
            m[f"spark.{attr}_per_config"] = sum(self.inclusive(s, attr) for s in roots)
        return m

    def _has_ancestor_in(self, s: Span, layer: str) -> bool:
        p = s.parent
        while p is not None:
            if self.spans[p].layer == layer:
                return True
            p = self.spans[p].parent
        return False

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "jobs": s.jobs,
                "stages": s.stages,
                "tasks": s.tasks,
            }
            for s in self.spans
        ]


class InnerCallPatch:
    """Rebinds every ``repro`` module attribute that refers to one of the
    ``INNER_CALLS`` functions to a wrapper that opens a span on the
    current tracer; ``restore`` puts the originals back."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self._undo: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer) -> None:
        self.tracer = tracer
        for mod_name, fn_name, span_name in INNER_CALLS:
            orig = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(orig, span_name)
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is None:
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        self.tracer = None

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper
