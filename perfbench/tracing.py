"""Spans around the driver-side calls into the KG job's layers.

``Tracer.install`` wraps, from outside the program:

* Ray Data: ``Dataset.write_parquet``, ``.materialize`` and ``.count``. A
  write nests the materialize that executes it; each materialize records
  the per-operator wall, UDF and row totals of its execution, read from
  the structured ``Dataset._get_stats_summary()``.
* ``state.checkpoint``: ``plan_partitions``, ``fingerprint_files`` and the
  ``CheckpointStore`` manifest and stage-file calls. ``pipelines/kg.py``
  imports the two functions by name, so its bindings are wrapped too.

A span records its name, start, end, parent and the id of the job it
belongs to. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager

from .host import du_bytes

# Ray Data names an operator by its fused chain; each execution is
# attributed to the first group whose marker appears in the name.
OPERATORS = [
    ("spine", "extract_text_batch"),
    ("explode", "explode_mentions_batch"),
    ("triples", "triples_batch"),
    ("entity_partials", "entity_partials_batch"),
    ("edge_partials", "edge_partials_batch"),
    ("entity_reduce", "reduce_entity_bucket"),
    ("edge_reduce", "reduce_edge_bucket"),
    ("repartition", "Repartition"),
    ("sort", "Sort"),
    ("read", "ReadParquet"),
    ("write", "Write"),
    ("other", ""),
]
NARROW_OPERATORS = ("spine", "explode", "triples")
OUTPUT_DIRS = ("sm", "mentions", "triples", "entities", "edges")

_UNKNOWN_UUID = "unknown_uuid"


def operator_group(name: str) -> str:
    return next(group for group, marker in OPERATORS if marker in name)


def _stat_sum(d: dict | None) -> float:
    return float((d or {}).get("sum", 0.0))


def execution_operators(summary) -> list[dict]:
    """Operator totals of one execution. Parents are walked so that the
    read and all-to-all operators are included; a parent with its own
    dataset uuid is an earlier, separately recorded materialization."""
    out = []
    for op in summary.operators_stats:
        out.append(
            {
                "op": op.operator_name,
                "group": operator_group(op.operator_name),
                "wall_s": _stat_sum(op.wall_time),
                "udf_s": _stat_sum(op.udf_time),
                "rows_out": _stat_sum(op.output_num_rows),
            }
        )
    for parent in summary.parents:
        if parent.dataset_uuid == _UNKNOWN_UUID:
            out.extend(execution_operators(parent))
    return out


def output_dir_name(path: str) -> str:
    """``.../triples/part=0003.tmp`` → ``triples``; ``.../out/edges.tmp`` → ``edges``."""
    base = os.path.basename(os.path.normpath(path)).removesuffix(".tmp")
    if base.startswith("part="):
        base = os.path.basename(os.path.dirname(os.path.normpath(path)))
    return base


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[dict] = []
        self._patched: list[tuple] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs):
        s = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self.job,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job_span(self, job: str):
        """Root span of one ``run_partitioned`` call; its children share ``job``."""
        self.job = job
        try:
            with self.span("pipelines.kg.run_partitioned") as s:
                yield s
        finally:
            self.job = None

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.job is None or threading.get_ident() != self._thread:
                return orig(*args, **kwargs)
            with self.span(name(args, kwargs) if callable(name) else name) as s:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(s, args, kwargs, out)
                return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self) -> None:
        from ray.data import Dataset

        import transner_ray.pipelines.kg as kg_mod
        import transner_ray.state.checkpoint as ckpt_mod

        def write_name(args, kwargs):
            return "ray.write:" + output_dir_name(kwargs.get("path") or args[1])

        def after_write(s, args, kwargs, out):
            s["files"], s["bytes"] = du_bytes(kwargs.get("path") or args[1])

        def after_materialize(s, args, kwargs, out):
            s["operators"] = execution_operators(out._get_stats_summary())

        self._wrap(Dataset, "write_parquet", write_name, after_write)
        self._wrap(Dataset, "materialize", "ray.materialize", after_materialize)
        self._wrap(Dataset, "count", "ray.count")
        for mod in (ckpt_mod, kg_mod):
            self._wrap(mod, "fingerprint_files", "checkpoint.fingerprint_files")
        self._wrap(kg_mod, "plan_partitions", "checkpoint.plan_partitions")
        for attr in ("load_manifest", "write_manifest", "completed_stage_files"):
            self._wrap(ckpt_mod.CheckpointStore, attr, "checkpoint." + attr)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": self.spans}, f, indent=1)

    # ---- metrics ----------------------------------------------------
    def _job(self, job: str) -> list[dict]:
        return [s for s in self.spans if s["job"] == job]

    def checkpoint_s(self, job: str) -> float:
        """Time in state.checkpoint calls of ``job`` (outermost spans only)."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self._job(job):
            if s["name"].startswith("checkpoint.") and not by_id[s["parent"]]["name"].startswith(
                "checkpoint."
            ):
                total += s["end"] - s["start"]
        return total

    def job_metrics(self, job: str, num_cpus: int) -> dict:
        spans = self._job(job)
        root = next(s for s in spans if s["parent"] is None)
        wall = root["end"] - root["start"]
        wide_start = min(
            (s["start"] for s in spans if s["name"] == "checkpoint.completed_stage_files"),
            default=root["end"],
        )
        ops = [op for s in spans if s["name"] == "ray.materialize" for op in s["operators"]]
        m: dict[str, float] = {
            "pipelines.executions": sum(s["name"] == "ray.materialize" for s in spans),
            "pipelines.narrow_s": wide_start - root["start"],
            "pipelines.wide_s": root["end"] - wide_start,
            "pipelines.busy_share": sum(op["udf_s"] for op in ops) / (wall * num_cpus),
            "checkpoint.s": self.checkpoint_s(job),
        }
        for group, _ in OPERATORS:
            mine = [op for op in ops if op["group"] == group]
            for key in ("wall_s", "udf_s", "rows_out"):
                m[f"ray.{group}.{key}"] = sum(op[key] for op in mine)
        for d in OUTPUT_DIRS:
            writes = [s for s in spans if s["name"] == "ray.write:" + d]
            m[f"write.{d}.files"] = sum(s["files"] for s in writes)
            m[f"write.{d}.bytes"] = sum(s["bytes"] for s in writes)
        m["narrow_udf_s"] = sum(op["udf_s"] for op in ops if op["group"] in NARROW_OPERATORS)
        return m
