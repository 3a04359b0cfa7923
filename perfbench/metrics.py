"""Names, units and directions of the metrics in the benchmark's result.

``BENCHMARK.json`` must list exactly these; ``check_spec`` enforces it
before each run, so a metric cannot be added here or there alone. A
metric must never read 0, so layer values that are 0 on a gated
workload (an operator or output only ``many_parts`` has, a UDF time of
an operator without a UDF) are printed as lines of their own but are
not result metrics.
"""

from __future__ import annotations

import json

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "cpu_ms_per_doc": ("ms/doc", "lower"),
    "resume_noop_cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "out_bytes_per_doc": ("B/doc", "lower"),
}

# Wall-time job measures, printed beside the result: CPU steal on a
# shared host moves them by more than any bound allowed (README.md)
WALL = {"docs_per_s": "docs/s", "resume_noop_s": "s"}

_KERNEL = {
    "extract.us_per_doc": ("us", "lower"),
    "split.us_per_doc": ("us", "lower"),
    "detect.us_per_sentence": ("us", "lower"),
    "detect.mentions_per_sentence": ("count", "higher"),
    "detect.windowed_share": ("ratio", "lower"),
    "explode.us_per_mention": ("us", "lower"),
    "triples.us_per_sentence": ("us", "lower"),
    "triples.yield": ("ratio", "higher"),
    "link.us_per_triple": ("us", "lower"),
    "link.distinct_ratio": ("ratio", "lower"),
    "graph.entity_partials.us_per_triple": ("us", "lower"),
    "graph.edge_partials.us_per_triple": ("us", "lower"),
    "graph.entity_reduce.us_per_row": ("us", "lower"),
    "graph.edge_reduce.us_per_row": ("us", "lower"),
    "graph.combiner_ratio": ("ratio", "lower"),
    "kernel.docs_per_s": ("docs/s", "higher"),
}

_TRACED = {
    "pipelines.executions": ("count", "lower"),
    "pipelines.noop_executions": ("count", "lower"),
    "pipelines.narrow_s": ("s", "lower"),
    "pipelines.wide_s": ("s", "lower"),
    "pipelines.busy_share": ("ratio", "higher"),
    "pipelines.parallel_efficiency": ("ratio", "higher"),
    "pipelines.kernel_udf_ratio": ("ratio", "higher"),
    **{
        f"ray.{group}.{key}": (unit, "lower")
        for group in ("spine", "entity_partials", "edge_partials", "entity_reduce", "edge_reduce")
        for key, unit in (("wall_s", "s"), ("udf_s", "s"), ("rows_out", "rows"))
    },
    # Ray Data's read, write and all-to-all operators run no UDF
    **{
        f"ray.{group}.{key}": (unit, "lower")
        for group in ("repartition", "sort", "read", "write")
        for key, unit in (("wall_s", "s"), ("rows_out", "rows"))
    },
    "checkpoint.s": ("s", "lower"),
    "checkpoint.noop_s": ("s", "lower"),
    **{
        f"write.{d}.{key}": (unit, "lower")
        for d in ("triples", "entities", "edges")
        for key, unit in (("files", "count"), ("bytes", "B"))
    },
    "trace.docs_per_s": ("docs/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

PER_LAYER = {**_KERNEL, **_TRACED}


def detail_unit(name: str) -> str:
    """Unit of a printed value that is not in the result."""
    if name in WALL:
        return WALL[name]
    suffix = name.rsplit(".", 1)[1]
    return {"wall_s": "s", "udf_s": "s", "rows_out": "rows", "files": "count", "bytes": "B"}[suffix]


def check_spec(path: str, workloads: list[str]) -> list[str]:
    """Differences between ``BENCHMARK.json`` and the workloads and
    metrics defined here."""
    with open(path) as f:
        spec = json.load(f)
    problems = []
    listed = [w["name"] for w in spec["workloads"]]
    if sorted(listed) != sorted(workloads):
        problems.append(f"workloads {listed} != {workloads}")
    for key, defined in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        for name in sorted(set(listed) ^ set(defined)):
            where = "BENCHMARK.json" if name in listed else "perfbench/metrics.py"
            problems.append(f"{key} metric {name} is only in {where}")
        for name in sorted(set(listed) & set(defined)):
            if listed[name] != defined[name]:
                problems.append(f"{key} metric {name}: {listed[name]} != {defined[name]}")
    return problems
