"""The benchmark's workloads and their seeded, cached inputs.

Every input is made from ``--seed`` by ``transner_ray.synth.write_pages``;
the job under test sees only those parquet files. Corpora, oracle outputs
and the ``append_resume`` base checkpoint are cached per seed under the
benchmark's work root, so a repeated seed pays for them once. None of
that preparation is timed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    num_shards: int
    num_partitions: int  # 0: one partition per input file
    write_mentions: bool
    base_shards: int = 0  # > 0: shards prebuilt into a restored checkpoint
    kernel_docs: int = 400  # size of the kernel-pass sample

    def partitions(self, files: list[str]) -> int:
        return self.num_partitions or len(files)

    def new_docs(self) -> int:
        """Docs the timed job ingests (the rest is already checkpointed)."""
        if self.base_shards:
            return self.n_docs // self.num_shards * (self.num_shards - self.base_shards)
        return self.n_docs


# the workloads BENCHMARK.json lists; append_resume runs only when named
GATED = ("many_parts", "bulk")

SIZES = {
    "full": {
        # dispatch-bound: ~3 Ray Data executions per partition
        "many_parts": Workload("many_parts", 480, 24, 6, True),
        # compute-bound: detect and triples dominate
        "bulk": Workload("bulk", 3000, 8, 2, False),
        # resume-bound: one new partition beside a 16-partition checkpoint
        "append_resume": Workload("append_resume", 680, 17, 0, False, base_shards=16),
    },
    # the self-check's size: same shapes, a few docs each
    "tiny": {
        "many_parts": Workload("many_parts", 48, 8, 4, True, kernel_docs=48),
        "bulk": Workload("bulk", 60, 2, 2, False, kernel_docs=60),
        "append_resume": Workload(
            "append_resume", 60, 5, 0, False, base_shards=4, kernel_docs=60
        ),
    },
}


def corpus(cache: str, w: Workload, seed: int) -> list[str]:
    """Seeded pages shards of workload ``w`` (generated once per seed)."""
    from transner_ray import synth

    d = os.path.join(cache, "pages", f"s{seed}-n{w.n_docs}-k{w.num_shards}")
    return synth.write_pages(d, seed=seed, n_docs=w.n_docs, num_shards=w.num_shards)


def oracle(cache: str, seed: int, n_docs: int, pages: list[str]) -> dict:
    """Sequential-oracle outputs for the corpus ``(seed, n_docs)``, cached
    as JSON. Docs are independent of their sharding, so the key omits it."""
    from . import verify

    path = os.path.join(cache, "oracle", f"s{seed}-n{n_docs}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    import pyarrow.parquet as pq

    from transner_ray.oracle import run_oracle

    rows = [r for p in sorted(pages) for r in pq.read_table(p).to_pylist()]
    out = run_oracle(rows)
    expected = {
        "triples_sha": verify.triples_sha(out["triples"]),
        "n_triples": len(out["triples"]),
        "entities": verify.norm_entities(out["entities"]),
        "edges": verify.norm_edges(out["edges"]),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(expected, f)
    os.replace(tmp, path)
    # round-trip so cached and fresh values compare identically
    return json.loads(json.dumps(expected))


def base_checkpoint(cache: str, w: Workload, seed: int, pages: list[str]) -> str | None:
    """The ``append_resume`` checkpoint of ``base_shards`` one-file
    partitions, built once per seed with the job under test. Needs a Ray
    session. Returns None for workloads without one."""
    if not w.base_shards:
        return None
    import shutil

    from transner_ray.pipelines.kg import run_partitioned

    d = os.path.join(cache, "base", f"s{seed}-n{w.n_docs}-k{w.num_shards}")
    if os.path.exists(os.path.join(d, "READY")):
        return d
    shutil.rmtree(d, ignore_errors=True)
    base = sorted(pages)[: w.base_shards]
    run_partitioned(
        base, d, num_partitions=len(base), write_mentions=w.write_mentions
    )
    open(os.path.join(d, "READY"), "w").close()
    return d
