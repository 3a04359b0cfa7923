"""Parallelism-invariance check (SURVEY.md §5.2 item 4): the SAME
input run in two fresh processes at different num_cpus must produce
IDENTICAL triples, entities and edges (content hash over the sorted
triple set, and over the sorted entities and edges that
``run_partitioned`` writes). The legs run at 1 CPU and at up to 4 of
the CPUs this process may use; with only one usable CPU there is no
second configuration to compare, so the script prints SKIPPED and
exits 2.

    python scripts/check_invariance.py [n_docs]
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

WORKER = r"""
import glob, hashlib, os, ray, sys, tempfile
import pyarrow.parquet as pq
n = int(sys.argv[1]); docs = int(sys.argv[2])
ray.init(address="local", num_cpus=n, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, %(repo)r)
from transner_ray import synth
from transner_ray.pipelines import kg
paths = synth.write_pages(f"/tmp/invariance_pages_{docs}", seed=42, n_docs=docs, num_shards=8)
df = kg.linked_triples_dataset(kg.sentences_dataset(kg.read_pages(paths))).to_pandas()
rows = sorted(zip(df["subj_id"], df["pred"], df["obj_id"], df["url"], df["sent_idx"],
                  df["confidence"].round(6)))
h = hashlib.sha256(repr(rows).encode()).hexdigest()
print("HASH", h, len(rows))
with tempfile.TemporaryDirectory() as ckpt:
    res = kg.run_partitioned(paths, ckpt, num_partitions=4, write_mentions=False)
    for name in ("entities", "edges"):
        files = sorted(glob.glob(os.path.join(res["out_dir"], name, "*.parquet")))
        out = sorted(repr(r) for f in files for r in pq.read_table(f).to_pylist())
        print("HASH", hashlib.sha256(repr(out).encode()).hexdigest(), len(out), name)
ray.shutdown()
"""


def run(ncpu: int, docs: int) -> list[tuple[str, int]]:
    out = subprocess.run(
        [sys.executable, "-c", WORKER % {"repo": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}, str(ncpu), str(docs)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    lines = [l.split() for l in out.splitlines() if l.startswith("HASH")]
    return [(h, int(n)) for _, h, n, *_ in lines]


if __name__ == "__main__":
    docs = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    hi = min(4, len(os.sched_getaffinity(0)))
    if hi < 2:
        print("SKIPPED: one usable CPU, so both legs would run at num_cpus=1")
        sys.exit(2)
    legs = [(n, run(n, docs)) for n in (1, hi)]
    for n, hashes in legs:
        print(f"num_cpus={n}: " + ", ".join(
            f"{count} {what} {h[:16]}…"
            for what, (h, count) in zip(("triples", "entities", "edges"), hashes)
        ))
    (_, a), (_, b) = legs
    same = a == b and len(a) == 3
    print("IDENTICAL" if same else "MISMATCH")
    sys.exit(0 if same else 1)
