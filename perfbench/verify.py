"""Checks one rep's on-disk outputs against the sequential oracle.

Triples are compared by a sha256 over the sorted key that
``scripts/check_invariance.py`` uses; entities and edges must equal
``transner_ray.oracle.run_oracle`` exactly after sorting. Outputs are
read with pyarrow on the driver, never through Ray, so a check costs
no Ray execution.
"""

from __future__ import annotations

import glob
import hashlib
import os

import pyarrow.parquet as pq


class Mismatch(Exception):
    """A rep's output differs from the oracle."""


def triples_sha(triples) -> str:
    rows = sorted(
        (
            t["subj_id"],
            t["pred"],
            t["obj_id"],
            t["url"],
            int(t["sent_idx"]),
            round(float(t["confidence"]), 6),
        )
        for t in triples
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def norm_entities(rows) -> list:
    return sorted(
        [r["entity_id"], r["canonical"], r["type"], list(r["aliases"]), int(r["support"])]
        for r in rows
    )


def norm_edges(rows) -> list:
    return sorted(
        [r["subj_id"], r["pred"], r["obj_id"], int(r["weight"]), list(r["sources"])]
        for r in rows
    )


def _read_rows(files: list[str]) -> list[dict]:
    return [r for f in sorted(files) for r in pq.read_table(f).to_pylist()]


def check(ckpt_dir: str, out_dir: str, expected: dict) -> None:
    """Raise Mismatch unless the checkpointed triples and the final
    entities/edges under ``out_dir`` equal the oracle's."""
    triples = _read_rows(glob.glob(os.path.join(ckpt_dir, "triples", "part=*[0-9]", "*.parquet")))
    if len(triples) != expected["n_triples"] or triples_sha(triples) != expected["triples_sha"]:
        raise Mismatch(
            f"triples differ from the oracle: {len(triples)} rows, "
            f"oracle has {expected['n_triples']}"
        )
    for name, norm in (("entities", norm_entities), ("edges", norm_edges)):
        got = norm(_read_rows(glob.glob(os.path.join(out_dir, name, "*.parquet"))))
        if got != expected[name]:
            raise Mismatch(
                f"{name} differ from the oracle: {len(got)} rows, "
                f"oracle has {len(expected[name])}"
            )


def corrupt_triples(ckpt_dir: str) -> None:
    """Self-check fault: drop the last row of one checkpointed triples
    file, so the following check must fail."""
    files = sorted(glob.glob(os.path.join(ckpt_dir, "triples", "part=*[0-9]", "*.parquet")))
    for f in files:
        t = pq.read_table(f)
        if t.num_rows:
            pq.write_table(t.slice(0, t.num_rows - 1), f)
            return
    raise RuntimeError("no triples to corrupt")
