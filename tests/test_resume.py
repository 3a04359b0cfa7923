"""Checkpoint/resume semantics of the partitioned KG job: completed
partitions are never recomputed, interrupted partitions are cleaned and
re-run, outputs stay byte-stable across resumes (SURVEY.md §4.2)."""

import json
import os
import shutil

import pandas as pd
import pytest

import ray.data as rd

from transner_ray.pipelines import kg


@pytest.fixture()
def workdir(tmp_path, pages_small):
    return {"ckpt": str(tmp_path / "ckpt"), "paths": pages_small}


def _edges(out_dir):
    df = rd.read_parquet(os.path.join(out_dir, "edges")).to_pandas()
    df["sources"] = df["sources"].map(tuple)
    return df.sort_values(["subj_id", "pred", "obj_id"]).reset_index(drop=True)


def test_resume_skips_completed_and_matches(workdir, oracle_small):
    r1 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert r1["ran"] == [0, 1, 2] and r1["skipped"] == []
    e1 = _edges(r1["out_dir"])

    # full re-run: everything skipped, outputs identical
    r2 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert r2["ran"] == [] and r2["skipped"] == [0, 1, 2]
    e2 = _edges(r2["out_dir"])
    pd.testing.assert_frame_equal(e1, e2)

    # edges match the sequential oracle
    want = pd.DataFrame(
        [
            {
                "subj_id": e["subj_id"],
                "pred": e["pred"],
                "obj_id": e["obj_id"],
                "weight": e["weight"],
                "sources": tuple(e["sources"]),
            }
            for e in oracle_small["edges"]
        ]
    ).sort_values(["subj_id", "pred", "obj_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        e1[["subj_id", "pred", "obj_id", "weight", "sources"]], want
    )


def test_resume_after_simulated_kill(workdir):
    r1 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    e1 = _edges(r1["out_dir"])

    # simulate a kill mid-partition-1: manifest gone, stale partial output
    os.remove(os.path.join(workdir["ckpt"], "manifest", "part-0001.json"))
    stale = os.path.join(workdir["ckpt"], "triples", "part=0001.tmp")
    os.makedirs(stale, exist_ok=True)
    with open(os.path.join(stale, "garbage.parquet"), "w") as f:
        f.write("not parquet")

    r2 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert r2["ran"] == [1] and r2["skipped"] == [0, 2]
    assert not os.path.exists(stale)
    e2 = _edges(r2["out_dir"])
    pd.testing.assert_frame_equal(e1, e2)


def test_resume_cleans_stale_sm_checkpoint(workdir):
    """Regression (review finding): a kill AFTER sm.write_parquet but
    before the manifest leaves a stale ckpt/sm/part=N.tmp; the re-run
    writes fresh UUID-named files BESIDE the stale ones unless the sm
    stage is cleaned — which would duplicate every sentence and corrupt
    edge weights."""
    r1 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    e1 = _edges(r1["out_dir"])

    # simulate the kill: partition 1 manifest gone, a stale sm tmp dir
    # containing REAL sentence data (duplicate-inducing if not cleaned)
    os.remove(os.path.join(workdir["ckpt"], "manifest", "part-0001.json"))
    stale_sm = os.path.join(workdir["ckpt"], "sm", "part=0001.tmp")
    os.makedirs(stale_sm, exist_ok=True)
    sm = kg.sentences_dataset(kg.read_pages(workdir["paths"][1:2]))
    sm.write_parquet(stale_sm)

    r2 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert r2["ran"] == [1]
    e2 = _edges(r2["out_dir"])
    pd.testing.assert_frame_equal(e1, e2)  # weights NOT inflated


def test_repartitioned_rerun_invalidates_stale_manifests(workdir):
    """Regression (round-2 advice): manifest presence alone must not
    skip a partition — re-running with a different num_partitions
    changes each partition's file membership, so blind skipping would
    mix old and new partition outputs (duplicated/missing docs) with
    no error. The run must detect the input_files mismatch, invalidate
    every stale partition (including ids beyond the new plan), and
    produce identical output."""
    r1 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    e1 = _edges(r1["out_dir"])

    # shrink the plan: 3 partitions -> 2. Old part-0002 manifest is out
    # of range; parts 0/1 have different file membership.
    r2 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=2)
    assert r2["skipped"] == [] and r2["ran"] == [0, 1]
    assert not os.path.exists(os.path.join(workdir["ckpt"], "manifest", "part-0002.json"))
    assert not os.path.exists(os.path.join(workdir["ckpt"], "triples", "part=0002"))
    e2 = _edges(r2["out_dir"])
    pd.testing.assert_frame_equal(e1, e2)

    # same plan again: everything skips, nothing re-invalidated
    r3 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=2)
    assert r3["ran"] == [] and r3["skipped"] == [0, 1]
    pd.testing.assert_frame_equal(e1, _edges(r3["out_dir"]))


def test_manifest_lineage_content(workdir):
    kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    with open(os.path.join(workdir["ckpt"], "manifest", "part-0000.json")) as f:
        m = json.load(f)
    assert m["status"] == "complete"
    assert m["partition"] == 0
    assert all(os.path.exists(p) for p in m["input_files"])
    assert m["wall_sec"] > 0


def test_append_only_ingest_runs_only_new_partitions(tmp_path):
    """Incremental ingest contract: with one partition per file and
    shard names that sort after the existing ones, appending shards
    leaves completed partition identities untouched — the rerun
    processes ONLY the new files, and the output equals a cold
    full-corpus run."""
    from transner_ray import synth

    full = synth.write_pages(
        str(tmp_path / "pages"), seed=42, n_docs=40, num_shards=4
    )
    ckpt_inc = str(tmp_path / "ckpt_inc")
    first = sorted(full)[:2]
    r1 = kg.run_partitioned(first, ckpt_inc, num_partitions=len(first))
    assert len(r1["ran"]) == 2

    r2 = kg.run_partitioned(sorted(full), ckpt_inc, num_partitions=len(full))
    assert sorted(r2["skipped"]) == [0, 1]  # old shards kept their pids
    assert sorted(r2["ran"]) == [2, 3]

    ckpt_cold = str(tmp_path / "ckpt_cold")
    r3 = kg.run_partitioned(sorted(full), ckpt_cold, num_partitions=len(full))
    pd.testing.assert_frame_equal(
        _edges(r2["out_dir"]), _edges(r3["out_dir"])
    )


def test_run_partitioned_jsonl_matches_parquet(workdir, tmp_path):
    """input_format='jsonl': the resumable job over WET-shaped shards
    must produce the same edge table as over parquet pages, and resume
    (full-skip) must work identically."""
    import pyarrow as pa

    from transner_ray.sources.jsonl import write_extracted_jsonl
    from transner_ray.stages.extract import extract_text_batch

    extracted = (
        rd.read_parquet(workdir["paths"])
        .map_batches(extract_text_batch, batch_format="pyarrow")
        .to_pandas()
    )
    jl_paths = write_extracted_jsonl(
        pa.Table.from_pandas(extracted, preserve_index=False),
        str(tmp_path / "jl"),
        num_shards=3,
    )

    r_pq = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    r_jl = kg.run_partitioned(
        jl_paths, str(tmp_path / "ckpt_jl"), num_partitions=3, input_format="jsonl"
    )
    assert (r_jl["entities"], r_jl["edges"]) == (r_pq["entities"], r_pq["edges"])
    pd.testing.assert_frame_equal(_edges(r_jl["out_dir"]), _edges(r_pq["out_dir"]))

    r_jl2 = kg.run_partitioned(
        jl_paths, str(tmp_path / "ckpt_jl"), num_partitions=3, input_format="jsonl"
    )
    assert r_jl2["ran"] == [] and r_jl2["skipped"] == [0, 1, 2]
    pd.testing.assert_frame_equal(_edges(r_jl2["out_dir"]), _edges(r_pq["out_dir"]))


def test_legacy_manifest_upgraded_on_accept(workdir):
    """A pre-fingerprint manifest is accepted ONCE and immediately
    rewritten with the current fingerprint, so a file later
    regenerated in place invalidates the partition — the legacy hole
    is bounded to the first post-upgrade rerun, never indefinite."""
    kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    mp = os.path.join(workdir["ckpt"], "manifest", "part-0000.json")
    m = json.load(open(mp))
    m["input_fingerprint"] = []  # simulate a pre-upgrade manifest
    with open(mp, "w") as f:
        json.dump(m, f)

    r2 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert 0 in r2["skipped"]
    m2 = json.load(open(mp))
    assert m2["input_fingerprint"], "legacy accept must rewrite the fingerprint"

    # the upgraded manifest now catches an in-place regeneration
    f0 = m2["input_files"][0]
    st = os.stat(f0)
    os.utime(f0, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    r3 = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert 0 in r3["ran"]


def test_partitioned_edges_sorted_on_disk(tmp_path, monkeypatch):
    """``out/edges/*.parquet``, read in file-name order, is globally
    sorted by subj_id: the order the docstring promises to readers of
    the files, not only to readers of the lazy Dataset. A small
    WIDE_ROWS_PER_BLOCK gives this small corpus several reduce blocks,
    hence several edge files."""
    import glob

    import pyarrow.parquet as pq

    from transner_ray import synth

    monkeypatch.setattr(kg, "WIDE_ROWS_PER_BLOCK", 1000)
    paths = synth.write_pages(str(tmp_path / "pages"), seed=42, n_docs=600, num_shards=6)
    res = kg.run_partitioned(paths, str(tmp_path / "ckpt"), num_partitions=3, write_mentions=False)
    files = sorted(glob.glob(os.path.join(res["out_dir"], "edges", "*.parquet")))
    subj = [s for f in files for s in pq.read_table(f, columns=["subj_id"])["subj_id"].to_pylist()]
    assert len(files) > 1 and len(subj) == res["edges"]
    assert subj == sorted(subj)
