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


# ---- one narrow Ray Data execution per run -----------------------------------


def _rows(t, names):
    """Rows of an Arrow table or a list of dicts as sorted tuples."""
    rows = t.to_pylist() if hasattr(t, "to_pylist") else t
    return sorted(tuple(r[n] for n in names) for r in rows)


def _committed(ckpt, stage):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from transner_ray.state.checkpoint import CheckpointStore

    files = CheckpointStore(ckpt).completed_stage_files(stage)
    return pa.concat_tables([pq.read_table(f) for f in files])


@pytest.mark.parametrize("write_mentions", [True, False])
def test_narrow_phase_one_execution(workdir, monkeypatch, write_mentions):
    """Every partition's outputs come from ONE Ray Data execution shared
    by the run: no sentence-mentions checkpoint, no re-read, no second
    write, no execution per partition."""
    calls, before_wide = [], []
    materialize, write_graph = rd.Dataset.materialize, kg.write_graph

    def counted(self):
        calls.append(self)
        return materialize(self)

    def wide(linked, out_dir):
        before_wide.append(len(calls))
        return write_graph(linked, out_dir)

    monkeypatch.setattr(rd.Dataset, "materialize", counted)
    monkeypatch.setattr(kg, "write_graph", wide)
    res = kg.run_partitioned(
        workdir["paths"], workdir["ckpt"], num_partitions=3, write_mentions=write_mentions
    )
    assert res["ran"] == [0, 1, 2]
    assert before_wide == [1]
    stages = {"triples", "mentions"} if write_mentions else {"triples"}
    assert {d for d in os.listdir(workdir["ckpt"]) if d not in ("manifest", "out")} == stages


def test_wide_phase_one_execution(workdir, monkeypatch):
    """The wide phase is ONE Ray Data execution: one sort, one reduce
    and one write into both outputs, with nothing materialized to be
    re-read. A no-change rerun skips it and runs no execution at all."""
    calls, wide = [], []
    materialize, write_graph = rd.Dataset.materialize, kg.write_graph

    def counted(self):
        calls.append(self)
        return materialize(self)

    def counted_wide(linked, out_dir):
        before = len(calls)
        counts = write_graph(linked, out_dir)
        wide.append(len(calls) - before)
        return counts

    monkeypatch.setattr(rd.Dataset, "materialize", counted)
    monkeypatch.setattr(kg, "write_graph", counted_wide)
    first = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert first["ran"] == [0, 1, 2] and len(calls) == 2
    rerun = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert rerun["skipped"] == [0, 1, 2] and len(calls) == 2
    assert wide == [1]
    assert (rerun["entities"], rerun["edges"]) == (first["entities"], first["edges"])


# ---- the wide manifest: no Ray work when nothing changed --------------------


@pytest.fixture()
def executions(monkeypatch):
    """Ray Data executions, counted at ``Dataset.materialize`` (which every
    write goes through)."""
    calls = []
    materialize = rd.Dataset.materialize

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(rd.Dataset, "materialize", counted)
    return calls


def _assert_graph_is_oracle(out_dir, oracle):
    """The entity and edge files under ``out_dir`` hold the oracle's rows,
    none twice."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from transner_ray.schemas import EDGES, ENTITIES

    for name, schema in (("entities", ENTITIES), ("edges", EDGES)):
        files = glob.glob(os.path.join(out_dir, name, "*.parquet"))
        got = pa.concat_tables([pq.read_table(f) for f in files])
        assert _rows(got, schema.names) == _rows(oracle[name], schema.names), name


def test_wide_manifest_skips_only_unchanged_wide_phase(workdir, oracle_small, executions):
    """The wide phase is skipped, with no execution, only when its triple
    files and its output files are the ones it last recorded; a lost
    output file, another out_dir and a re-run partition each recompute
    it, and every output equals the oracle."""
    ckpt, paths = workdir["ckpt"], workdir["paths"]

    def run(**kw):
        before = len(executions)
        res = kg.run_partitioned(paths, ckpt, num_partitions=3, **kw)
        _assert_graph_is_oracle(res["out_dir"], oracle_small)
        return res, len(executions) - before

    first, n = run()
    assert (first["wide"], n) == ("no manifest", 2)
    record = os.path.join(ckpt, "manifest", "wide.json")
    assert os.path.getsize(record) < 1024
    assert json.load(open(record))["counts"] == {
        "entities": first["entities"],
        "edges": first["edges"],
    }

    res, n = run()
    assert (res["wide"], n, res["ran"]) == ("skipped", 0, [])
    assert (res["entities"], res["edges"]) == (first["entities"], first["edges"])

    edge_file = sorted(os.listdir(os.path.join(first["out_dir"], "edges")))[0]
    os.remove(os.path.join(first["out_dir"], "edges", edge_file))
    res, n = run()
    assert (res["wide"], n) == ("outputs changed", 1)

    other = os.path.join(os.path.dirname(ckpt), "other_out")
    res, n = run(out_dir=other)
    assert (res["wide"], n, res["out_dir"]) == ("outputs changed", 1, other)

    os.remove(os.path.join(ckpt, "manifest", "part-0001.json"))
    res, n = run(out_dir=other)
    assert (res["wide"], n, res["ran"]) == ("triples changed", 2, [1])

    res, n = run(out_dir=other)
    assert (res["wide"], n) == ("skipped", 0)


def test_kill_after_wide_renames_before_record(workdir, oracle_small, executions, monkeypatch):
    """A kill after the wide phase's renames but before ``wide.json`` is
    rewritten leaves no record (the old one is deleted before the
    write): the rerun recomputes the wide phase, and its outputs hold
    the oracle's rows, none twice."""
    from transner_ray.state.checkpoint import CheckpointStore

    first = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    edges_dir = os.path.join(first["out_dir"], "edges")
    os.remove(os.path.join(edges_dir, sorted(os.listdir(edges_dir))[0]))

    class Killed(Exception):
        pass

    def killed(self, *args):
        raise Killed

    write = CheckpointStore.write_wide_manifest
    monkeypatch.setattr(CheckpointStore, "write_wide_manifest", killed)
    with pytest.raises(Killed):
        kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    monkeypatch.setattr(CheckpointStore, "write_wide_manifest", write)
    assert not os.path.exists(os.path.join(workdir["ckpt"], "manifest", "wide.json"))
    assert os.listdir(edges_dir)

    before = len(executions)
    res = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert (res["wide"], len(executions) - before, res["ran"]) == ("no manifest", 1, [])
    _assert_graph_is_oracle(res["out_dir"], oracle_small)


def test_dirty_pages_dropped_through_the_job(tmp_path):
    """A shard mixing clean pages with a null html, empty bytes, invalid
    UTF-8 and a truncated container: the job drops the dirty rows, and
    its triples, mentions, entities and edges equal the oracle over the
    clean rows, with manifest row counts to match."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from transner_ray import synth
    from transner_ray.oracle import run_oracle
    from transner_ray.schemas import MENTIONS, PAGES, TRIPLES

    clean = synth.generate_pages_table(seed=42, n_docs=12).to_pylist()
    html = clean[0]["html"]
    body = html.index(b"<p>") + 3
    dirty = [
        dict(clean[1], url="https://dirty.example/null", html=None),
        dict(clean[2], url="https://dirty.example/empty", html=b""),
        dict(clean[3], url="https://dirty.example/utf8", html=html[:body] + b"\xff\xfe" + html[body:]),
        dict(clean[4], url="https://dirty.example/truncated", html=html[: len(html) // 2]),
    ]
    rows = clean[:3] + dirty[:2] + clean[3:8] + dirty[2:] + clean[8:]
    shard = str(tmp_path / "pages-0000.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=PAGES), shard)

    ckpt = str(tmp_path / "ckpt")
    res = kg.run_partitioned([shard], ckpt, num_partitions=1)
    assert res["ran"] == [0]
    oracle = run_oracle(clean)
    mentions = _committed(ckpt, "mentions")
    triples = _committed(ckpt, "triples")
    assert _rows(mentions, MENTIONS.names) == _rows(oracle["mentions"], MENTIONS.names)
    assert _rows(triples, TRIPLES.names) == _rows(oracle["triples"], TRIPLES.names)
    _assert_graph_is_oracle(res["out_dir"], oracle)
    manifest = json.load(open(os.path.join(ckpt, "manifest", "part-0000.json")))
    assert manifest["rows"] == {"mentions": len(oracle["mentions"]), "triples": len(oracle["triples"])}


def test_partition_outputs_equal_kernels_and_oracle(workdir, oracle_small):
    """The committed mentions and triples are the stage kernels' output
    over the spine collected into this process, and the mentions are
    the oracle's."""
    import pyarrow as pa

    import ray

    from transner_ray.schemas import MENTIONS
    from transner_ray.stages.detect import explode_mentions_batch
    from transner_ray.stages.graph import LINKED_TRIPLES, link_triples_batch
    from transner_ray.stages.triples import triples_batch

    kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    mentions = _committed(workdir["ckpt"], "mentions")
    triples = _committed(workdir["ckpt"], "triples")
    assert mentions.schema.equals(MENTIONS) and triples.schema.equals(LINKED_TRIPLES)

    sm = kg.sentences_dataset(kg.read_pages(workdir["paths"]))
    sm = pa.concat_tables(ray.get(sm.to_arrow_refs()))
    assert _rows(mentions, MENTIONS.names) == _rows(explode_mentions_batch(sm), MENTIONS.names)
    want = link_triples_batch(triples_batch(sm))
    assert _rows(triples, LINKED_TRIPLES.names) == _rows(want, LINKED_TRIPLES.names)
    assert _rows(mentions, MENTIONS.names) == _rows(oracle_small["mentions"], MENTIONS.names)


def test_sink_retried_write_overwrites_its_file(tmp_path, pages_small):
    """A write task retried under the same task index rewrites its own
    file per output instead of adding a second one."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data._internal.execution.interfaces import TaskContext

    from transner_ray.stages.detect import make_detect_fn
    from transner_ray.stages.extract import extract_text_batch
    from transner_ray.stages.graph import untagged
    from transner_ray.stages.split import split_sentences_batch

    pages = pa.concat_tables([pq.read_table(p, columns=kg.PAGES_COLUMNS) for p in pages_small])
    sm = make_detect_fn()(split_sentences_batch(extract_text_batch(pages)))
    rows = kg.partition_rows_batch(sm, write_mentions=True)
    dirs = [str(tmp_path / stage) for stage in kg.PARTITION_OUTPUTS]
    sink = kg.TaggedSink({0: dirs}, list(kg.PARTITION_OUTPUTS.values()))
    sink.on_write_start()
    ctx = TaskContext(task_idx=7, op_name="Write")
    for _ in range(2):
        sink.write([rows.slice(0, 500), rows.slice(500)], ctx)
    for kind, (d, schema) in enumerate(zip(dirs, kg.PARTITION_OUTPUTS.values())):
        files = os.listdir(d)
        assert files == [f"{sink.uuid}_000007.parquet"]
        want = untagged(rows, kind, schema)
        assert want.num_rows > 0
        assert pq.read_table(os.path.join(d, files[0])).equals(want)


def test_partitions_without_sentences_or_triples_commit(tmp_path):
    """A partition with no sentences, and one whose sentences yield
    mentions but no triple, still commit their stage dirs with 0-row
    manifests, and the wide phase over all three equals the oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from transner_ray import synth
    from transner_ray.oracle import run_oracle
    from transner_ray.schemas import PAGES

    pages_dir = tmp_path / "pages"
    (full,) = synth.write_pages(str(pages_dir), seed=42, n_docs=20, num_shards=1)
    empty = str(pages_dir / "pages-0001.parquet")
    pq.write_table(PAGES.empty_table(), empty)
    url = "https://docs.example/00000001"
    no_triples = str(pages_dir / "pages-0002.parquet")
    text = "Document number 123456789 filed. Nothing here at all."
    pq.write_table(
        pa.Table.from_pylist(
            [{"url": url, "warc_ts": 0, "html": synth.wrap_html(url, text), "text": text, "lang": "en"}],
            schema=PAGES,
        ),
        no_triples,
    )
    paths = [full, empty, no_triples]
    ckpt = str(tmp_path / "ckpt")
    res = kg.run_partitioned(paths, ckpt, num_partitions=3)
    assert res["ran"] == [0, 1, 2]
    rows = [json.load(open(os.path.join(ckpt, "manifest", f"part-{p:04d}.json")))["rows"] for p in range(3)]
    assert rows[1] == {"mentions": 0, "triples": 0}
    assert rows[2]["triples"] == 0 and rows[2]["mentions"] > 0
    for stage in ("mentions", "triples"):
        for pid in (1, 2):
            assert os.path.isdir(os.path.join(ckpt, stage, f"part={pid:04d}"))

    oracle = run_oracle([r for p in paths for r in pq.read_table(p).to_pylist()])
    edges = _edges(res["out_dir"])
    assert _rows(edges.to_dict("records"), ["subj_id", "pred", "obj_id", "weight"]) == _rows(
        oracle["edges"], ["subj_id", "pred", "obj_id", "weight"]
    )
    assert res["entities"] == len(oracle["entities"])


def test_kill_between_sink_write_and_commit(workdir, oracle_small, monkeypatch):
    """A kill after the sink has filled partition 1's tmp dirs but before
    they are committed: the rerun gives the oracle's rows, none twice."""
    from transner_ray.schemas import MENTIONS, TRIPLES
    from transner_ray.state.checkpoint import CheckpointStore

    class Killed(Exception):
        pass

    commit = CheckpointStore.commit_stage_dir

    def killed_at_part_1(self, stage, partition):
        if partition == 1:
            raise Killed
        commit(self, stage, partition)

    monkeypatch.setattr(CheckpointStore, "commit_stage_dir", killed_at_part_1)
    with pytest.raises(Killed):
        kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    monkeypatch.undo()
    store = CheckpointStore(workdir["ckpt"])
    assert not store.is_complete(1)
    for stage in kg.PARTITION_OUTPUTS:
        assert os.listdir(store.tmp_stage_dir(stage, 1))

    res = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert res["ran"] == [1, 2] and res["skipped"] == [0]
    mentions = _committed(workdir["ckpt"], "mentions")
    triples = _committed(workdir["ckpt"], "triples")
    assert _rows(mentions, MENTIONS.names) == _rows(oracle_small["mentions"], MENTIONS.names)
    assert _rows(triples, TRIPLES.names) == _rows(oracle_small["triples"], TRIPLES.names)
    want = _rows(oracle_small["edges"], ["subj_id", "pred", "obj_id", "weight"])
    assert _rows(_edges(res["out_dir"]).to_dict("records"), ["subj_id", "pred", "obj_id", "weight"]) == want


# ---- the shared narrow execution: routing, inputs and kills ----------------


def _pages(files):
    """The pages rows of ``files``, in order."""
    import pyarrow.parquet as pq

    return [r for f in files for r in pq.read_table(f).to_pylist()]


def _assert_partitions_are_oracle(ckpt, parts):
    """Partition i's committed mentions and triples are the oracle's over
    its own files ``parts[i]``, none twice, and its manifest's row counts
    are its footer counts."""
    import glob

    import pyarrow.parquet as pq

    from transner_ray.oracle import run_oracle
    from transner_ray.schemas import MENTIONS, TRIPLES
    from transner_ray.state.checkpoint import CheckpointStore

    store = CheckpointStore(ckpt)
    assert store.completed_partitions() == list(range(len(parts)))
    for pid, files in enumerate(parts):
        oracle = run_oracle(_pages(files))
        manifest = store.load_manifest(pid)
        assert manifest["input_files"] == files
        for stage, schema in (("mentions", MENTIONS), ("triples", TRIPLES)):
            d = store.stage_dir(stage, pid)
            tables = [pq.read_table(f) for f in glob.glob(os.path.join(d, "*.parquet"))]
            assert manifest["rows"][stage] == sum(t.num_rows for t in tables)
            got = [r for t in tables for r in t.to_pylist()]
            assert _rows(got, schema.names) == _rows(oracle[stage], schema.names), (stage, pid)


def test_same_url_in_two_partitions_files(tmp_path):
    """A page whose url sits in two partitions' files goes to both: a row
    takes the partition of the file it was read from, never of its url.
    Rerunning either partition alone gives the oracle's outputs again."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from transner_ray import synth
    from transner_ray.oracle import run_oracle
    from transner_ray.schemas import PAGES

    rows = synth.generate_pages_table(seed=7, n_docs=8).to_pylist()
    shared = rows[0]
    assert run_oracle([shared])["triples"]
    parts = [[str(tmp_path / "pages-0000.parquet")], [str(tmp_path / "pages-0001.parquet")]]
    pq.write_table(pa.Table.from_pylist(rows[:4], schema=PAGES), parts[0][0])
    pq.write_table(pa.Table.from_pylist([*rows[4:], shared], schema=PAGES), parts[1][0])
    paths = [f for files in parts for f in files]
    oracle = run_oracle(_pages(paths))
    ckpt = str(tmp_path / "ckpt")

    res = kg.run_partitioned(paths, ckpt, num_partitions=2)
    assert res["ran"] == [0, 1]
    _assert_partitions_are_oracle(ckpt, parts)
    _assert_graph_is_oracle(res["out_dir"], oracle)
    for pid in (0, 1):
        os.remove(os.path.join(ckpt, "manifest", f"part-{pid:04d}.json"))
        res = kg.run_partitioned(paths, ckpt, num_partitions=2)
        assert (res["ran"], res["wide"]) == ([pid], "triples changed")
        _assert_partitions_are_oracle(ckpt, parts)
        _assert_graph_is_oracle(res["out_dir"], oracle)


def test_seventy_partitions_share_one_narrow_execution(tmp_path, executions, monkeypatch):
    """70 one-doc partitions, 140 stage dirs, in ONE narrow execution:
    every row reaches its own partition's dirs, and every manifest's row
    counts are its footers."""
    from transner_ray import synth
    from transner_ray.oracle import run_oracle

    before_wide = []
    write_graph = kg.write_graph

    def wide(linked, out_dir):
        before_wide.append(len(executions))
        return write_graph(linked, out_dir)

    monkeypatch.setattr(kg, "write_graph", wide)
    paths = sorted(synth.write_pages(str(tmp_path / "pages"), seed=42, n_docs=70, num_shards=70))
    res = kg.run_partitioned(paths, str(tmp_path / "ckpt"), num_partitions=70)
    assert res["ran"] == list(range(70)) and before_wide == [1]
    _assert_partitions_are_oracle(str(tmp_path / "ckpt"), [[p] for p in paths])
    _assert_graph_is_oracle(res["out_dir"], run_oracle(_pages(paths)))


def test_relative_input_paths(tmp_path, pages_small, oracle_small):
    """Input files named relative to the cwd: Ray hands each row's path
    back as given, so every row still finds its partition."""
    from transner_ray.state.checkpoint import plan_partitions

    paths = [os.path.relpath(p) for p in pages_small]
    assert not any(os.path.isabs(p) for p in paths)
    ckpt = str(tmp_path / "ckpt")
    res = kg.run_partitioned(paths, ckpt, num_partitions=2)
    assert res["ran"] == [0, 1]
    _assert_partitions_are_oracle(ckpt, plan_partitions(paths, 2))
    _assert_graph_is_oracle(res["out_dir"], oracle_small)
    rerun = kg.run_partitioned(paths, ckpt, num_partitions=2)
    assert (rerun["skipped"], rerun["wide"]) == ([0, 1], "skipped")


def test_relative_input_paths_after_chdir(tmp_path, pages_small, oracle_small, monkeypatch):
    """Relative input and checkpoint paths named from a cwd the driver
    moved to after ray.init: Ray's workers keep the old cwd, so every
    path a worker opens is resolved first. The job finishes (the alarm
    turns a hang into a failure), equals the oracle, and its manifests
    record the paths as given. Two strings that name one file are a
    duplicate."""
    import signal

    from transner_ray.state.checkpoint import plan_partitions

    def timeout(signum, frame):
        raise TimeoutError("run_partitioned took over 120 s")

    monkeypatch.chdir(tmp_path)
    paths = [os.path.relpath(p) for p in pages_small]
    ckpt = "ckpt"
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        for twice in (os.path.join(".", paths[0]), pages_small[0]):
            assert twice != paths[0]
            with pytest.raises(ValueError):
                kg.run_partitioned([*paths, twice], ckpt, num_partitions=3)
        res = kg.run_partitioned(paths, ckpt, num_partitions=2)
        rerun = kg.run_partitioned(paths, ckpt, num_partitions=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert res["ran"] == [0, 1]
    assert (rerun["skipped"], rerun["wide"]) == ([0, 1], "skipped")
    _assert_partitions_are_oracle(ckpt, plan_partitions(paths, 2))
    _assert_graph_is_oracle(res["out_dir"], oracle_small)


def test_duplicated_input_path_rejected(workdir):
    """A file listed twice would be read into two partitions; the job
    refuses it before any work."""
    paths = workdir["paths"]
    with pytest.raises(ValueError):
        kg.run_partitioned([*paths, paths[0]], workdir["ckpt"], num_partitions=3)
    assert not os.path.exists(workdir["ckpt"])


def test_kill_at_first_commit_reruns_the_run(workdir, oracle_small, monkeypatch):
    """A kill at the first commit after the shared execution leaves no
    partition of the run complete: the rerun runs all of them, and its
    outputs hold the oracle's rows, none twice."""
    from transner_ray.state.checkpoint import CheckpointStore

    class Killed(Exception):
        pass

    def killed(self, stage, partition):
        raise Killed

    commit = CheckpointStore.commit_stage_dir
    monkeypatch.setattr(CheckpointStore, "commit_stage_dir", killed)
    with pytest.raises(Killed):
        kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    monkeypatch.setattr(CheckpointStore, "commit_stage_dir", commit)
    assert CheckpointStore(workdir["ckpt"]).completed_partitions() == []

    res = kg.run_partitioned(workdir["paths"], workdir["ckpt"], num_partitions=3)
    assert res["ran"] == [0, 1, 2] and res["skipped"] == []
    _assert_partitions_are_oracle(workdir["ckpt"], [[p] for p in sorted(workdir["paths"])])
    _assert_graph_is_oracle(res["out_dir"], oracle_small)


def test_zero_row_file_through_the_shared_read(tmp_path):
    """A zero-row parquet file read beside two shards: its partition
    commits with 0-row manifests, a rerun skips all three partitions, and
    the outputs equal the oracle."""
    import pyarrow.parquet as pq

    from transner_ray import synth
    from transner_ray.oracle import run_oracle
    from transner_ray.schemas import PAGES
    from transner_ray.state.checkpoint import plan_partitions

    pages_dir = tmp_path / "pages"
    shards = synth.write_pages(str(pages_dir), seed=3, n_docs=16, num_shards=2)
    empty = str(pages_dir / "pages-0001-empty.parquet")  # sorts between the shards
    pq.write_table(PAGES.empty_table(), empty)
    paths = [*shards, empty]
    parts = plan_partitions(paths, 3)
    assert parts[1] == [empty]
    ckpt = str(tmp_path / "ckpt")

    res = kg.run_partitioned(paths, ckpt, num_partitions=3)
    assert res["ran"] == [0, 1, 2]
    manifest = json.load(open(os.path.join(ckpt, "manifest", "part-0001.json")))
    assert manifest["rows"] == {"mentions": 0, "triples": 0}
    _assert_partitions_are_oracle(ckpt, parts)
    oracle = run_oracle(_pages(paths))
    _assert_graph_is_oracle(res["out_dir"], oracle)

    rerun = kg.run_partitioned(paths, ckpt, num_partitions=3)
    assert (rerun["ran"], rerun["skipped"], rerun["wide"]) == ([], [0, 1, 2], "skipped")
    _assert_graph_is_oracle(rerun["out_dir"], oracle)


def test_run_entry_point_in_process(workdir, tmp_path, capsys):
    """``python -m transner_ray.run`` (what ``ray job submit`` runs),
    called in-process on the pytest session's Ray: its printed result
    equals run_partitioned's, a rerun skips every partition, a glob
    that matches nothing returns 2, and the caller's session survives."""
    import ray

    from transner_ray.run import main

    glob_ = os.path.join(os.path.dirname(workdir["paths"][0]), "pages-*.parquet")
    args = ["--input", glob_, "--ckpt-dir", workdir["ckpt"], "--num-partitions", "2"]

    def run(argv):
        code = main(argv)
        assert ray.is_initialized()
        return code, capsys.readouterr().out.strip().splitlines()

    code, out = run(args)
    assert code == 0
    got = json.loads(out[-1])
    want = kg.run_partitioned(workdir["paths"], str(tmp_path / "direct"), num_partitions=2)
    assert got["ran"] == [0, 1] and got["skipped"] == []
    assert (got["entities"], got["edges"]) == (want["entities"], want["edges"])
    pd.testing.assert_frame_equal(_edges(got["out_dir"]), _edges(want["out_dir"]))

    code, out = run(args)
    rerun = json.loads(out[-1])
    assert code == 0 and rerun["ran"] == [] and rerun["skipped"] == [0, 1]
    assert rerun["wide"] == "skipped"
    assert (rerun["entities"], rerun["edges"]) == (got["entities"], got["edges"])

    missing = ["--input", str(tmp_path / "none-*.parquet"), "--ckpt-dir", workdir["ckpt"]]
    assert run(missing)[0] == 2


def test_every_written_file_is_zstd(tmp_path, pages_small, oracle_small):
    """Every column chunk the job writes is zstd: the triples and
    mentions under ckpt_dir and the entities and edges under out_dir,
    after a run and a no-change rerun, with the oracle's rows. A
    checkpoint holding a partition's triples in snappy, as an older job
    wrote them, still skips every partition, and the wide phase reads
    the mixed codecs back to the oracle's outputs."""
    import glob

    import pyarrow.parquet as pq

    from transner_ray.state.checkpoint import CheckpointStore

    ckpt = str(tmp_path / "ckpt")
    first = kg.run_partitioned(pages_small, ckpt, num_partitions=3, write_mentions=True)
    rerun = kg.run_partitioned(pages_small, ckpt, num_partitions=3, write_mentions=True)
    assert (rerun["ran"], rerun["wide"]) == ([], "skipped")
    store = CheckpointStore(ckpt)
    dirs = [store.stage_dir(stage, pid) for stage in ("triples", "mentions") for pid in range(3)]
    dirs += [os.path.join(first["out_dir"], name) for name in ("entities", "edges")]
    for d in dirs:
        files = glob.glob(os.path.join(d, "*.parquet"))
        assert files, d
        for f in files:
            meta = pq.read_metadata(f)
            codecs = {
                meta.row_group(g).column(c).compression
                for g in range(meta.num_row_groups)
                for c in range(meta.num_columns)
            }
            assert codecs == {"ZSTD"}, f
    _assert_partitions_are_oracle(ckpt, [[p] for p in sorted(pages_small)])
    _assert_graph_is_oracle(rerun["out_dir"], oracle_small)

    for f in glob.glob(os.path.join(store.stage_dir("triples", 0), "*.parquet")):
        pq.write_table(pq.read_table(f), f, compression="snappy")
    mixed = kg.run_partitioned(pages_small, ckpt, num_partitions=3, write_mentions=True)
    assert (mixed["skipped"], mixed["wide"]) == ([0, 1, 2], "triples changed")
    _assert_graph_is_oracle(mixed["out_dir"], oracle_small)
