"""The flagship KG-construction pipeline (SURVEY.md §3.4).

    read_parquet(pages) → extract (E) → split (S) → detect (N, actor
    pool) → [explode → mentions] / [triples (T) → link (L)] →
    canonicalize (C) + edges (G): union-tagged combiner partials →
    sort('key') → one Arrow reduce per block → entities / edges

Narrow stages are all ``map_batches`` over Arrow batches. The job
shuffles once: entity and edge partials both key on an entity id
(``entity_id``, ``subj_id``), so one sort on that key co-locates both
kinds of group and one vectorized call per sorted block reduces them
(stages/graph.py). The same sort leaves the edges globally sorted by
``subj_id``. The per-block combiner collapses the Zipf head before the
shuffle (SURVEY.md §4.2 skew notes).

Two run modes:

* lazy composition: the ``*_dataset`` functions below, composed into
  every output by ``builder.build_kg_pipeline(pages_ds, cfg)`` — used
  by queries, tests and single-pass benches. Each consumed output
  re-executes the shared spine.
* ``run_partitioned(...)``: the resumable job — input files grouped
  into partitions, each written as per-partition triples/mentions
  parquet with a lineage manifest (state/checkpoint.py). The partition
  is the unit of skip, invalidation, manifest and output layout, not of
  execution: every pending partition of a run shares ONE Ray Data
  execution. One read covers all their files, each row carries the
  partition of the file it was read from, one map derives every output
  as union-tagged rows, and a sink (``TaggedSink``) routes each row to
  its partition's stage dir; the partitions then commit one by one.
  The wide phase (entities/edges) then runs over all partition outputs,
  also as one execution through the same sink, and is recorded in a
  wide manifest. A killed run re-runs the partitions it had not
  committed, never one an earlier run committed; a rerun whose triples
  and outputs are unchanged runs no Ray Data execution at all.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.block import BlockAccessor

from ..gazetteers import default_gazetteers
from ..schemas import EDGES, ENTITIES, MENTIONS, PARTITION
from ..stages.detect import MentionDetector, explode_mentions_batch
from ..stages.extract import extract_text_batch
from ..stages.graph import (
    LINKED_TRIPLES,
    edge_rows,
    entity_rows,
    graph_partials_batch,
    link_triples_batch,
    reduce_graph_block,
    run_offsets,
    strip_tag,
    tagged,
)
from ..stages.split import split_sentences_batch
from ..stages.triples import triples_batch
from ..state.checkpoint import (
    CheckpointStore,
    PartitionManifest,
    digest_files,
    fingerprint_files,
    plan_partitions,
    timed,
)

PAGES_COLUMNS = ["url", "html", "lang"]  # prune at the read: no warc_ts/text


def read_pages(paths: str | list[str], include_paths: bool = False) -> rd.Dataset:
    """PAGES_COLUMNS of ``paths``; ``include_paths=True`` adds Ray's
    ``path`` column, the file each row was read from as given."""
    return rd.read_parquet(paths, columns=PAGES_COLUMNS, include_paths=include_paths)


def sentences_dataset(
    pages: rd.Dataset,
    detect_concurrency: int | tuple[int, int] | None = None,
    detect_batch_size: int = 256,
    use_actor_pool: bool = False,
    gazetteers=None,
    tagger: str = "rule",
    model_path: str | None = None,
    detect_num_gpus: float = 0,
    repartition_before_detect: int | None = None,
) -> rd.Dataset:
    """pages → nested sentence-mention rows (the narrow spine).

    Default is the TASK-based detect stage (worker-process-cached
    state): Ray fuses extract→split→detect, and the maps and write after
    them, into one map operator behind the read operator, e.g.
    ``TaskPoolMapOperator[ReadParquet] ->
    TaskPoolMapOperator[MapBatches(path_partitions_batch)->…->Write]``
    in ``run_partitioned``. Detect's ``batch_size`` sets the fused
    operator's minimum rows per input bundle, and Ray does not fuse a
    read, which may change the row count, into an operator with such a
    minimum. ``detect_batch_size`` therefore counts PAGES per fused
    task — sized so a task is ~0.5-1s of work and the task count far
    exceeds the CPU count. ``use_actor_pool=True`` switches to the
    ``MentionDetector`` actor pool (the shape the BertTagger GPU stage
    uses: model load amortized across batches, ``concurrency`` ×
    ``num_gpus`` sized to the cluster). ``detect_concurrency`` sizes
    only that actor pool; the task path does not read it. On a GPU
    cluster pass ``tagger='bert', model_path=..., detect_num_gpus=1`` —
    the actor pool is forced on and each actor loads the model once
    (docs/SCALE.md "GPU on-ramp"). ``gazetteers`` overrides the
    default lookup state (custom religion/city sets — also how the
    SQL-checked gazetteer-mention gate injects a corpus-vocabulary
    set).

    ``repartition_before_detect`` inserts an EXPLICIT exchange between
    the CPU parse stages and the (GPU) detect stage. Ray Data's
    streaming executor normally makes this unnecessary — blocks hand
    off dynamically and backpressure matches the parse rate to the
    detect rate — so the default is None; set it when the parse output
    is pathologically skewed (a few huge pages → a few huge blocks
    starving most detector actors) or when detect actors are pinned to
    a small GPU node group and need more, smaller blocks to stay
    saturated.
    """
    extracted = pages.map_batches(
        extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return sentences_from_extracted(
        extracted,
        detect_concurrency=detect_concurrency,
        detect_batch_size=detect_batch_size,
        use_actor_pool=use_actor_pool,
        gazetteers=gazetteers,
        tagger=tagger,
        model_path=model_path,
        detect_num_gpus=detect_num_gpus,
        repartition_before_detect=repartition_before_detect,
    )


def sentences_from_extracted(
    extracted: rd.Dataset,
    detect_concurrency: int | tuple[int, int] | None = None,
    detect_batch_size: int = 256,
    use_actor_pool: bool = False,
    gazetteers=None,
    tagger: str = "rule",
    model_path: str | None = None,
    detect_num_gpus: float = 0,
    repartition_before_detect: int | None = None,
) -> rd.Dataset:
    """The split → detect tail of :func:`sentences_dataset`, entered at
    the post-stage-E boundary (``EXTRACTED`` rows: url/text/lang).
    This is where text-native sources plug in — JSONL/WET webtext dumps
    (``sources.jsonl.read_extracted_jsonl``) carry pre-extracted text
    and never had an ``html`` column to drop."""
    gz_ref = ray.put(gazetteers if gazetteers is not None else default_gazetteers())
    base = extracted.map_batches(split_sentences_batch, batch_format="pyarrow")
    if repartition_before_detect:
        base = base.repartition(repartition_before_detect)
    if tagger != "rule":
        # a model tagger in the task path would reload weights on every
        # worker-cache miss; force the amortizing shape
        use_actor_pool = True
    if use_actor_pool:
        kwargs: dict = {"gazetteers_ref": gz_ref}
        if tagger != "rule":
            kwargs.update(tagger=tagger, model_path=model_path)
        return base.map_batches(
            MentionDetector,
            batch_format="pyarrow",
            batch_size=detect_batch_size,
            concurrency=detect_concurrency or (1, 8),
            fn_constructor_kwargs=kwargs,
            **({"num_gpus": detect_num_gpus} if detect_num_gpus else {}),
        )
    from ..stages.detect import make_detect_fn

    return base.map_batches(
        make_detect_fn(gazetteers_ref=gz_ref),
        batch_format="pyarrow",
        batch_size=detect_batch_size,
    )


def mentions_dataset(sent_mentions: rd.Dataset) -> rd.Dataset:
    return sent_mentions.map_batches(explode_mentions_batch, batch_format="pyarrow")


def linked_triples_dataset(
    sent_mentions: rd.Dataset, link_mode: str = "alias"
) -> rd.Dataset:
    """Triples + entity linking. ``link_mode='alias'`` is the exact
    broadcast alias-table path; ``'embedding'`` adds the char-ngram
    embedding fallback for unknown surfaces (transner_ray.linking)."""
    triples = sent_mentions.map_batches(triples_batch, batch_format="pyarrow")
    if link_mode == "embedding":
        from ..linking import EmbeddingLinker, make_embedding_link_batch

        linker_ref = ray.put(EmbeddingLinker())
        return triples.map_batches(
            make_embedding_link_batch(linker_ref), batch_format="pyarrow"
        )
    return triples.map_batches(link_triples_batch, batch_format="pyarrow")


def graph_dataset(linked: rd.Dataset) -> rd.Dataset:
    """Canonicalization + edge weighting in ONE shuffle: union-tagged
    combiner partials → ``sort('key')`` → one Arrow reduce per block,
    giving GRAPH rows (entities and edges tagged by ``kind``). A sort
    never splits a key across output blocks and ``batch_size=None``
    hands the reduce whole blocks — the guarantee
    ``GroupedData.map_groups`` builds on — so every group is reduced
    exactly once, in one Python call per block, never one per key.
    The sort also orders the edges by subj_id (their ``key``): Ray runs
    a plan with a Sort under ``preserve_order``, so blocks keep its order."""
    return (
        linked.map_batches(graph_partials_batch, batch_format="pyarrow")
        .sort("key")
        .map_batches(reduce_graph_block, batch_format="pyarrow", batch_size=None)
    )


def entities_dataset(linked: rd.Dataset) -> rd.Dataset:
    """Canonical entities (ENTITIES) of linked triples."""
    return graph_dataset(linked).map_batches(entity_rows, batch_format="pyarrow")


def edges_dataset(linked: rd.Dataset) -> rd.Dataset:
    """Weighted edges with capped provenance (EDGES), sorted by subj_id."""
    return graph_dataset(linked).map_batches(edge_rows, batch_format="pyarrow")


WIDE_ROWS_PER_BLOCK = 1 << 17


def read_triples(triple_files: list[str]) -> rd.Dataset:
    """Linked triples from parquet in one block per WIDE_ROWS_PER_BLOCK
    footer rows, at most one per file. The sort in graph_dataset has a
    reducer per input block, so a block per triple file (one per detect
    task) is a task storm at hundreds of files."""
    n_rows = sum(pq.read_metadata(f).num_rows for f in triple_files)
    blocks = min(len(triple_files), max(1, -(-n_rows // WIDE_ROWS_PER_BLOCK)))
    files = [os.path.abspath(f) for f in triple_files]  # workers keep their own cwd
    return rd.read_parquet(files, override_num_blocks=blocks)


GRAPH_OUTPUTS = {"entities": ENTITIES, "edges": EDGES}  # in GRAPH's tag order


def _graph_files(out_dir: str) -> list[str]:
    """The entity and edge parquet files under ``out_dir``, by absolute
    path (the wide manifest's output record)."""
    out_dir = os.path.abspath(out_dir)
    return [f for name in GRAPH_OUTPUTS for f in glob.glob(os.path.join(out_dir, name, "*.parquet"))]


def write_graph(linked: rd.Dataset, out_dir: str) -> dict[str, int]:
    """Entities and edges of ``linked`` under ``out_dir/{entities,edges}``
    in ONE Ray Data execution: :class:`TaggedSink` routes the GRAPH rows
    to a tmp dir per output, each then renamed into place (a rerun
    replaces, never accumulates); edge files in name order are sorted
    by subj_id. Returns the footer row counts."""
    tmps = [os.path.join(out_dir, name + ".tmp") for name in GRAPH_OUTPUTS]
    for tmp in tmps:
        shutil.rmtree(tmp, ignore_errors=True)
    graph_dataset(linked).write_datasink(TaggedSink({0: tmps}, list(GRAPH_OUTPUTS.values())))
    counts = {}
    for name, tmp in zip(GRAPH_OUTPUTS, tmps):
        counts[name] = _parquet_rows(tmp)
        final = os.path.join(out_dir, name)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    return counts


# --------------------------------------------------------------------------
# resumable partitioned run
# --------------------------------------------------------------------------

# The stage outputs a partition writes, in tag order: partition_rows_batch
# tags the rows of the i-th with kind=i.
PARTITION_OUTPUTS = {"triples": LINKED_TRIPLES, "mentions": MENTIONS}


def _union(schemas) -> pa.Schema:
    """The ``kind`` tag plus every field of ``schemas``; a field shared
    by several has one type in all of them."""
    fields = {"kind": pa.field("kind", pa.int8())}
    for schema in schemas:
        for f in schema:
            assert fields.setdefault(f.name, f).type == f.type, f.name
    return pa.schema(list(fields.values()))


PARTITION_ROWS = _union(PARTITION_OUTPUTS.values())


def partition_rows_batch(batch: pa.Table, write_mentions: bool) -> pa.Table:
    """Nested sentence-mention rows → every output of the partition as
    tagged PARTITION_ROWS: the linked triples, and the exploded mentions
    when ``write_mentions``. Fused after the spine, so one execution
    derives all of them and nothing is re-read. A batch with a
    ``partition`` column is derived one run of equal partitions at a
    time, and every output row carries its run's partition."""
    if PARTITION.name not in batch.column_names or not batch.num_rows:
        return _partition_rows(batch, write_mentions)
    bounds = run_offsets(batch, [PARTITION.name])
    pids = batch.column(PARTITION.name)
    tables = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = _partition_rows(batch.slice(lo, hi - lo), write_mentions)
        pid = pa.repeat(pids[lo], rows.num_rows)
        tables.append(rows.append_column(PARTITION, pid))
    return pa.concat_tables(tables)


def _partition_rows(batch: pa.Table, write_mentions: bool) -> pa.Table:
    outputs = [link_triples_batch(triples_batch(batch))]
    if write_mentions:
        outputs.append(explode_mentions_batch(batch))
    return pa.concat_tables(
        [tagged(kind, t, PARTITION_ROWS) for kind, t in enumerate(outputs)]
    )


def path_partitions_batch(batch: pa.Table, partition_of: dict[str, int]) -> pa.Table:
    """The read's ``path`` column replaced by the ``partition`` of each
    row's file, looked up once per distinct path of the batch."""
    paths = batch.column("path")
    distinct = pc.unique(paths)
    pids = pa.array([partition_of[p] for p in distinct.to_pylist()], PARTITION.type)
    rows = batch.drop_columns(["path"])
    return rows.append_column(PARTITION, pc.take(pids, pc.index_in(paths, value_set=distinct)))


class TaggedSink(rd.Datasink):
    """Routes union-tagged rows by partition and ``kind``: the rows of
    partition p tagged i go to ``dirs[p][i]`` as ``schemas[i]``; rows
    without a ``partition`` column are partition 0. A write task sorts
    its rows by (partition, kind) once, stably, and writes each run as
    one parquet file named by the sink's id and the task index, so a
    retried task overwrites its own files and files sort in task order.
    An output with no rows gets no file; every dir is made up front, so
    an empty output still commits.

    Every file is zstd-compressed at pyarrow's default level: about a
    quarter fewer bytes than snappy for the job's triples, mentions,
    entities and edges, for about 1 % more job CPU. The codec is
    recorded per column chunk, so a checkpoint written with snappy
    stays valid (its partitions and wide phase skip as before) and one
    that mixes snappy and zstd files reads back as one dataset."""

    def __init__(self, dirs: dict[int, list[str]], schemas: list[pa.Schema]):
        # resolved here, on the driver: workers keep the cwd of ray.init
        self.dirs = {pid: [os.path.abspath(d) for d in ds] for pid, ds in dirs.items()}
        self.schemas = schemas
        self.uuid = uuid.uuid4().hex

    def on_write_start(self) -> None:
        for dirs in self.dirs.values():
            for d in dirs:
                os.makedirs(d, exist_ok=True)

    def write(self, blocks, ctx) -> None:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        # an empty upstream block skips the map UDFs and keeps its own columns
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return
        rows = pa.concat_tables(tables)
        partitioned = PARTITION.name in rows.column_names
        keys = [PARTITION.name, "kind"] if partitioned else ["kind"]
        rows = rows.take(pc.sort_indices(rows, [(k, "ascending") for k in keys]))
        bounds = run_offsets(rows, keys)
        name = f"{self.uuid}_{ctx.task_idx:06d}.parquet"
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pid = rows.column(PARTITION.name)[lo].as_py() if partitioned else 0
            kind = rows.column("kind")[lo].as_py()
            out = strip_tag(rows.slice(lo, hi - lo), self.schemas[kind])
            pq.write_table(out, os.path.join(self.dirs[pid][kind], name), compression="zstd")


def run_partitioned(
    input_files: list[str],
    ckpt_dir: str,
    out_dir: str | None = None,
    num_partitions: int = 4,
    detect_batch_size: int = 256,
    write_mentions: bool = True,
    gazetteers=None,
    input_format: str = "parquet",
) -> dict:
    """Resumable KG job. Phase 1 (narrow): pages files → linked triples
    (+ flat mentions) parquet under ``ckpt_dir`` with a lineage manifest
    per partition. The partition is the unit of skip, invalidation,
    manifest and output layout. Already-complete partitions are SKIPPED
    — but only when the manifest's recorded ``input_files`` equals the
    current plan for that partition; a changed file listing or
    ``num_partitions`` invalidates the partition and it re-runs.

    Every pending partition of a run shares ONE Ray Data execution: one
    read of all their files, whose rows carry the partition of the file
    they were read from (never of their url: the same url may sit in two
    partitions' files, and each gets its copy);
    :func:`partition_rows_batch` fuses onto the spine and emits both
    outputs as tagged rows; :class:`TaggedSink` writes each row into its
    partition's tmp stage dir. After the execution the partitions commit
    in id order, each its stage dirs and then its manifest, whose
    ``wall_sec`` is the shared execution's wall time. A kill during the
    execution therefore redoes the run's narrow work, but never what an
    earlier run committed. The nested sentence-mentions are never
    written. An input file listed twice, under one path or two that
    resolve to the same absolute path, raises ``ValueError`` before any
    work. Relative input, checkpoint and output paths are resolved
    against the driver's current cwd wherever a Ray worker opens them
    (Ray's workers keep the cwd of ``ray.init``); manifests record the
    paths as given.

    Phase 2 (wide, over all partition outputs): entities + edges, edges
    globally sorted by subj_id, written under ``out_dir`` (defaults to
    ``ckpt_dir/out``) by :func:`write_graph` over
    :func:`read_triples` — one more execution, one sort, one write.

    Phase 2 is skipped when ``ckpt_dir/manifest/wide.json`` records
    exactly its current inputs and outputs: a digest of the (path, size,
    mtime_ns) of the triple files it reads and one of the entity/edge
    files under ``out_dir`` (absolute paths, so another ``out_dir``
    counts as changed). The skip returns the recorded counts and runs
    no Ray Data execution. A partition that ran, was invalidated or
    was re-planned changes the triple files (sink files carry a fresh
    id), so it always recomputes. Otherwise the record is deleted
    before the write and rewritten after the renames: a kill in between
    leaves no record. Like the partition manifests, the record covers
    inputs and output location, not the code version: after a code
    change that alters the output, delete ``ckpt_dir``.

    Returns {'skipped': [...], 'ran': [...], 'entities': n, 'edges': n,
    'out_dir': ..., 'wide': reason}, where reason is ``'skipped'``,
    ``'no manifest'``, ``'triples changed'``, ``'outputs changed'``,
    or ``'no triples'`` when no partition wrote a triple (phase 2 has
    nothing to read and writes nothing).

    Append-only ingest: with one partition per file
    (``num_partitions=len(input_files)``) and shard names that sort
    after the existing ones (date/sequence-numbered crawl shards do),
    appending files leaves completed partition identities untouched —
    a rerun processes ONLY the new files and recomputes phase 2
    (pinned by ``test_append_only_ingest_runs_only_new_partitions``).

    ``input_format='jsonl'`` ingests WET-shaped line-delimited JSON
    shards (``sources.jsonl.read_extracted_jsonl`` field defaults)
    through the same partition plan, manifests, fingerprints and wide
    phase — a resumable job over a raw crawl dump needs no parquet
    conversion pass first.
    """
    if len({os.path.abspath(f) for f in input_files}) != len(input_files):
        raise ValueError("run_partitioned: an input file is listed twice")
    store = CheckpointStore(ckpt_dir)
    parts = plan_partitions(input_files, num_partitions)
    # Manifests for partition ids beyond the current plan (a previous
    # run with MORE partitions) would feed phase 2 rows whose input
    # files are also covered by the current partitions — duplicates.
    # Invalidate them up front.
    for pid in store.completed_partitions():
        if pid >= len(parts):
            os.remove(store.manifest_path(pid))
            for stage in PARTITION_OUTPUTS:
                store.clean_incomplete(stage, pid)
    pending, skipped = [], []
    for pid, files in enumerate(parts):
        if store.is_complete(pid):
            # manifest presence alone is not enough: re-running with a
            # different num_partitions or a changed input listing would
            # silently skip a partition whose file membership differs —
            # and a REGENERATED file at the same path (size/mtime
            # fingerprint mismatch) must invalidate too
            m = store.load_manifest(pid)
            # legacy-accept: manifests written before the fingerprint
            # field existed carry none — trust the file listing alone
            # rather than silently recomputing every pre-upgrade
            # partition on the first rerun after the format change.
            # The accept is one-shot: the manifest is rewritten with
            # the CURRENT fingerprint immediately, so a file
            # regenerated in place after this rerun invalidates the
            # partition like any other — exposure is bounded to the
            # first post-upgrade rerun, never indefinite.
            fp = m.get("input_fingerprint")
            if m.get("input_files") == files and (
                not fp or fp == fingerprint_files(files)
            ):
                if not fp:
                    store.write_manifest(
                        PartitionManifest(
                            partition=pid,
                            input_files=files,
                            rows=m.get("rows", {}),
                            wall_sec=m.get("wall_sec", 0.0),
                            status=m.get("status", "complete"),
                            input_fingerprint=fingerprint_files(files),
                        )
                    )
                skipped.append(pid)
                continue
            os.remove(store.manifest_path(pid))  # stale → re-run below
        pending.append(pid)
    if pending:
        narrow = {pid: parts[pid] for pid in pending}
        _run_narrow(store, narrow, write_mentions, detect_batch_size, gazetteers, input_format)

    # ---- phase 2: wide aggregates over all completed partitions --------
    # Skipped when wide.json records these exact triple and output files.
    out_dir = out_dir or os.path.join(ckpt_dir, "out")
    result = {"skipped": skipped, "ran": pending, "out_dir": out_dir}
    triple_files = store.completed_stage_files("triples")
    if not triple_files:
        # no triple file (an empty input plan, or no partition found a
        # triple): a clean no-op beats read_parquet([])'s unhelpful error
        return {**result, "entities": 0, "edges": 0, "wide": "no triples"}
    triples = digest_files(triple_files)
    record = store.load_wide_manifest()
    if record is None:
        reason = "no manifest"
    elif record["triples"] != triples:
        reason = "triples changed"
    elif record["outputs"] != digest_files(_graph_files(out_dir)):
        reason = "outputs changed"
    else:
        return {**result, **record["counts"], "wide": "skipped"}
    store.clear_wide_manifest()
    counts = write_graph(read_triples(triple_files), out_dir)
    store.write_wide_manifest(triples, digest_files(_graph_files(out_dir)), counts)
    return {**result, **counts, "wide": reason}


def _run_narrow(
    store: CheckpointStore,
    parts: dict[int, list[str]],
    write_mentions: bool,
    detect_batch_size: int,
    gazetteers,
    input_format: str,
) -> None:
    """Phase 1 of :func:`run_partitioned` for the pending ``parts``
    (partition id → files): one execution, then one commit per partition."""
    t0 = timed()
    # a stale tmp dir from a killed run would be MERGED with the
    # re-run's files (named by a fresh sink id) and duplicate rows
    for pid in parts:
        for stage in PARTITION_OUTPUTS:
            store.clean_incomplete(stage, pid)
    # Ray's workers keep the cwd the driver had at ray.init, so the read
    # names every file by its absolute path; manifests keep them as given
    # (as do the wide manifest's triple paths, see read_triples)
    partition_of = {os.path.abspath(f): pid for pid, files in parts.items() for f in files}
    if input_format == "jsonl":
        from ..sources.jsonl import read_extracted_jsonl

        read, spine = read_extracted_jsonl, sentences_from_extracted
    else:
        read, spine = read_pages, sentences_dataset
    partitioned = read(list(partition_of), include_paths=True).map_batches(
        path_partitions_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"partition_of": partition_of},
    )
    stages = [s for s in PARTITION_OUTPUTS if write_mentions or s != "mentions"]
    tmps = {pid: [store.tmp_stage_dir(s, pid) for s in stages] for pid in parts}
    spine(partitioned, detect_batch_size=detect_batch_size, gazetteers=gazetteers).map_batches(
        partition_rows_batch,
        batch_format="pyarrow",
        fn_kwargs={"write_mentions": write_mentions},
    ).write_datasink(TaggedSink(tmps, [PARTITION_OUTPUTS[s] for s in stages]))
    wall_sec = timed() - t0
    for pid, files in parts.items():
        rows = {s: _parquet_rows(d) for s, d in zip(stages, tmps[pid])}
        for stage in stages:
            store.commit_stage_dir(stage, pid)
        store.write_manifest(
            PartitionManifest(
                partition=pid,
                input_files=files,
                rows=rows,
                wall_sec=wall_sec,
                input_fingerprint=fingerprint_files(files),
            )
        )


def _parquet_rows(directory: str) -> int:
    """Rows written under ``directory``, from the parquet footers (no execution)."""
    files = glob.glob(os.path.join(directory, "*.parquet"))
    return sum(pq.read_metadata(f).num_rows for f in files)
