"""Kernel pass: the public stage functions timed in one process, no Ray.

Each stage runs on the previous stage's output for a fixed sample of the
workload's pages, as one batch. A time is the median of ``repeats``
runs. The link memo is emptied before each link run, as in a fresh
worker, so repeats measure the same work.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq


def sample_pages(files: list[str], n_docs: int) -> pa.Table:
    """The first ``n_docs`` pages of the corpus, in file order."""
    tables, have = [], 0
    for f in sorted(files):
        if have >= n_docs:
            break
        t = pq.read_table(f, columns=["url", "html", "lang"])
        tables.append(t)
        have += t.num_rows
    return pa.concat_tables(tables).slice(0, n_docs)


def _timed(fn, arg, repeats: int, before=None):
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def kernel_pass(pages: pa.Table, write_mentions: bool, repeats: int = 3) -> dict:
    from transner_ray.splitting import window_words
    from transner_ray.stages import graph
    from transner_ray.stages.detect import explode_mentions_batch, make_detect_fn
    from transner_ray.stages.extract import extract_text_batch
    from transner_ray.stages.split import split_sentences_batch
    from transner_ray.stages.triples import triples_batch

    detect = make_detect_fn()
    detect(split_sentences_batch(extract_text_batch(pages.slice(0, 1))))  # build the detector

    t = {}
    t["extract"], extracted = _timed(extract_text_batch, pages, repeats)
    t["split"], sentences = _timed(split_sentences_batch, extracted, repeats)
    t["detect"], sm = _timed(detect, sentences, repeats)
    t["explode"], mentions = _timed(explode_mentions_batch, sm, repeats)
    t["triples"], triples = _timed(triples_batch, sm, repeats)
    t["link"], linked = _timed(
        graph.link_triples_batch, triples, repeats, before=graph._LINK_CACHE.clear
    )
    t["entity_partials"], ent_p = _timed(graph.make_entity_partials(), linked, repeats)
    t["edge_partials"], edge_p = _timed(graph.make_edge_partials(), linked, repeats)
    t["entity_reduce"], _ = _timed(graph.reduce_entity_bucket, ent_p.to_pandas(), repeats)
    t["edge_reduce"], _ = _timed(graph.reduce_edge_bucket, edge_p.to_pandas(), repeats)

    docs = pages.num_rows
    n_sent = sentences.num_rows
    n_ment = mentions.num_rows
    n_trip = linked.num_rows
    endpoints = 2 * n_trip
    surfaces = pa.table(
        {
            "surface": pa.concat_arrays(
                [linked.column("subj").combine_chunks(), linked.column("obj").combine_chunks()]
            ),
            "type": pa.concat_arrays(
                [
                    linked.column("subj_type").combine_chunks(),
                    linked.column("obj_type").combine_chunks(),
                ]
            ),
        }
    )
    distinct = surfaces.group_by(["surface", "type"]).aggregate([]).num_rows
    sent_with_triple = (
        triples.select(["url", "sent_idx"]).group_by(["url", "sent_idx"]).aggregate([]).num_rows
    )
    windowed = sum(
        len(window_words(x)) > 1 for x in sentences.column("sentence").to_pylist()
    )
    narrow = ["extract", "split", "detect", "triples", "link"]
    if write_mentions:
        narrow.append("explode")
    wide = ["entity_partials", "edge_partials", "entity_reduce", "edge_reduce"]
    us = 1e6
    return {
        "extract.us_per_doc": t["extract"] / docs * us,
        "split.us_per_doc": t["split"] / docs * us,
        "detect.us_per_sentence": t["detect"] / n_sent * us,
        "detect.mentions_per_sentence": n_ment / n_sent,
        "detect.windowed_share": windowed / n_sent,
        "explode.us_per_mention": t["explode"] / max(n_ment, 1) * us,
        "triples.us_per_sentence": t["triples"] / n_sent * us,
        "triples.yield": sent_with_triple / n_sent,
        "link.us_per_triple": t["link"] / max(n_trip, 1) * us,
        "link.distinct_ratio": distinct / max(endpoints, 1),
        "graph.entity_partials.us_per_triple": t["entity_partials"] / max(n_trip, 1) * us,
        "graph.edge_partials.us_per_triple": t["edge_partials"] / max(n_trip, 1) * us,
        "graph.entity_reduce.us_per_row": t["entity_reduce"] / max(ent_p.num_rows, 1) * us,
        "graph.edge_reduce.us_per_row": t["edge_reduce"] / max(edge_p.num_rows, 1) * us,
        "graph.combiner_ratio": (ent_p.num_rows + edge_p.num_rows) / max(endpoints, 1),
        "kernel.docs_per_s": docs / sum(t[k] for k in narrow + wide),
        # not a reported metric: narrow kernel seconds per doc, for the
        # kernel-vs-Ray-UDF comparison of the traced run
        "narrow_s_per_doc": sum(t[k] for k in narrow) / docs,
    }
