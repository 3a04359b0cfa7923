"""End-to-end: Ray pipeline outputs == sequential oracle outputs
(mention-set equality, triple P/R, edges/entities equality), plus
batch-size invariance and the global edge sort."""

import pyarrow.parquet as pq
import pytest

from transner_ray.pipelines import kg
from transner_ray.pipelines.builder import PipelineConfig, build_kg_pipeline


@pytest.fixture(scope="module")
def engine_out(pages_small):
    pages = kg.read_pages(pages_small)
    d = build_kg_pipeline(pages, PipelineConfig(detect_concurrency=2))
    return {
        "mentions": d["mentions"].to_pandas(),
        "triples": d["triples"].to_pandas(),
        "entities": d["entities"].to_pandas(),
        "edges": d["edges"].to_pandas(),
    }


def _mention_key(m):
    return (
        m["url"], m["sent_idx"], m["mention_idx"], m["type"], m["value"],
        m["offset"], m["doc_offset"], m["confidence"], m["detector"],
    )


def test_extract_byte_identical(pages_small, oracle_small):
    import ray.data as rd

    from transner_ray.stages.extract import extract_text_batch

    ds = kg.read_pages(pages_small).map_batches(extract_text_batch, batch_format="pyarrow")
    got = {r["url"]: r["text"] for r in ds.to_pandas().to_dict("records")}
    want = {r["url"]: r["text"] for r in oracle_small["extracted"]}
    assert got == want  # byte-identical per url (north-star invariant)


def test_mentions_equal_oracle(engine_out, oracle_small):
    got = set(map(_mention_key, engine_out["mentions"].to_dict("records")))
    want = set(map(_mention_key, oracle_small["mentions"]))
    assert got == want


def test_triples_pr_vs_oracle(engine_out, oracle_small):
    got = set(
        zip(
            engine_out["triples"]["subj_id"],
            engine_out["triples"]["pred"],
            engine_out["triples"]["obj_id"],
        )
    )
    want = set((t["subj_id"], t["pred"], t["obj_id"]) for t in oracle_small["triples"])
    tp = len(got & want)
    precision = tp / max(1, len(got))
    recall = tp / max(1, len(want))
    assert precision >= 0.95 and recall >= 0.95  # target from BASELINE.json
    assert got == want  # and in fact exact equality


def test_entities_equal_oracle(engine_out, oracle_small):
    got = {
        r["entity_id"]: (r["canonical"], r["type"], tuple(r["aliases"]), r["support"])
        for r in engine_out["entities"].to_dict("records")
    }
    want = {
        e["entity_id"]: (e["canonical"], e["type"], tuple(e["aliases"]), e["support"])
        for e in oracle_small["entities"]
    }
    assert got == want


def test_edges_equal_and_sorted(engine_out, oracle_small):
    edges = engine_out["edges"]
    got = {
        (r["subj_id"], r["pred"], r["obj_id"]): (r["weight"], tuple(r["sources"]))
        for r in edges.to_dict("records")
    }
    want = {
        (e["subj_id"], e["pred"], e["obj_id"]): (e["weight"], tuple(e["sources"]))
        for e in oracle_small["edges"]
    }
    assert got == want
    assert list(edges["subj_id"]) == sorted(edges["subj_id"])


def test_mention_types_within_supported_set(engine_out):
    from transner_ray.ner_core import EXTENDED_TYPES

    assert set(engine_out["mentions"]["type"]) <= set(EXTENDED_TYPES)


def test_malformed_html_rows_dropped_not_fatal():
    import pyarrow as pa

    from transner_ray.htmlops import wrap_html
    from transner_ray.schemas import PAGES
    from transner_ray.stages.extract import extract_text_batch
    from transner_ray.synth import EPOCH_BASE_US

    rows = [
        {
            "url": "https://x/good",
            "warc_ts": EPOCH_BASE_US,
            "html": wrap_html("t", "Buon testo."),
            "text": "Buon testo.",
            "lang": "it",
        },
        {
            "url": "https://x/bad-container",
            "warc_ts": EPOCH_BASE_US,
            "html": b"\x00\x01 not a container",
            "text": "",
            "lang": "it",
        },
        {
            "url": "https://x/bad-utf8",
            "warc_ts": EPOCH_BASE_US,
            "html": wrap_html("t", "ok")[:30] + b"\xff\xfe" + wrap_html("t", "ok")[30:],
            "text": "",
            "lang": "it",
        },
        {
            "url": "https://x/null",
            "warc_ts": EPOCH_BASE_US,
            "html": None,
            "text": "",
            "lang": "it",
        },
    ]
    pages = pa.Table.from_pylist(rows, schema=PAGES)
    out = extract_text_batch(pages)
    assert out.column("url").to_pylist() == ["https://x/good"]
    assert out.column("text").to_pylist() == ["Buon testo."]
    assert extract_text_batch(pages.slice(1)).num_rows == 0  # no row survives


def test_actor_pool_path_matches_tasks(pages_small):
    """The MentionDetector ACTOR-POOL stage (the BertTagger shape) must
    produce exactly what the task-based default produces."""
    tasks = build_kg_pipeline(kg.read_pages(pages_small))["triples"].to_pandas()
    pool = kg.linked_triples_dataset(
        kg.sentences_dataset(
            kg.read_pages(pages_small), detect_concurrency=2, use_actor_pool=True
        )
    ).to_pandas()
    key = lambda df: set(
        zip(df["subj_id"], df["pred"], df["obj_id"], df["url"], df["sent_idx"])
    )
    assert key(tasks) == key(pool)


def test_batch_size_invariance(pages_small):
    """Identical triples at batch_size 8 vs 256 (model-stage outputs
    must not depend on co-batched rows — SURVEY.md §4.3)."""
    def run(bs):
        d = build_kg_pipeline(
            kg.read_pages(pages_small),
            PipelineConfig(detect_concurrency=2, detect_batch_size=bs),
        )
        t = d["triples"].to_pandas()
        return set(zip(t["subj_id"], t["pred"], t["obj_id"], t["url"], t["sent_idx"]))

    assert run(8) == run(256)
