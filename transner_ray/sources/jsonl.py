"""JSONL webtext source — Common-Crawl-WET-shaped records.

At crawl scale the other ubiquitous page container besides parquet is
line-delimited JSON (one record per line: WET extractions, CC-NET
output, most public webtext dumps). Records carry PRE-EXTRACTED plain
text — there is no ``html`` column — so this source enters the KG
spine at the post-stage-E boundary (the ``EXTRACTED`` schema:
url/text/lang) and feeds ``kg.sentences_from_extracted`` directly.

Scale notes:

* ``ray.data.read_json`` streams shard files as Arrow blocks exactly
  like ``read_parquet`` — the pipeline downstream is identical, and a
  100 TB corpus of .jsonl/.jsonl.gz shards parallelizes per file.
* Column pruning: JSONL cannot prune at the read (line-oriented text
  has no column projection), so the projection to url/text/lang
  happens in the FIRST map_batches — extra fields are dropped before
  anything is shuffled or spilled. Convert long-lived corpora to
  parquet (``ds.write_parquet``) for footer-pruned re-reads; this
  reader exists for the first ingest pass.
* Field mapping is configurable: WET-style dumps name the text field
  ``content`` or ``raw_content`` and the url ``WARC-Target-URI`` —
  pass ``text_col``/``url_col``/``lang_col``.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from ..schemas import EXTRACTED


def read_extracted_jsonl(
    paths: str | list[str],
    *,
    text_col: str = "text",
    url_col: str = "url",
    lang_col: str | None = "lang",
    default_lang: str = "",
    include_paths: bool = False,
) -> rd.Dataset:
    """Read JSONL page records into the ``EXTRACTED`` schema.

    ``lang_col=None`` (or a missing lang field) fills ``default_lang``
    — the LID stage (``dates.FastTextLanguageID``) backfills it downstream, the
    same flow the reference uses when language is unknown
    (ner.py:154-161). ``include_paths=True`` adds Ray's ``path`` column:
    the file each record was read from, as given in ``paths``.
    """
    ds = rd.read_json(paths, file_extensions=None, include_paths=include_paths)

    def project(batch: pa.Table) -> pa.Table:
        cols = set(batch.column_names)
        if lang_col and lang_col in cols:
            lang = batch.column(lang_col).cast(pa.string())
        else:
            lang = pa.array([default_lang] * len(batch), pa.string())
        out = pa.table(
            {
                "url": batch.column(url_col).cast(pa.string()),
                "text": batch.column(text_col).cast(pa.string()),
                "lang": lang,
            },
            schema=EXTRACTED,
        )
        return out.append_column("path", batch.column("path")) if include_paths else out

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def write_extracted_jsonl(table: pa.Table, out_dir: str, num_shards: int = 4) -> list[str]:
    """Shard an EXTRACTED-shaped table to ``{out_dir}/part-NNNN.jsonl``
    (test/gate helper and the inverse fixture for the reader; atomic
    per-shard publish so a partial writer never yields a readable
    short shard)."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    n = len(table)
    bounds = [round(i * n / num_shards) for i in range(num_shards + 1)]
    paths = []
    for s in range(num_shards):
        lo, hi = bounds[s], bounds[s + 1]
        if hi <= lo:
            continue
        path = os.path.join(out_dir, f"part-{s:04d}.jsonl")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for row in table.slice(lo, hi - lo).to_pylist():
                f.write(json.dumps(row, ensure_ascii=False) + "\n")
        os.replace(tmp, path)
        paths.append(path)
    return paths
