"""Stage S — sentence splitting with carried char offsets.

A flat-map expressed as ``map_batches`` (1 page row → N sentence rows)
so the fan-out happens inside one vectorized batch function rather than
one Python call per row (`ds.flat_map` is per-row). Ordering is
key-carried — every row holds (url, sent_idx) — so no stage depends on
block order (SURVEY.md §1.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schemas import SENTENCES, with_partition
from ..splitting import split_sentences


def split_sentences_batch(batch: pa.Table) -> pa.Table:
    """EXTRACTED rows → SENTENCES rows; each sentence carries its page's
    ``partition`` when the batch has one."""
    page_end: list[int] = []  # sentences emitted up to and including each page
    urls: list[str] = []
    sent_idx: list[int] = []
    sents: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    langs: list[str] = []
    for url, text, lang in zip(
        batch.column("url").to_pylist(),
        batch.column("text").to_pylist(),
        batch.column("lang").to_pylist(),
    ):
        for i, (s, cs, ce) in enumerate(split_sentences(text)):
            urls.append(url)
            sent_idx.append(i)
            sents.append(s)
            starts.append(cs)
            ends.append(ce)
            langs.append(lang)
        page_end.append(len(urls))
    out = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "sent_idx": pa.array(sent_idx, pa.int32()),
            "sentence": pa.array(sents, pa.string()),
            "char_start": pa.array(starts, pa.int64()),
            "char_end": pa.array(ends, pa.int64()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=SENTENCES,
    )
    page = np.repeat(np.arange(len(page_end)), np.diff(page_end, prepend=0))
    return with_partition(out, batch, page)
