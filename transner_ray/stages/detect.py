"""Stage N — mention detection (the model stage) as an ACTOR POOL.

The reference loads its BERT model once per process and runs the whole
request as one predict batch (ner.py:97-107,187). Here the stage is a
callable class for ``map_batches(MentionDetector, concurrency=N,
batch_size=B)``: tagger + gazetteer state is built ONCE per actor in
``__init__`` (broadcast via ``ray.put`` ObjectRef — shipped per node,
not per batch), and ``__call__`` processes an Arrow batch of sentence
rows. The sliding window over >150-word sentences (api.py:27) runs
inside ``detect_mentions`` so window fan-out never inflates rows in the
object store.

Output keeps mentions NESTED per sentence (SENTENCE_MENTIONS) —
exploded once by ``explode_mentions_batch`` right before the flat
mentions table is needed.
"""

from __future__ import annotations

import pyarrow as pa

import ray

from ..gazetteers import Gazetteers, default_gazetteers
from ..kg import detect_mentions
from ..ner_core import SERVICE_THRESHOLD
from ..schemas import MENTIONS, SENTENCE_MENTIONS, with_partition
from ..tagger import RuleTagger


def make_detect_fn(
    gazetteers_ref=None,
    threshold: float = SERVICE_THRESHOLD,
    apply_regex: bool = True,
    apply_gazetteers: bool = True,
    apply_dates: bool = False,
):
    """Task-based variant of the detection stage for LIGHTWEIGHT
    taggers (RuleTagger): a plain function whose state is built once
    per WORKER PROCESS (module-level cache) instead of once per actor.

    Rationale: an actor pool pays ~1s startup per actor (process spawn
    + imports) before the first batch — right for a BERT model that
    takes 10s to load and runs for hours, wrong for a microsecond-scale
    rule tagger on a short job. Plain tasks reuse Ray's already-warm
    worker processes AND let Ray fuse read→extract→split→detect→triples
    into one pipelined operator with no object-store hop between
    stages. The BertTagger path keeps the MentionDetector actor class
    below."""

    key = (gazetteers_ref, threshold, apply_regex, apply_gazetteers, apply_dates)

    def detect_batch(batch: pa.Table) -> pa.Table:
        det = _WORKER_CACHE.get(key)
        if det is None:
            # bounded: every pipeline construction puts a fresh
            # gazetteers ObjectRef, so long-lived workers would
            # otherwise accumulate one detector per pipeline built
            if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
                _WORKER_CACHE.clear()
            det = MentionDetector(
                gazetteers_ref, threshold, apply_regex, apply_gazetteers, apply_dates
            )
            _WORKER_CACHE[key] = det
        return det(batch)

    return detect_batch


_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 4


class MentionDetector:
    def __init__(
        self,
        gazetteers_ref=None,
        threshold: float = SERVICE_THRESHOLD,
        apply_regex: bool = True,
        apply_gazetteers: bool = True,
        apply_dates: bool = False,
        tagger: str = "rule",
        model_path: str | None = None,
    ):
        if gazetteers_ref is not None:
            gz: Gazetteers = ray.get(gazetteers_ref)
        else:
            gz = default_gazetteers()
        self.gz = gz
        if tagger == "bert":
            # GPU-cluster path (docs/SCALE.md "GPU on-ramp"): weights
            # load ONCE per actor here; pair with
            # sentences_dataset(use_actor_pool=True, detect_num_gpus=1)
            from ..tagger import DEFAULT_MODELS_DIR, BertTagger, resolve_model_path

            self.tagger = BertTagger(
                resolve_model_path(model_path or "bert_uncased_base", DEFAULT_MODELS_DIR)
            )
        else:
            self.tagger = RuleTagger(gz)
        self.threshold = threshold
        self.apply_regex = apply_regex
        self.apply_gazetteers = apply_gazetteers
        # opt-in, like the reference's find_dates (never called by the
        # service path, api.py:59 — SURVEY.md §2.8 ruling 8)
        self.apply_dates = apply_dates

    def _detect(self, sentence: str) -> list[dict]:
        mentions = detect_mentions(
            sentence,
            self.tagger,
            self.gz,
            self.threshold,
            self.apply_regex,
            self.apply_gazetteers,
        )
        if self.apply_dates:
            from ..dates import find_date_entities

            mentions.extend(find_date_entities(sentence, mentions))
        return mentions

    def __call__(self, batch: pa.Table) -> pa.Table:
        """SENTENCES rows → SENTENCE_MENTIONS rows, carrying ``partition``."""
        mention_lists = [
            self._detect(s) for s in batch.column("sentence").to_pylist()
        ]
        out = pa.table(
            {
                "url": batch.column("url"),
                "sent_idx": batch.column("sent_idx"),
                "sentence": batch.column("sentence"),
                "char_start": batch.column("char_start"),
                "lang": batch.column("lang"),
                "mentions": pa.array(
                    mention_lists, type=SENTENCE_MENTIONS.field("mentions").type
                ),
            },
            schema=SENTENCE_MENTIONS,
        )
        return with_partition(out, batch)


def explode_mentions_batch(batch: pa.Table) -> pa.Table:
    """SENTENCE_MENTIONS → flat MENTIONS rows (explode once).

    Fully vectorized Arrow explode — ``list_parent_indices`` +
    ``ListArray.flatten`` + ``take`` on the sentence columns and
    zero-copy struct-field extraction for the mention columns; no
    Python loop over rows (output byte-identical to the old row loop,
    pinned by the pipeline/oracle tests)."""
    import numpy as np
    import pyarrow.compute as pc

    lst = batch.column("mentions")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    parent = pc.list_parent_indices(lst)  # flat row → source sentence row
    flat = lst.flatten()  # StructArray of every mention, list order kept
    # mention_idx = position within its sentence's list: global arange
    # minus each sentence's start offset, gathered by parent index
    lengths = pc.fill_null(pc.list_value_length(lst), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    starts = np.zeros(len(lengths), dtype=np.int64)
    if len(lengths) > 1:
        np.cumsum(lengths[:-1], out=starts[1:])
    parent_np = parent.to_numpy(zero_copy_only=False).astype(np.int64)
    midx = np.arange(len(flat), dtype=np.int64) - starts[parent_np]
    return pa.table(
        {
            "url": pc.take(batch.column("url"), parent),
            "sent_idx": pc.take(batch.column("sent_idx"), parent),
            "mention_idx": pa.array(midx.astype(np.int32), pa.int32()),
            "type": flat.field("type"),
            "value": flat.field("value"),
            "offset": flat.field("offset"),
            "doc_offset": pc.add(
                pc.take(batch.column("char_start"), parent), flat.field("offset")
            ),
            "confidence": flat.field("confidence"),
            "detector": flat.field("detector"),
        },
        schema=MENTIONS,
    )
