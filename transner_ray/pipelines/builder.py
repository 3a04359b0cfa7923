"""Config-driven pipeline builder — the engine's user-extension
surface (SURVEY.md §2.9).

The reference exposes per-call stage toggles (``ner(strings,
apply_regex=..., apply_gazetteers=...)``, ner.py:168) and constructor
knobs (model path / cuda / quantization / threshold, ner.py:70-77).
Here those become a declarative config over named stages; each stage
declares its input/output schema so compositions are checked at build
time, before any Ray execution.

    cfg = PipelineConfig(threshold=0.75, apply_regex=True,
                         apply_gazetteers=True, apply_dates=False)
    outs = build_kg_pipeline(pages_ds, cfg)      # dict of lazy Datasets
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pyarrow as pa

import ray.data as rd

from .. import schemas


@dataclass(frozen=True)
class Step:
    """A named pipeline step: a map_batches-compatible callable with
    declared Arrow schemas at both ends."""

    name: str
    fn: Callable
    schema_in: pa.Schema
    schema_out: pa.Schema
    batch_size: int | None = None

    def apply(self, ds: rd.Dataset) -> rd.Dataset:
        kwargs = {"batch_format": "pyarrow"}
        if self.batch_size is not None:
            kwargs["batch_size"] = self.batch_size
        return ds.map_batches(self.fn, **kwargs)


@dataclass(frozen=True)
class PipelineConfig:
    threshold: float = 0.75  # api.py:121 service default
    apply_regex: bool = True
    apply_gazetteers: bool = True
    apply_dates: bool = False  # opt-in (SURVEY.md §2.8 ruling 8)
    detect_batch_size: int = 256
    use_actor_pool: bool = False  # True for the BertTagger GPU path
    detect_concurrency: int | tuple[int, int] | None = None
    extra_steps: tuple[Step, ...] = field(default=())  # user stages, applied after detect


def _check(prev: pa.Schema, step: Step) -> None:
    missing = [f for f in step.schema_in.names if f not in prev.names]
    if missing:
        raise ValueError(
            f"step '{step.name}' needs columns {missing} not produced upstream ({prev.names})"
        )


def build_kg_pipeline(pages: rd.Dataset, cfg: PipelineConfig | None = None) -> dict[str, rd.Dataset]:
    """Compose the KG pipeline per config; returns lazy Datasets for
    every stage output (consume ONE of them per execution, or use
    run_partitioned for checkpointed multi-output runs)."""
    import ray

    from ..gazetteers import default_gazetteers
    from ..stages.detect import MentionDetector, make_detect_fn
    from ..stages.extract import extract_text_batch
    from ..stages.split import split_sentences_batch
    from . import kg

    cfg = cfg or PipelineConfig()
    gz_ref = ray.put(default_gazetteers())
    detect_kwargs = dict(
        gazetteers_ref=gz_ref,
        threshold=cfg.threshold,
        apply_regex=cfg.apply_regex,
        apply_gazetteers=cfg.apply_gazetteers,
        apply_dates=cfg.apply_dates,
    )

    base = pages.map_batches(
        extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(split_sentences_batch, batch_format="pyarrow")
    if cfg.use_actor_pool:
        spine = base.map_batches(
            MentionDetector,
            batch_format="pyarrow",
            batch_size=cfg.detect_batch_size,
            concurrency=cfg.detect_concurrency or (1, 8),
            fn_constructor_kwargs=detect_kwargs,
        )
    else:
        spine = base.map_batches(
            make_detect_fn(**detect_kwargs),
            batch_format="pyarrow",
            batch_size=cfg.detect_batch_size,
        )

    prev_schema = schemas.SENTENCE_MENTIONS
    for step in cfg.extra_steps:
        _check(prev_schema, step)
        spine = step.apply(spine)
        prev_schema = step.schema_out

    linked = kg.linked_triples_dataset(spine)
    return {
        "sentence_mentions": spine,
        "mentions": kg.mentions_dataset(spine),
        "triples": linked,
        "entities": kg.entities_dataset(linked),
        "edges": kg.edges_dataset(linked),
    }
