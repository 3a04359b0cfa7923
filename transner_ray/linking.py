"""Entity linking v2: alias table + embedding fallback (north_star:
"alias-table + embedding entity linking").

Two-tier resolution per mention/endpoint surface:

1. exact: normalized surface → alias table (tiny, broadcast).
2. embedding fallback for unknown surfaces: a deterministic char-3-gram
   feature-hashed embedding (no model weights — pure function of the
   string, so oracle and engine agree bit-for-bit) is compared against
   the canonical-registry embedding matrix; cosine ≥ threshold links
   the surface to the registry canonical (this is what rescues decode
   truncation artifacts like ``"Acme Corporatio"`` → ``acme
   corporation``); below threshold the surface keeps its own identity.

Scale shape: the registry matrix is ``ray.put`` once and read per
worker; per batch, ``link_one`` runs once per distinct ``(surface,
type)`` (``stages.graph.link_endpoints``), not once per row.
"""

from __future__ import annotations

import zlib

import numpy as np

from .data import lexicon
from .kg import build_alias_table, norm_surface

EMBED_DIM = 64
DEFAULT_COS_THRESHOLD = 0.80

_TYPE_NAMESPACE = {
    "PERSON": "per",
    "LOCATION": "loc",
    "ORGANIZATION": "org",
    "MISCELLANEOUS": "misc",
    "DOCUMENT": "doc",
    "PROCEDURE": "proc",
    "RELIGION": "rel",
}


def surface_embedding(norm: str) -> np.ndarray:
    """Deterministic char-3-gram feature-hash embedding, L2-normalized.
    Pure w.r.t. the string (crc32 hashing, signed buckets)."""
    v = np.zeros(EMBED_DIM, dtype=np.float64)
    padded = f"^{norm}$"
    for i in range(len(padded) - 2):
        g = padded[i : i + 3]
        h = zlib.crc32(g.encode("utf-8"))
        v[h % EMBED_DIM] += 1.0 if (h >> 16) & 1 else -1.0
    n = np.linalg.norm(v)
    return v / n if n else v


class EmbeddingLinker:
    """Registry of canonical entities per namespace with an embedding
    matrix; built once (driver), shipped via ray.put, used per batch."""

    def __init__(self, cos_threshold: float = DEFAULT_COS_THRESHOLD):
        self.cos_threshold = cos_threshold
        self.aliases = build_alias_table()
        registry: dict[str, list[str]] = {
            "per": sorted(
                {norm_surface(f"{f} {l}") for f in lexicon.FIRST_NAMES for l in lexicon.SURNAMES}
                | {norm_surface(f) for f in lexicon.FIRST_NAMES}
            ),
            "loc": sorted({norm_surface(c) for c in lexicon.CITIES}),
            "org": sorted({norm_surface(o) for o in lexicon.ORGS}),
            "rel": sorted({norm_surface(r) for r in lexicon.RELIGIONS}),
            "misc": sorted({norm_surface(m) for m in lexicon.MISC_PHRASES}),
        }
        # resolve registry entries through the alias table so the
        # embedding hit lands on the same canonical id the exact path uses
        self.registry = {
            ns: [self.aliases.get(n, n) for n in norms] for ns, norms in registry.items()
        }
        self.registry_sets = {ns: frozenset(norms) for ns, norms in registry.items()}
        self.matrices = {
            ns: np.stack([surface_embedding(n) for n in norms]) if norms else np.zeros((0, EMBED_DIM))
            for ns, norms in registry.items()
        }
        self._cache: dict[tuple[str, str], str] = {}

    def _namespace(self, mtype: str | None) -> str:
        ns = _TYPE_NAMESPACE.get(mtype or "")
        return ns if ns is not None else (mtype or "val").lower()

    def link_one(self, surface: str, mtype: str | None) -> str:
        key = (surface, mtype or "")
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ns = self._namespace(mtype)
        norm = norm_surface(surface)
        canon = self.aliases.get(norm)
        if (
            canon is None
            and ns in self.matrices
            and norm not in self.registry_sets.get(ns, frozenset())
        ):
            M = self.matrices[ns]
            if len(M):
                sims = M @ surface_embedding(norm)
                best = int(np.argmax(sims))
                if sims[best] >= self.cos_threshold:
                    canon = self.registry[ns][best]
        eid = f"{ns}:{canon if canon is not None else norm}"
        if len(self._cache) < 1_000_000:
            self._cache[key] = eid
        return eid


def alias_table_dataset():
    """The alias table as a Dataset — input to the shuffle-join linking
    fallback below."""
    import pyarrow as pa

    import ray.data as rd

    aliases = build_alias_table()
    return rd.from_arrow(
        pa.table(
            {
                "norm_surface": pa.array(list(aliases.keys()), pa.string()),
                "canon": pa.array(list(aliases.values()), pa.string()),
            }
        )
    )


def link_triples_via_join(triples, alias_ds=None, num_partitions: int = 8):
    """Shuffle hash-join linking fallback (SURVEY.md §2.4 J-new plan B):
    when the alias table outgrows broadcast memory, resolve surfaces
    with ``Dataset.join`` on the normalized surface instead of an
    in-task dict. Same result as the broadcast path — asserted in
    tests; plan A (broadcast) stays the default because alias tables
    here are small.

    Shape: normalize endpoints per batch (vectorized) → left-join
    subj_norm and obj_norm against the alias table (two hash-partition
    exchanges) → compose entity ids."""
    import pyarrow as pa

    import ray.data as rd  # noqa: F401

    if alias_ds is None:
        alias_ds = alias_table_dataset()

    def add_norms(batch: pa.Table) -> pa.Table:
        subj_norm = [norm_surface(s) for s in batch.column("subj").to_pylist()]
        obj_norm = [norm_surface(o) for o in batch.column("obj").to_pylist()]
        out = batch.append_column("subj_norm", pa.array(subj_norm, pa.string()))
        return out.append_column("obj_norm", pa.array(obj_norm, pa.string()))

    with_norms = triples.map_batches(add_norms, batch_format="pyarrow")
    j1 = with_norms.join(
        alias_ds,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("subj_norm",),
        right_on=("norm_surface",),
        right_suffix="_subj_alias",
    )
    j2 = j1.join(
        alias_ds,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=("obj_norm",),
        right_on=("norm_surface",),
        right_suffix="_obj_alias",
    )

    def finish(batch: pa.Table) -> pa.Table:
        names = batch.schema.names
        subj_canon_col = "canon" if "canon" in names else "canon_subj_alias"
        obj_canon_col = "canon_obj_alias" if "canon_obj_alias" in names else "canon"
        subj_ids, obj_ids = [], []
        for st, sn, sc, ot, on_, oc in zip(
            batch.column("subj_type").to_pylist(),
            batch.column("subj_norm").to_pylist(),
            batch.column(subj_canon_col).to_pylist(),
            batch.column("obj_type").to_pylist(),
            batch.column("obj_norm").to_pylist(),
            batch.column(obj_canon_col).to_pylist(),
        ):
            ns_s = _TYPE_NAMESPACE.get(st or "", (st or "val").lower())
            ns_o = _TYPE_NAMESPACE.get(ot or "", (ot or "val").lower())
            subj_ids.append(f"{ns_s}:{sc if sc is not None else sn}")
            obj_ids.append(f"{ns_o}:{oc if oc is not None else on_}")
        keep = [
            "subj", "pred", "obj", "subj_type", "obj_type", "confidence", "url", "sent_idx",
        ]
        out = batch.select([c for c in keep if c in names])
        out = out.append_column("subj_id", pa.array(subj_ids, pa.string()))
        return out.append_column("obj_id", pa.array(obj_ids, pa.string()))

    return j2.map_batches(finish, batch_format="pyarrow")


def make_embedding_link_batch(linker_ref=None, cos_threshold: float = DEFAULT_COS_THRESHOLD):
    """map_batches fn for TRIPLES → linked triples using the embedding
    linker; the linker is read from the broadcast ref (or built once
    per worker) and cached in the worker process."""
    import pyarrow as pa

    import ray

    cache_key = ("embedding_linker", linker_ref, cos_threshold)

    def link_batch(batch: pa.Table) -> pa.Table:
        from .stages.detect import _WORKER_CACHE
        from .stages.graph import link_endpoints

        linker = _WORKER_CACHE.get(cache_key)
        if linker is None:
            linker = (
                ray.get(linker_ref) if linker_ref is not None else EmbeddingLinker(cos_threshold)
            )
            _WORKER_CACHE[cache_key] = linker
        return link_endpoints(batch, linker.link_one)

    return link_batch
