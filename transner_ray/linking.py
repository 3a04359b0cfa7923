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
