"""Embedding entity linking (north_star: alias-table + embedding)."""

import numpy as np
import pyarrow.parquet as pq

from transner_ray.linking import EmbeddingLinker, surface_embedding
from transner_ray.pipelines import kg


def test_surface_embedding_deterministic_and_normalized():
    a = surface_embedding("acme corporation")
    b = surface_embedding("acme corporation")
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


def test_truncated_surface_links_to_canonical():
    linker = EmbeddingLinker()
    # decode truncation artifacts (sentence-final drop) produce clipped
    # surfaces; the embedding fallback rescues them
    assert linker.link_one("Acme Corporatio", "ORGANIZATION") == "org:acme corporation"
    assert linker.link_one("Intesa Sanpaol", "ORGANIZATION") == "org:intesa sanpaolo"
    # alias path still exact
    assert linker.link_one("Roma", "LOCATION") == "loc:rome"
    # a genuinely novel surface keeps its own identity
    assert linker.link_one("Zyxwv Qqq Industries", "ORGANIZATION") == "org:zyxwv qqq industries"


def test_unknown_namespace_passthrough():
    linker = EmbeddingLinker()
    # norm key is punctuation-separated (the O1 idiom), same as alias mode
    assert linker.link_one("x@y.com", "EMAIL_ADDRESS") == "email_address:x @ y . com"


def test_embedding_mode_engine_equals_oracle(pages_small, oracle_small):
    from transner_ray.oracle import run_oracle

    rows = []
    for p in pages_small:
        rows.extend(pq.read_table(p).to_pylist())
    want = run_oracle(rows, link_mode="embedding")
    ds = kg.linked_triples_dataset(
        kg.sentences_dataset(kg.read_pages(pages_small)), link_mode="embedding"
    )
    got = ds.to_pandas()
    got_set = set(zip(got["subj_id"], got["pred"], got["obj_id"], got["url"], got["sent_idx"]))
    want_set = set(
        (t["subj_id"], t["pred"], t["obj_id"], t["url"], t["sent_idx"]) for t in want["triples"]
    )
    assert got_set == want_set
    # embedding mode merges truncation variants -> never MORE distinct
    # entity ids than alias mode
    alias_ids = {t["subj_id"] for t in oracle_small["triples"]}
    emb_ids = {t["subj_id"] for t in want["triples"]}
    assert len(emb_ids) <= len(alias_ids)


def test_born_surfaces_self_link():
    """Guard for the kg_born_edges_emblink SQL gate: every born-corpus
    surface must be absent from the alias table and must NOT
    false-link into the canonical registry (cosine < threshold, or
    registry-identical) — i.e. the embedding linker resolves each to
    ITSELF, making the emblink edge table equal the alias-mode oracle.
    A lexicon change that pushes an alien cosine over 0.80 breaks the
    gate here first, not at the driver."""
    import numpy as np

    from transner_ray.kg import norm_surface
    from transner_ray.linking import EmbeddingLinker, surface_embedding
    from transner_ray.synth import BORN_CITIES, BORN_PERSONS

    lk = EmbeddingLinker()
    for ns, mtype, words in (
        ("per", "PERSON", BORN_PERSONS),
        ("loc", "LOCATION", BORN_CITIES),
    ):
        for w in words:
            n = norm_surface(w)
            assert n not in lk.aliases
            assert lk.link_one(w, mtype) == f"{ns}:{n}"
            if n not in lk.registry_sets[ns]:
                sims = lk.matrices[ns] @ surface_embedding(n)
                assert float(np.max(sims)) < lk.cos_threshold
