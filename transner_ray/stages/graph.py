"""Stages L/C/G — entity linking, canonicalization, graph materialize.

* ``link_triples_batch``: stateless map; alias table is tiny (SURVEY.md
  §2.4 J-new) and captured in the task closure — a broadcast semi-join,
  never a shuffle join. ``link_endpoints`` links each distinct
  ``(surface, type)`` of a batch once and gathers the ids back with
  ``take``; the embedding linker goes through it too.
* canonicalization + edge weighting share ONE shuffle. A per-batch
  combiner (``graph_partials_batch``) first collapses each block to its
  distinct keys — the Zipf-head entity contributes ≤1 row per block
  instead of one row per occurrence (SURVEY.md §4.2 skew notes) — and
  tags each partial row with its ``kind``: entity rows keyed by
  ``entity_id``, edge rows keyed by ``subj_id``. A sort on that one
  ``key`` column puts every group in one block, so ``reduce_graph_block``
  reduces a whole block in one call of Arrow kernels and emits entities
  and edges together; ``entity_rows``/``edge_rows`` project them into
  the ENTITIES and EDGES tables. Nothing loops over rows in Python.
  ``tagged``/``strip_tag`` also carry each phase's outputs through one
  write (``pipelines/kg.py::TaggedSink``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kg import build_alias_table, link_entity
from ..schemas import EDGES, ENTITIES

LINKED_TRIPLES_FIELDS = [
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("subj_type", pa.string()),
    ("obj_type", pa.string()),
    ("confidence", pa.float64()),
    ("url", pa.string()),
    ("sent_idx", pa.int32()),
    ("subj_id", pa.string()),
    ("obj_id", pa.string()),
]
LINKED_TRIPLES = pa.schema(LINKED_TRIPLES_FIELDS)

_ALIASES = build_alias_table()
_LINK_CACHE: dict[tuple[str, str | None], str] = {}


def _link_cached(surface: str, mtype: str | None) -> str:
    """Per-worker memo of surface→entity_id: surfaces are Zipfian, so
    the punctuation-separation normalization runs once per distinct
    surface instead of once per triple endpoint."""
    key = (surface, mtype)
    eid = _LINK_CACHE.get(key)
    if eid is None:
        eid = link_entity(surface, mtype, _ALIASES)
        if len(_LINK_CACHE) < 1_000_000:  # bound worker memory
            _LINK_CACHE[key] = eid
    return eid


def link_endpoints(batch: pa.Table, link) -> pa.Table:
    """``batch`` plus ``subj_id``/``obj_id`` from ``link(surface, type)``,
    called once per distinct ``(surface, type)`` of each endpoint column
    and gathered back with ``take``: surfaces are Zipfian, so a batch
    holds few distinct endpoints. A null type is linked as ``None``."""

    def ids(surface: str, mtype: str) -> pa.Array:
        s = pc.dictionary_encode(batch.column(surface).combine_chunks())
        t = pc.dictionary_encode(batch.column(mtype).combine_chunks(), null_encoding="encode")
        n_types = max(len(t.dictionary), 1)
        pair = s.indices.to_numpy().astype(np.int64) * n_types + t.indices.to_numpy()
        distinct, inverse = np.unique(pair, return_inverse=True)
        surfaces = s.dictionary.take(distinct // n_types).to_pylist()
        types = t.dictionary.take(distinct % n_types).to_pylist()
        linked = pa.array([link(x, y) for x, y in zip(surfaces, types)], pa.string())
        return linked.take(inverse)

    out = batch.append_column("subj_id", ids("subj", "subj_type"))
    return out.append_column("obj_id", ids("obj", "obj_type"))


def link_triples_batch(batch: pa.Table) -> pa.Table:
    return link_endpoints(batch, _link_cached)


# ------------------------------------------------------- wide-phase schemas

ENTITY, EDGE = 0, 1  # the ``kind`` tag of partial and reduced rows
EDGE_KEYS = ["subj_id", "pred", "obj_id"]
MAX_EDGE_SOURCES = 8

ENTITY_PARTIALS = pa.schema(
    [
        ("entity_id", pa.string()),
        ("surface", pa.string()),
        ("type", pa.string()),
        ("n", pa.int64()),
    ]
)
EDGE_PARTIALS = pa.schema(
    [
        ("subj_id", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("source", pa.string()),
        ("n", pa.int64()),  # the edge weight, on its first source row only
    ]
)
# union of both partials, keyed by ENTITY_PARTIALS.entity_id /
# EDGE_PARTIALS.subj_id; a column the row's kind lacks is null
GRAPH_PARTIALS = pa.schema(
    [
        ("key", pa.string()),
        ("kind", pa.int8()),
        ("surface", pa.string()),
        ("type", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("source", pa.string()),
        ("n", pa.int64()),
    ]
)
# union of ENTITIES and EDGES rows, keyed the same way
GRAPH = pa.schema(
    [
        ("key", pa.string()),
        ("kind", pa.int8()),
        ("canonical", pa.string()),
        ("type", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("support", pa.int64()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("weight", pa.int64()),
        ("sources", pa.list_(pa.string())),
    ]
)


def tagged(kind: int, t: pa.Table, schema: pa.Schema) -> pa.Table:
    """``t`` as ``schema`` rows of one kind. A keyed ``schema`` takes
    its ``key`` from ``t``'s first column; a column ``t`` lacks is null."""
    n = t.num_rows
    cols = {"kind": pa.array(np.full(n, kind, np.int8))}
    if "key" in schema.names:
        cols["key"] = t.column(0)
    return pa.table(
        [
            cols[f.name] if f.name in cols
            else t.column(f.name) if f.name in t.column_names
            else pa.nulls(n, f.type)
            for f in schema
        ],
        schema=schema,
    )


def untagged(t: pa.Table, kind: int, schema: pa.Schema) -> pa.Table:
    """Inverse of :func:`tagged`: the ``kind`` rows of ``t`` as ``schema``."""
    return strip_tag(t.filter(pc.equal(t.column("kind"), kind)), schema)


def strip_tag(rows: pa.Table, schema: pa.Schema) -> pa.Table:
    """Tagged ``rows``, all of one kind, as ``schema``."""
    if "key" not in rows.column_names:
        return rows.select(schema.names)
    return rows.select(["key", *schema.names[1:]]).rename_columns(schema.names)


def run_offsets(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Start offsets of the runs of equal ``keys`` in ``t`` (sorted by
    them), closed by ``t.num_rows`` — ListArray offsets of the groups.
    The keys are never null: entity ids, predicates or row tags."""
    n = t.num_rows
    new = np.ones(n, dtype=bool)
    if n > 1:
        same = np.ones(n - 1, dtype=bool)
        for k in keys:
            col = t.column(k)
            same &= pc.equal(col.slice(1), col.slice(0, n - 1)).to_numpy()
        new[1:] = ~same
    return np.append(np.flatnonzero(new), n).astype(np.int32)


def _ascending(keys: list[str]) -> list[tuple[str, str]]:
    return [(k, "ascending") for k in keys]


def _sum_n(t: pa.Table, keys: list[str]) -> pa.Table:
    """``keys`` + the total ``n`` per distinct ``keys``, sorted by them."""
    g = t.group_by(keys).aggregate([("n", "sum")])
    return g.select([*keys, "n_sum"]).rename_columns([*keys, "n"]).sort_by(_ascending(keys))


def _edge_sources(t: pa.Table) -> pa.Table:
    """The distinct (subj_id, pred, obj_id, source) rows of ``t``, sorted."""
    keys = [*EDGE_KEYS, "source"]
    return t.group_by(keys).aggregate([]).sort_by(_ascending(keys))


# ---------------------------------------------------------------- partials


def entity_partials_batch(batch: pa.Table) -> pa.Table:
    """Linked triples → ENTITY_PARTIALS: (entity_id, surface, type)
    counts over BOTH endpoints, one row per distinct key in the batch.
    Untyped objects count under type "" (the oracle's ``obj_type or ""``)."""
    cols = ENTITY_PARTIALS.names[:3]
    obj = batch.select(["obj_id", "obj", "obj_type"]).rename_columns(cols)
    ends = pa.concat_tables(
        [
            batch.select(["subj_id", "subj", "subj_type"]).rename_columns(cols),
            obj.set_column(2, "type", pc.fill_null(obj.column("type"), "")),
        ]
    )
    g = ends.group_by(cols).aggregate([([], "count_all")])
    return g.select([*cols, "count_all"]).rename_columns(ENTITY_PARTIALS.names)


def edge_partials_batch(batch: pa.Table) -> pa.Table:
    """Linked triples → EDGE_PARTIALS: per edge, its first
    MAX_EDGE_SOURCES distinct urls in sorted order, the edge weight
    carried on the first of them (so the reduce sums without double
    counting).

    Cap-after-sort determinism: the union of per-block sorted-first-K
    source samples, sorted and re-capped in the reduce, equals the
    global sorted-first-K (any url in the global first K has at most
    K-1 smaller urls in its own block) — oracle-identical."""
    t = batch.select([*EDGE_KEYS, "url"]).rename_columns([*EDGE_KEYS, "source"])
    weight = t.group_by(EDGE_KEYS).aggregate([([], "count_all")]).sort_by(_ascending(EDGE_KEYS))
    src = _edge_sources(t)
    off = run_offsets(src, EDGE_KEYS)  # run i = edge i of ``weight``
    edge = np.repeat(np.arange(len(off) - 1), np.diff(off))
    rank = np.arange(src.num_rows) - off[edge]
    n = np.where(rank == 0, weight.column("count_all").to_numpy()[edge], 0)
    out = src.append_column("n", pa.array(n, pa.int64()))
    return out.filter(pa.array(rank < MAX_EDGE_SOURCES)).select(EDGE_PARTIALS.names)


def graph_partials_batch(batch: pa.Table) -> pa.Table:
    """Linked triples → GRAPH_PARTIALS: both combiners' rows, tagged."""
    return pa.concat_tables(
        [
            tagged(ENTITY, entity_partials_batch(batch), GRAPH_PARTIALS),
            tagged(EDGE, edge_partials_batch(batch), GRAPH_PARTIALS),
        ]
    )


# ----------------------------------------------------------------- reduces


def _top(t: pa.Table, value: str) -> pa.ChunkedArray:
    """Per entity_id of ``t`` (entity_id, value, n), the ``value`` with
    the largest (n, value) — the oracle's ``max((count, value))``."""
    s = t.sort_by([("entity_id", "ascending"), ("n", "descending"), (value, "descending")])
    return s.column(value).take(run_offsets(s, ["entity_id"])[:-1])


def reduce_entities(p: pa.Table) -> pa.Table:
    """ENTITY_PARTIALS holding every partial of its entities → ENTITIES
    in entity_id order: canonical surface and type by (count, value)
    max, aliases = the sorted distinct surfaces, support = the count."""
    surf = _sum_n(p, ["entity_id", "surface"])
    off = run_offsets(surf, ["entity_id"])
    total = np.concatenate([[0], np.cumsum(surf.column("n").to_numpy())])
    return pa.table(
        [
            surf.column("entity_id").take(off[:-1]),
            _top(surf, "surface"),
            _top(_sum_n(p, ["entity_id", "type"]), "type"),
            pa.ListArray.from_arrays(off, surf.column("surface").combine_chunks()),
            pa.array(total[off[1:]] - total[off[:-1]], pa.int64()),
        ],
        schema=ENTITIES,
    )


def reduce_edges(p: pa.Table) -> pa.Table:
    """EDGE_PARTIALS holding every partial of its edges → EDGES in
    (subj_id, pred, obj_id) order: weight = sum, sources = the sorted
    distinct first MAX_EDGE_SOURCES urls."""
    weight = _sum_n(p, EDGE_KEYS)
    src = _edge_sources(p)
    sources = pa.ListArray.from_arrays(
        run_offsets(src, EDGE_KEYS), src.column("source").combine_chunks()
    )
    return pa.table(
        [
            *(weight.column(k) for k in EDGE_KEYS),
            weight.column("n"),
            pc.list_slice(sources, 0, MAX_EDGE_SOURCES),
        ],
        schema=EDGES,
    )


def reduce_graph_block(block: pa.Table) -> pa.Table:
    """One block of GRAPH_PARTIALS sorted by ``key`` → its entities and
    edges as GRAPH rows. Correct only when the block holds every
    partial of each key it contains, which a sort on ``key`` followed by
    whole-block batches guarantees."""
    if block.num_rows == 0:  # an empty sort partition may carry no columns
        return GRAPH.empty_table()
    return pa.concat_tables(
        [
            tagged(ENTITY, reduce_entities(untagged(block, ENTITY, ENTITY_PARTIALS)), GRAPH),
            tagged(EDGE, reduce_edges(untagged(block, EDGE, EDGE_PARTIALS)), GRAPH),
        ]
    )


def entity_rows(graph: pa.Table) -> pa.Table:
    return untagged(graph, ENTITY, ENTITIES)


def edge_rows(graph: pa.Table) -> pa.Table:
    return untagged(graph, EDGE, EDGES)


# perfbench/kernels.py times the kernels through these names, handing
# the reduces their partials as pandas frames.
def make_entity_partials():
    return entity_partials_batch


def make_edge_partials():
    return edge_partials_batch


def reduce_entity_bucket(df) -> pa.Table:
    return reduce_entities(pa.Table.from_pandas(df, ENTITY_PARTIALS, preserve_index=False))


def reduce_edge_bucket(df) -> pa.Table:
    return reduce_edges(pa.Table.from_pandas(df, EDGE_PARTIALS, preserve_index=False))
