"""Distributed PageRank over the constructed knowledge graph.

The engine's KG output is an edge list (subj_id, pred, obj_id,
weight); the first analysis every KG consumer runs on it is a
centrality ranking. This operator is the beyond-reference graph-
analytics layer: weighted PageRank with damping and dangling-mass
redistribution, expressed as bucketed hash-aggregates: rows get a
``hash(key) % num_buckets`` column, and one vectorized pandas call per
bucket reduces every key in it.

Per iteration, TWO bucketed shuffles:

1. **contribution pass** — adjacency rows and current rank rows are
   co-partitioned by ``hash(src)`` (union-tagged rows: one groupby
   sees both sides, no Dataset.join operator cost). One vectorized pandas call per bucket merges ranks onto
   edges, normalizes by the src's out-weight (all of a src's edges
   live in its bucket by construction), and emits per-(bucket, dst)
   partial contribution sums plus one dangling-mass row per bucket.
2. **apply pass** — contributions and the static node list are
   co-partitioned by ``hash(dst)``; one pandas call per bucket sums
   contributions and adds the teleport + dangling base terms
   (missing nodes get base rank — a node with no in-edges must still
   be ranked).

Exact determinism: every per-edge
contribution is computed in float64 (deterministic scalar math), then
QUANTIZED to int64 fixed-point (×2⁴⁰) before any summation — integer
addition is order-free, so ranks are bit-identical at any block
split, task order or cluster size, and the pytest oracle is EXACT
frame equality against a sequential implementation of the same
arithmetic, not an allclose. Mass is normalized to 1, so int64 sums
cannot overflow (Σ contributions ≤ 2⁴⁰ + rounding).

Size switch: an edge list at or under ``PR_EXACT_MAX`` runs the
same quantized arithmetic in one driver numpy pass; tests force the
distributed rounds and pin fast-path == distributed == oracle.

Iterative Ray Data caveat: ranks are ``materialize()``d per round —
a lazy Dataset would re-execute the whole lineage every iteration.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from .agg import scaled_num_buckets
from .dedup import _mix64

PR_DAMPING = 0.85
PR_ITERS = 10
PR_FLOOR_BUCKETS = 16
PR_EXACT_MAX = 1 << 20
_QS = float(1 << 40)  # fixed-point scale for order-free sums


def _q_round(x):
    """Quantize: round half UP (floor(x + 1/2)). Every quantized value
    here is non-negative, where half-up equals SQL ``round``'s
    half-away-from-zero — so the unrolled SQL oracle can reproduce the
    integer stream bit-for-bit (np.rint's half-even CANNOT be matched
    by SQL round, and uniform initial ranks make exact-.5 products
    systematic in early iterations, not a corner case). x + 0.5 is
    exact for |x| < 2**51 (0.5 is a multiple of ulp), so no
    double-rounding."""
    return np.floor(x + 0.5)

# union-tag schema shared by both passes: kind 0=edge, 1=rank/contrib,
# 2=node
_ROWS = pa.schema(
    [
        ("kind", pa.int8()),
        ("a", pa.int64()),  # group key: src (pass 1) / dst or node (pass 2)
        ("b", pa.int64()),  # dst (edge rows only)
        ("w", pa.int64()),  # edge weight (edge rows only)
        ("q", pa.int64()),  # quantized rank/contribution
    ]
)


def _rows_table(kind, a, b, w, q) -> pa.Table:
    n = len(a)
    return pa.table(
        {
            "kind": pa.array(np.full(n, kind, dtype=np.int8)),
            "a": pa.array(np.asarray(a, dtype=np.int64)),
            "b": pa.array(np.asarray(b, dtype=np.int64)),
            "w": pa.array(np.asarray(w, dtype=np.int64)),
            "q": pa.array(np.asarray(q, dtype=np.int64)),
        },
        schema=_ROWS,
    )


def _bucket_groupby(ds: rd.Dataset, num_buckets: int, reduce_fn) -> rd.Dataset:
    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df["_b"] = (
            _mix64(df["a"].to_numpy().astype(np.uint64)) % np.uint64(num_buckets)
        ).astype("int32")
        return df

    def reduce(g: pd.DataFrame):
        return reduce_fn(g.drop(columns=["_b"]))

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(reduce, batch_format="pandas")
    )


def _contrib_bucket(damping: float):
    def reduce(g: pd.DataFrame) -> pa.Table:
        edges = g[g["kind"] == 0]
        ranks = g[g["kind"] == 1][["a", "q"]]
        out_tabs = []
        if len(edges):
            m = edges.merge(ranks, on="a", suffixes=("", "_r"))
            out_w = m.groupby("a")["w"].transform("sum").to_numpy()
            rank = m["q_r"].to_numpy() / _QS
            contrib = damping * rank * (m["w"].to_numpy() / out_w)
            cq = _q_round(contrib * _QS).astype(np.int64)
            part = (
                pd.DataFrame({"a": m["b"].to_numpy(), "cq": cq})
                .groupby("a", as_index=False)["cq"]
                .sum()
            )
            out_tabs.append(
                _rows_table(1, part["a"], np.zeros(len(part)), np.zeros(len(part)), part["cq"])
            )
        # dangling: ranked nodes with no out-edges in this bucket's view
        # (all of a node's out-edges share its bucket, so "none here"
        # means none anywhere)
        dang = ranks[~ranks["a"].isin(edges["a"])] if len(ranks) else ranks
        if len(dang):
            dq = _q_round(damping * (dang["q"].to_numpy() / _QS) * _QS).astype(np.int64)
            out_tabs.append(_rows_table(3, [-1], [0], [0], [int(dq.sum())]))
        if not out_tabs:
            return _rows_table(1, [], [], [], [])
        return pa.concat_tables(out_tabs)

    return reduce


def _apply_bucket(base_q_term: float):
    """base_q_term = ((1-d)/n + d·dangling/n) × QS, a driver scalar."""

    def reduce(g: pd.DataFrame) -> pa.Table:
        nodes = g[g["kind"] == 2]["a"]
        contribs = g[g["kind"] == 1].groupby("a")["q"].sum()
        q = (
            _q_round(base_q_term)
            + contribs.reindex(nodes.to_numpy(), fill_value=0).to_numpy()
        ).astype(np.int64)
        return _rows_table(1, nodes.to_numpy(), np.zeros(len(nodes)), np.zeros(len(nodes)), q)

    return reduce


def _dangling_total(contribs: rd.Dataset) -> int:
    """Σ of the kind-3 rows: one short row per block to the driver."""

    def partial(t: pa.Table) -> pa.Table:
        kind = t.column("kind").to_numpy(zero_copy_only=False)
        q = t.column("q").to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array([int(q[kind == 3].sum())], pa.int64())})

    s = 0
    for t in contribs.map_batches(
        partial, batch_size=None, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        s += sum(t["s"].to_pylist())
    return s


def pagerank(
    edges: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    damping: float = PR_DAMPING,
    iters: int = PR_ITERS,
    n_edges: int | None = None,
    num_buckets: int | None = None,
    force_distributed: bool = False,
) -> rd.Dataset:
    """(node, rank) over the directed weighted edge list; ranks sum to
    1.0 (teleport + dangling redistribution). See module docstring."""
    if num_buckets is None:
        num_buckets = scaled_num_buckets(n_edges, floor=PR_FLOOR_BUCKETS)

    def project(t: pa.Table) -> pa.Table:
        n = t.num_rows
        w = (
            t.column(weight_col).to_numpy(zero_copy_only=False)
            if weight_col
            else np.ones(n, dtype=np.int64)
        )
        return _rows_table(
            0,
            t.column(src_col).to_numpy(zero_copy_only=False),
            t.column(dst_col).to_numpy(zero_copy_only=False),
            w,
            np.zeros(n),
        )

    adj = edges.map_batches(project, batch_format="pyarrow").materialize()
    n_edge_rows = adj.count()
    if n_edge_rows == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "rank": pa.array([], pa.float64())})
        )

    if not force_distributed and n_edge_rows <= PR_EXACT_MAX:
        df = adj.to_pandas()  # bounded by the switch
        return rd.from_arrow(
            _driver_pagerank(
                df["a"].to_numpy(), df["b"].to_numpy(), df["w"].to_numpy(), damping, iters
            )
        )

    # node list (distinct src ∪ dst) — one bucketed distinct, built once
    def node_rows(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        u = np.unique(np.concatenate([a, b]))
        z = np.zeros(len(u))
        return _rows_table(2, u, z, z, z)

    def distinct_nodes(g: pd.DataFrame) -> pa.Table:
        u = np.unique(g["a"].to_numpy())
        z = np.zeros(len(u))
        return _rows_table(2, u, z, z, z)

    nodes = _bucket_groupby(
        adj.map_batches(node_rows, batch_format="pyarrow"), num_buckets, distinct_nodes
    ).materialize()
    n = nodes.count()

    # init: uniform 1/n, quantized
    q0 = int(_q_round(_QS / n))

    def init_ranks(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        z = np.zeros(len(a))
        return _rows_table(1, a, z, z, np.full(len(a), q0, dtype=np.int64))

    ranks = nodes.map_batches(init_ranks, batch_format="pyarrow").materialize()

    for _ in range(iters):
        contribs = _bucket_groupby(
            adj.union(ranks), num_buckets, _contrib_bucket(damping)
        ).materialize()
        dangling_q = _dangling_total(contribs)
        base_q = (1.0 - damping) * _QS / n + dangling_q / n

        def drop_dangling(t: pa.Table) -> pa.Table:
            kind = t.column("kind").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(kind != 3))

        ranks = _bucket_groupby(
            contribs.map_batches(drop_dangling, batch_format="pyarrow").union(nodes),
            num_buckets,
            _apply_bucket(base_q),
        ).materialize()

    def emit(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("a"),
                "rank": pa.array(
                    t.column("q").to_numpy(zero_copy_only=False) / _QS, pa.float64()
                ),
            }
        )

    return ranks.map_batches(emit, batch_format="pyarrow")


def _driver_pagerank(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, damping: float, iters: int
) -> pa.Table:
    """Sub-PR_EXACT_MAX fast path AND the sequential oracle: the same
    quantized arithmetic in one numpy pass (np.add.at sums ints in
    index order — order-free like the distributed integer sums)."""
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    cs, cd = codes[: len(src)], codes[len(src) :]
    n = len(nodes)
    out_w = np.zeros(n, dtype=np.int64)
    np.add.at(out_w, cs, w.astype(np.int64))
    has_out = out_w > 0
    q = np.full(n, int(_q_round(_QS / n)), dtype=np.int64)
    for _ in range(iters):
        rank = q / _QS
        contrib = damping * rank[cs] * (w / out_w[cs])
        cq = _q_round(contrib * _QS).astype(np.int64)
        in_q = np.zeros(n, dtype=np.int64)
        np.add.at(in_q, cd, cq)
        dangling_q = int(_q_round(damping * (q[~has_out] / _QS) * _QS).astype(np.int64).sum())
        base_q = (1.0 - damping) * _QS / n + dangling_q / n
        q = (_q_round(base_q) + in_q).astype(np.int64)
    return pa.table(
        {
            "node": pa.array(nodes.astype(np.int64)),
            "rank": pa.array(q / _QS, pa.float64()),
        }
    )


# ------------------------------------------------------ query entry


def entity_pagerank(sf_dir: str) -> rd.Dataset:
    """Centrality of KG entities: PageRank over the synthetic spine's
    edge list (subj_id → obj_id, weighted). Entity ids are hashed to
    int64 node ids for the rank loop and joined back for output.
    Rows-only at the driver gate (the NER-spine input graph has no
    SQL); the quantized loop ITSELF is SQL-gated via
    ``born_entity_pagerank`` (same code path over the SQL-derivable
    born graph) and pinned by the exact-equality oracle and invariance
    tests in pytest."""
    import importlib

    entry = importlib.import_module("__ray_entry__")
    edges = entry.queries()["kg_edges"](sf_dir)
    return entity_pagerank_over(edges)


def entity_pagerank_over(
    edges: rd.Dataset,
    force_distributed: bool = False,
    iters: int = PR_ITERS,
    num_buckets: int | None = None,
) -> rd.Dataset:
    """PageRank over any (subj_id, obj_id, weight) entity edge list."""

    # entity_id (string) → stable int64 node id; keep the mapping as a
    # broadcast-scale side table for the final join-back. The FULL
    # 64-bit hash is kept (uint64 bit pattern reinterpreted as int64,
    # so node ids can be negative — every downstream consumer either
    # tags rows by `kind` or re-hashes through uint64): an np.abs here
    # would halve the hash space (x and -x collide, abs(INT64_MIN)
    # stays negative) and at 1e9 entities the birthday bound makes a
    # silent rank merge ~10% likely. Residual full-width collisions
    # are DETECTED in join_bucket below and raise instead of deduping.
    def to_int_edges(t: pa.Table) -> pa.Table:
        import pandas as pd

        s = pd.Series(t.column("subj_id").to_pylist())
        o = pd.Series(t.column("obj_id").to_pylist())
        hs = pd.util.hash_pandas_object(s, index=False).to_numpy().astype(np.int64)
        ho = pd.util.hash_pandas_object(o, index=False).to_numpy().astype(np.int64)
        return pa.table(
            {
                "src": pa.array(hs),
                "dst": pa.array(ho),
                "weight": t.column("weight"),
                "subj_id": t.column("subj_id"),
                "obj_id": t.column("obj_id"),
            }
        )

    int_edges = edges.map_batches(to_int_edges, batch_format="pyarrow").materialize()
    ranks = pagerank(
        int_edges,
        weight_col="weight",
        force_distributed=force_distributed,
        iters=iters,
        num_buckets=num_buckets,
    )

    # join back node-hash → entity_id WITHOUT collecting the mapping:
    # a reduce-side union-tag join — mapping rows and rank rows co-partition by hash(node), one
    # vectorized merge per bucket. Scales with the entity count.
    def mapping_rows(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "node": np.concatenate(
                    [
                        t.column("src").to_numpy(zero_copy_only=False),
                        t.column("dst").to_numpy(zero_copy_only=False),
                    ]
                ),
                "entity_id": t.column("subj_id").to_pylist()
                + t.column("obj_id").to_pylist(),
            }
        ).drop_duplicates()  # distinct (node, entity_id) PAIRS — a
        # plain drop_duplicates("node") would mask a hash collision
        # inside the batch; join_bucket checks across batches too
        return pa.table(
            {
                "node": pa.array(df["node"].to_numpy(), pa.int64()),
                "entity_id": pa.array(df["entity_id"], pa.string()),
                "rank": pa.array(np.full(len(df), np.nan), pa.float64()),
            }
        )

    def rank_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "node": t.column("node"),
                "entity_id": pa.array([None] * n, pa.string()),
                "rank": t.column("rank"),
            }
        )

    tagged = int_edges.map_batches(mapping_rows, batch_format="pyarrow").union(
        ranks.map_batches(rank_rows, batch_format="pyarrow")
    )

    def add_bucket(df):
        import pandas as pd

        df["_b"] = (
            _mix64(df["node"].to_numpy().astype(np.uint64)) % np.uint64(64)
        ).astype("int32")
        return df

    def join_bucket(g) -> pa.Table:
        m = g[g["entity_id"].notna()][["node", "entity_id"]].drop_duplicates()
        # collision detection: two distinct entity_ids hashing to one
        # node would have been silently MERGED by the rank loop — fail
        # loudly (all copies of a node land in this bucket, so the
        # check is complete)
        dup = m["node"].duplicated()
        if dup.any():
            bad = m[m["node"].isin(m.loc[dup, "node"])]
            raise ValueError(
                "entity_id hash collision on int64 node id(s): "
                + ", ".join(
                    f"{n}->{sorted(sub['entity_id'])}" for n, sub in bad.groupby("node")
                )
            )
        r = g[g["entity_id"].isna()][["node", "rank"]]
        out = r.merge(m, on="node")
        return pa.table(
            {
                "entity_id": pa.array(out["entity_id"], pa.string()),
                "rank": pa.array(out["rank"].to_numpy(), pa.float64()),
            }
        )

    return (
        tagged.map_batches(add_bucket, batch_format="pandas")
        .groupby("_b")
        .map_groups(lambda g: join_bucket(g.drop(columns=["_b"])), batch_format="pandas")
        .sort("entity_id")
    )


# --------------------------------------------- SQL oracle (unrolled)

def unrolled_pagerank_sql(
    edges_sql: str,
    iters: int = PR_ITERS,
    damping: float = PR_DAMPING,
) -> str:
    """ANSI-SQL replica of the QUANTIZED rank loop, iterations
    unrolled into a CTE chain — exact integer equality with the
    engine is possible because every float step here mirrors the
    numpy expression tree operation-for-operation (IEEE 754 * and /
    are correctly rounded, so identical trees give identical
    doubles; only rint-vs-round half cases could differ, and those
    need a product landing on an exact .5 — never observed across
    the test tiers). ``edges_sql`` must yield (src, dst, w).

    NOTE ``(1.0 - {damping})`` is deliberate — Python computes
    ``1.0 - 0.85 = 0.15000000000000002``, which is NOT double(0.15),
    so the SQL must perform the same subtraction rather than inline
    the decimal literal."""
    qs = f"{_QS!r}"  # 1099511627776.0 — exact double literal
    parts = [
        f"WITH edges AS MATERIALIZED ({edges_sql})",
        """nodes AS MATERIALIZED (
  SELECT DISTINCT node FROM (
    SELECT src AS node FROM edges UNION ALL SELECT dst FROM edges
  )
)""",
        "nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nodes)",
        "outw AS MATERIALIZED (SELECT src, CAST(SUM(w) AS BIGINT) AS out_w FROM edges GROUP BY src)",
        f"r0 AS MATERIALIZED (SELECT node, CAST(round({qs} / nn.n) AS BIGINT) AS q FROM nodes CROSS JOIN nn)",
    ]
    d = f"CAST({damping!r} AS DOUBLE)"
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(f"""c{k} AS MATERIALIZED (
  SELECT e.dst AS node,
         CAST(SUM(CAST(round((({d} * (r.q / {qs})) * (CAST(e.w AS DOUBLE) / ow.out_w)) * {qs}) AS BIGINT)) AS BIGINT) AS cq
  FROM edges e JOIN r{p} r ON r.node = e.src JOIN outw ow ON ow.src = e.src
  GROUP BY e.dst
)""")
        parts.append(f"""d{k} AS MATERIALIZED (
  SELECT COALESCE(SUM(CAST(round(({d} * (r.q / {qs})) * {qs}) AS BIGINT)), 0) AS dq
  FROM r{p} r LEFT JOIN outw ow ON ow.src = r.node WHERE ow.src IS NULL
)""")
        parts.append(f"""r{k} AS MATERIALIZED (
  SELECT n.node,
         CAST(round((((CAST(1.0 AS DOUBLE) - {d}) * {qs}) / nn.n) + (d{k}.dq / nn.n)) AS BIGINT)
           + COALESCE(c.cq, 0) AS q
  FROM nodes n CROSS JOIN nn CROSS JOIN d{k} LEFT JOIN c{k} c ON c.node = n.node
)""")
    body = ",\n".join(parts)
    return f"{body}\nSELECT node AS entity_id, q / {qs} AS rank FROM r{iters} ORDER BY entity_id"
