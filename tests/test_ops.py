"""Ops-layer tests: SQL-checked representatives vs DuckDB at sf0.001,
plus semantic tests for the sketch-based ops (planted near-duplicates,
ANN recall, multimodal plumbing) that have no SQL oracle."""

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: tuple(v))  # list cols sort as tuples
        if pd.api.types.is_integer_dtype(df[c].dtype):
            df[c] = df[c].astype("int64")
        if pd.api.types.is_float_dtype(df[c].dtype):
            df[c] = df[c].astype("float64").round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _check(fn, sql, con):
    got = fn(SF)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    got = _norm(got)
    want = _norm(con.sql(sql).df())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-6)


def test_lineitem_pricing_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.lineitem_pricing, relational.LINEITEM_PRICING_SQL, con)


def test_broadcast_join_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.customers_per_region, relational.CUSTOMERS_PER_REGION_SQL, con)


def test_events_hourly_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.events_hourly, relational.EVENTS_HOURLY_SQL, con)


def test_bloom_anti_join_matches_exact():
    """Force the Bloom path (exact_max=0): the prefilter + shuffle
    left-outer backstop must stay EXACT (false positives re-checked).
    Runs at sf0.01 — the sf0.001 result is EMPTY and an empty Dataset
    loses its schema in to_pandas, which would vacuously pass."""
    sf = "/root/testdata/sf0.01"
    from transner_ray.ops import relational

    c = duckdb.connect()
    c.sql(f"CREATE VIEW orders AS SELECT * FROM read_parquet('{sf}/orders.parquet')")
    c.sql(f"CREATE VIEW customer AS SELECT * FROM read_parquet('{sf}/customer.parquet')")
    got = _norm(relational.customers_without_big_orders(sf, exact_max=0).to_pandas())
    want = _norm(c.sql(relational.CUSTOMERS_WITHOUT_BIG_ORDERS_SQL).df())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-6)


def test_exact_dedup_vs_duckdb(con):
    from transner_ray.ops import dedup

    _check(dedup.exact_dedup, dedup.EXACT_DEDUP_SQL, con)


def test_media_metadata_vs_duckdb(con):
    from transner_ray.ops import multimodal

    _check(multimodal.media_metadata, multimodal.MEDIA_METADATA_SQL, con)


def test_media_features_vs_duckdb(con):
    """Feature-extract stage: vectorized byte stats over the payload
    body must equal the DuckDB char-stat mirror (ASCII corpus)."""
    from transner_ray.ops import multimodal

    _check(multimodal.media_features, multimodal.MEDIA_FEATURES_SQL, con)


def test_frame_sample_vs_duckdb(con):
    """Video frame sampling: every 4th frame of the fake container,
    frame byte counts closed-form in SQL."""
    from transner_ray.ops import multimodal

    _check(multimodal.frame_sample, multimodal.FRAME_SAMPLE_SQL, con)


def test_fake_video_roundtrip():
    """Container codec sanity (no Ray): frames survive the walk, and
    frame i holds exactly the bytes at positions ≡ i mod n."""
    import struct

    from transner_ray.ops import multimodal

    body = b"the quick brown fox jumps over the lazy dog once"
    n = 8 + 3 % 9  # doc_id = 3 → 11 frames
    frames = [body[k::n] for k in range(n)]
    blob = multimodal.encode_fake_video(frames)
    assert blob[: len(multimodal.VID_MAGIC)] == multimodal.VID_MAGIC
    (nf,) = struct.unpack(
        "<H", blob[len(multimodal.VID_MAGIC) : multimodal.VID_HEADER_LEN]
    )
    assert nf == n
    pos = multimodal.VID_HEADER_LEN
    out = []
    for _ in range(nf):
        (ln,) = struct.unpack("<I", blob[pos : pos + 4])
        out.append(blob[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    assert out == frames
    assert b"".join(
        bytes([body[i]]) for i in range(len(body))
    ) == body  # positions ≡ k mod n partition the body
    assert sum(len(f) for f in frames) == len(body)


# ------------------------------------------------- planted near-dups

@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """A corpus with known near-duplicate pairs: (0,1) word-edit dup,
    (2,3) identical, (4,5) char-level edit, 6..15 unrelated."""
    base = (
        "the quick brown fox jumps over the lazy dog while the rain falls on "
        "the quiet town and the river runs to the sea past the old mill"
    )
    texts = {
        0: base,
        1: base.replace("quiet", "sleepy"),
        2: "identical content here for exact duplicate detection",
        3: "identical content here for exact duplicate detection",
        4: "abcdefghijklmnopqrstuvwxyz " * 6,
        5: ("abcdefghijklmnopqrstuvwxyz " * 6)[:-10] + "abcdEFGhij",
    }
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "zeta", "theta"]
    for i in range(6, 16):
        texts[i] = " ".join(vocab[j] for j in rng.integers(0, len(vocab), 30)) + f" uniq{i}"
    d = tmp_path_factory.mktemp("planted")
    path = str(d / "documents.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
            }
        ),
        path,
    )
    return str(d)


def test_minhash_finds_planted_pairs(planted):
    from transner_ray.ops import dedup

    pairs = dedup.minhash_dedup(planted, jaccard_threshold=0.5).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in found and (2, 3) in found
    # unrelated docs don't pair with the planted dups
    assert not any(a >= 6 or b >= 6 for a, b in found)


def test_simhash_finds_planted_pairs(planted):
    from transner_ray.ops import dedup

    pairs = dedup.simhash_dedup(planted, max_hamming=6).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (2, 3) in found  # identical -> hamming 0
    assert (0, 1) in found  # one-word edit -> tiny hamming


def test_ngram_jaccard_finds_char_edit(planted):
    from transner_ray.ops import dedup

    pairs = dedup.ngram_jaccard_dedup(planted, jaccard_threshold=0.6).to_pandas()
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (4, 5) in found and (2, 3) in found


def test_embedding_neardup_finds_planted(tmp_path):
    from transner_ray.ops import dedup

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((40, 16)).astype(np.float32)
    vecs[1] = vecs[0] + rng.standard_normal(16).astype(np.float32) * 0.01  # near-dup pair (0,1)
    vecs[3] = vecs[2]  # exact dup pair (2,3)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(40), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    pairs = dedup.embedding_neardup(str(tmp_path), cos_threshold=0.95).to_pandas()
    found = set(zip(pairs["vec_a"], pairs["vec_b"]))
    assert (0, 1) in found and (2, 3) in found


# ----------------------------------- dedup vs sequential oracles (round 2)


def _seq_lsh_pairs(sf_dir, featurizer, threshold):
    """Sequential reference for the LSH dedup ops: same hash/signature
    functions, ALL-pairs per band group (no cap), the same
    deterministic signature-estimate prefilter, exact Jaccard. Ray
    output must equal this exactly wherever no band group exceeds
    GROUP_PAIR_CAP (true at this sf)."""
    from collections import defaultdict

    from transner_ray.ops import dedup

    df = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    feats = {int(i): featurizer(t) for i, t in zip(df["doc_id"], df["text"])}
    sigs = {i: dedup._minhash_signature(f) for i, f in feats.items()}
    rows_per_band = dedup.NUM_PERM // dedup.NUM_BANDS
    groups = defaultdict(set)
    for i, sig in sigs.items():
        chunks = sig.reshape(dedup.NUM_BANDS, rows_per_band)
        keys = np.bitwise_xor.reduce(chunks, axis=1) ^ np.arange(
            dedup.NUM_BANDS, dtype=np.uint64
        )
        mixed = dedup._mix64(keys)
        for b in range(dedup.NUM_BANDS):
            groups[(b, int(mixed[b]))].add(i)
    cand = set()
    for ids in groups.values():
        ids = sorted(ids)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                cand.add((ids[x], ids[y]))
    est_cut = dedup.est_jaccard_threshold(threshold)
    rows = []
    for a, b in sorted(cand):
        if float((sigs[a] == sigs[b]).mean()) < est_cut:
            continue  # same deterministic prefilter as the Ray path
        ha, hb = feats[a], feats[b]
        inter = np.intersect1d(ha, hb, assume_unique=True).size
        union = ha.size + hb.size - inter
        j = inter / union if union else 0.0
        if j >= threshold:
            rows.append((a, b, round(j, 4)))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"]).astype(
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}
    )


def test_minhash_matches_sequential_oracle():
    from transner_ray.ops import dedup

    got = dedup.minhash_dedup(SF, jaccard_threshold=0.5).to_pandas().reset_index(drop=True)
    want = _seq_lsh_pairs(SF, dedup._word_shingle_hashes, 0.5)
    pd.testing.assert_frame_equal(got, want)


def test_ngram_jaccard_matches_sequential_oracle():
    from transner_ray.ops import dedup

    got = dedup.ngram_jaccard_dedup(SF, jaccard_threshold=0.6).to_pandas().reset_index(drop=True)
    want = _seq_lsh_pairs(SF, dedup._char_ngram_hashes, 0.6)
    pd.testing.assert_frame_equal(got, want)


def test_simhash_matches_bruteforce_exactly():
    """The max_hamming+1 banding has FULL recall (pigeonhole) and the
    verify is the exact hamming, so the op must equal the quadratic
    brute force EXACTLY — not just contain planted pairs."""
    from transner_ray.ops import dedup

    max_h = 3
    df = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sigs = {int(i): dedup._simhash64(t) for i, t in zip(df["doc_id"], df["text"])}
    rows = []
    ids = sorted(sigs)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            h = bin(sigs[ids[x]] ^ sigs[ids[y]]).count("1")
            if h <= max_h:
                rows.append((ids[x], ids[y], h))
    want = pd.DataFrame(rows, columns=["doc_a", "doc_b", "hamming"]).astype("int64")
    got = dedup.simhash_dedup(SF, max_hamming=max_h).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


@pytest.fixture(scope="module")
def skewed(tmp_path_factory):
    """Adversarial band skew: 200 identical docs (every band group is
    one giant cluster, > GROUP_PAIR_CAP) plus 10 distinct docs."""
    texts = {}
    boiler = "breaking news today the market moved and analysts watched closely " * 5
    for i in range(100, 300):
        texts[i] = boiler
    rng = np.random.default_rng(11)
    vocab = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "zeta"]
    for i in range(10):
        texts[i] = " ".join(vocab[j] for j in rng.integers(0, len(vocab), 40)) + f" uniq{i}"
    d = tmp_path_factory.mktemp("skewed")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(texts), pa.int64()),
                "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_minhash_skewed_band_emits_star_pairs(skewed):
    """A 200-doc identical cluster must emit 199 star pairs (anchor =
    min doc_id), NOT 19900 all-pairs — the GROUP_PAIR_CAP bound that
    keeps a boilerplate cluster linear at corpus scale. Connectivity
    (one component) is preserved; jaccard of every star pair is 1."""
    from transner_ray.ops import dedup

    pairs = dedup.minhash_dedup(skewed, jaccard_threshold=0.5).to_pandas()
    cluster = pairs[(pairs["doc_a"] >= 100) | (pairs["doc_b"] >= 100)]
    assert len(cluster) == 199
    assert (cluster["doc_a"] == 100).all()
    assert sorted(cluster["doc_b"]) == list(range(101, 300))
    assert (cluster["jaccard"] == 1.0).all()


def test_simhash_skewed_band_bounded(skewed):
    from transner_ray.ops import dedup

    pairs = dedup.simhash_dedup(skewed, max_hamming=3).to_pandas()
    cluster = pairs[(pairs["doc_a"] >= 100) | (pairs["doc_b"] >= 100)]
    assert len(cluster) == 199  # star, not quadratic
    assert (cluster["doc_a"] == 100).all()
    assert (cluster["hamming"] == 0).all()


def test_band_group_pairs_contract():
    """Pins _band_group_pairs' two regimes: all-pairs for groups
    ≤ GROUP_PAIR_CAP, anchor-star above it (the documented recall
    bound: member↔member pairs of an oversized group are NOT emitted
    from that group — they surface only via other-band collisions)."""
    from transner_ray.ops import dedup

    sig = np.uint64(1).tobytes() * 8  # placeholder blob, unused here
    small_ids = [10, 11, 12]
    big_ids = list(range(1000, 1000 + dedup.GROUP_PAIR_CAP + 50))
    g = pd.DataFrame(
        {
            "band": [0] * len(small_ids) + [1] * len(big_ids),
            "band_key": [7] * len(small_ids) + [9] * len(big_ids),
            "doc_id": small_ids + big_ids,
            "sig": [sig] * (len(small_ids) + len(big_ids)),
        }
    )
    p = dedup._band_group_pairs(g)
    small = p[p["doc_id_x"] < 1000]
    assert set(zip(small["doc_id_x"], small["doc_id_y"])) == {(10, 11), (10, 12), (11, 12)}
    big = p[p["doc_id_x"] >= 1000]
    # star: every pair anchored at min doc_id, exactly m-1 pairs
    assert len(big) == len(big_ids) - 1
    assert (big["doc_id_x"] == 1000).all()
    assert sorted(big["doc_id_y"]) == big_ids[1:]


def test_embedding_neardup_heavy_bucket(tmp_path):
    """Adversarially heavy SRP bucket: 300 vectors share a dominant
    direction (most land in one bucket) but pairwise cosine stays
    below threshold except the planted exact dup — the chunked-matmul
    verify must stay memory-bounded and exact (pair_chunk=16 forces
    many chunks)."""
    from transner_ray.ops import dedup

    rng = np.random.default_rng(9)
    base = np.zeros(16)
    base[0] = 10.0
    vecs = base[None, :] + rng.standard_normal((300, 16)) * 1.5
    vecs[1] = vecs[0]  # planted exact dup
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(300), pa.int64()),
                "embedding": pa.array([list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    pairs = dedup.embedding_neardup(str(tmp_path), cos_threshold=0.999, pair_chunk=16).to_pandas()
    found = set(zip(pairs["vec_a"], pairs["vec_b"]))
    assert (0, 1) in found
    # chunked path agrees with a single dense verify
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = norm @ norm.T
    iu = np.triu_indices(300, 1)
    n_true = int((sims[iu] >= 0.999).sum())
    assert len(pairs) == n_true


def test_dedup_invariant_to_block_count(monkeypatch):
    """Partitioning invariance: the near-dup pair set must be
    byte-identical at different input block counts (all hashing is
    deterministic and bucketed reduces are order-insensitive)."""
    import ray.data as rdata

    from transner_ray.ops import dedup
    from transner_ray.ops import io as ops_io

    results = []
    for nb in (2, 13):
        monkeypatch.setattr(
            ops_io,
            "read_parquet_sized",
            lambda p, columns=None, n=nb: rdata.read_parquet(
                p, columns=columns, override_num_blocks=n
            ),
        )
        results.append(
            dedup.minhash_dedup(SF, jaccard_threshold=0.5).to_pandas().reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(results[0], results[1])


def test_hll_distributed_equals_oracle_and_exact_bound(con):
    """HLL merge must equal the sequential oracle EXACTLY (register
    max is order-free) and land within the published error bound of
    the exact distinct count."""
    from transner_ray.ops import sketches

    got = sketches.approx_distinct_tokens(SF)
    want = sketches.hll_oracle(SF)
    pd.testing.assert_frame_equal(got, want)
    exact = con.sql(
        "SELECT count(DISTINCT w) FROM (SELECT unnest(string_split_regex("
        "trim(lower(text)), '\\s+')) AS w FROM documents)"
    ).fetchone()[0]
    est = int(got["approx_distinct"].iloc[0])
    # 3σ bound at p=12: 3 × 1.04/√4096 ≈ 4.9 %
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_pagerank_distributed_equals_driver_and_float_reference():
    """The distributed quantized PageRank must equal the driver fast
    path EXACTLY (same integer arithmetic, order-free sums) and match
    a plain float power iteration to quantization precision; bucket-
    count invariant."""
    import ray.data as rd

    from transner_ray.ops import pagerank as pr

    rng = np.random.default_rng(9)
    src = rng.integers(0, 120, 300)
    dst = rng.integers(0, 120, 300)
    w = rng.integers(1, 5, 300)
    ds = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst, "weight": w}))

    def run(**kw):
        return (
            pr.pagerank(ds, weight_col="weight", iters=3, **kw)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )

    fast = run()
    dist = run(force_distributed=True)
    pd.testing.assert_frame_equal(fast, dist)
    pd.testing.assert_frame_equal(
        run(force_distributed=True, num_buckets=3), dist
    )
    assert abs(fast["rank"].sum() - 1.0) < 1e-9

    # independent float reference (no quantization)
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    cs, cd = codes[: len(src)], codes[len(src) :]
    n = len(nodes)
    out_w = np.zeros(n)
    np.add.at(out_w, cs, w.astype(float))
    r = np.full(n, 1.0 / n)
    for _ in range(3):
        nxt = np.zeros(n)
        np.add.at(nxt, cd, 0.85 * r[cs] * (w / out_w[cs]))
        dangling = 0.85 * r[out_w == 0].sum()
        r = nxt + (1 - 0.85) / n + dangling / n
    assert np.abs(fast["rank"].to_numpy() - r).max() < 1e-6


def test_pagerank_dangling_mass_redistributed():
    """A sink node's mass must be redistributed, not lost: ranks still
    sum to 1 and the sink outranks its feeders."""
    import ray.data as rd

    from transner_ray.ops import pagerank as pr

    # 0 -> 2, 1 -> 2; 2 is a sink
    ds = rd.from_pandas(pd.DataFrame({"src": [0, 1], "dst": [2, 2]}))
    got = pr.pagerank(ds).to_pandas().sort_values("node").reset_index(drop=True)
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    assert got.loc[got["node"] == 2, "rank"].iloc[0] > got["rank"].min()


def test_entity_pagerank_over_kg_edges():
    from transner_ray.ops import pagerank as pr

    got = pr.entity_pagerank(SF).to_pandas()
    assert abs(got["rank"].sum() - 1.0) < 1e-6
    assert got["entity_id"].is_unique and len(got) > 100


def test_multimodal_roundtrip_and_resize():
    from transner_ray.ops import multimodal

    blob = multimodal.encode_fake_media(320, 240, b"x" * 100)
    t = pa.table(
        {
            "media_id": pa.array([1], pa.int64()),
            "kind": pa.array(["image"], pa.string()),
            "payload": pa.array([blob], pa.binary()),
        }
    )
    dec = multimodal.MediaDecoder()(t)
    assert dec.column("width")[0].as_py() == 320
    assert dec.column("n_bytes")[0].as_py() == len(blob)
    resized = multimodal.Resizer()(t)
    dec2 = multimodal.MediaDecoder()(resized)
    assert dec2.column("width")[0].as_py() == 160
    assert dec2.column("height")[0].as_py() == 120


def test_real_decoder_is_gated():
    from transner_ray.ops import multimodal

    with pytest.raises(NotImplementedError):
        multimodal.RealImageDecoder()


# ------------------------------------------------- scaled fan-out

def test_scaled_fanout_grows_with_input():
    """VERDICT r2 #1: reduce fan-out must scale with input size — fixed
    64-bucket reduces cap the wide phase at 64 tasks at 100 TB. Floors
    hold at sandbox scale (no small-sf regression); growth is linear
    above the knee; the cap bounds task-count explosion."""
    from transner_ray.ops.agg import (
        MAX_BUCKETS,
        NUM_AGG_BUCKETS,
        ROWS_PER_BUCKET,
        scaled_num_buckets,
    )
    from transner_ray.ops.dedup import _pair_buckets

    assert scaled_num_buckets(None) == NUM_AGG_BUCKETS
    assert scaled_num_buckets(600_000) == NUM_AGG_BUCKETS  # sf0.1 events: floor
    small = scaled_num_buckets(100 * ROWS_PER_BUCKET)
    big = scaled_num_buckets(1000 * ROWS_PER_BUCKET)
    assert small > NUM_AGG_BUCKETS
    assert big == 10 * small  # 10x rows -> 10x buckets above the knee
    assert scaled_num_buckets(10**15) == MAX_BUCKETS
    # pair-generation fan-out: floor at bench scale, grows at corpus scale
    assert _pair_buckets(8_000) == 64
    assert _pair_buckets(10**9) >= 64 * 1000


# --------------------------------------- SQL-checked sketch-op gates

def test_selfdup_pair_gates_vs_duckdb(con):
    """VERDICT r2 #3: the sketch ops' exact-duplicate slices over the
    self-dup-augmented corpus (planted dup of every row) must equal
    their SQL oracles — this drives the full LSH machinery (featurize,
    banding, bucketed pair gen, prefilter, semi-filtered verify join)
    through a value-checked gate instead of rows-only."""
    from transner_ray.ops import dedup

    _check(dedup.minhash_selfdup_pairs, dedup.SELFDUP_PAIRS_SQL, con)
    _check(dedup.ngram_selfdup_pairs, dedup.NGRAM_SELFDUP_PAIRS_SQL, con)
    _check(dedup.simhash_selfdup_pairs, dedup.SIMHASH_SELFDUP_PAIRS_SQL, con)
    _check(dedup.embedding_selfdup_pairs, dedup.EMB_SELFDUP_PAIRS_SQL, con)


def test_neardup_pair_gates_vs_duckdb(con):
    """VERDICT r3 #5: the NEAR-MISS path (similarity in [threshold, 1))
    — planted perturbed dups (one appended word / a sign-preserving
    vector nudge) whose accept/reject decision is exact Jaccard
    computable in DuckDB. Unlike the selfdup gates, the estimate
    prefilter sees values < 1 and the verify sees strict-subset
    feature overlaps; min doc length 10 words means both accept AND
    reject branches occur (d/(d+1) ≥ 0.9 needs d ≥ 9)."""
    from transner_ray.ops import dedup

    _check(dedup.minhash_neardup_pairs, dedup.MINHASH_NEARDUP_PAIRS_SQL, con)
    _check(dedup.ngram_neardup_pairs, dedup.NGRAM_NEARDUP_PAIRS_SQL, con)
    _check(dedup.embedding_neardup_pairs, dedup.EMB_NEARDUP_PAIRS_SQL, con)


def test_dup_window_docs_vs_duckdb(con):
    """Exact duplicated-substring detection: per-doc count of
    word-10-gram window positions whose window occurs ≥ 2× corpus-wide
    — hash-based engine vs string-based SQL (collision check built
    in)."""
    from transner_ray.ops import dedup

    _check(dedup.dup_window_docs, dedup.DUP_WINDOW_DOCS_SQL, con)
    # the gate is non-trivial: some but not all docs carry dup windows
    n = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    hits = con.sql(dedup.DUP_WINDOW_DOCS_SQL).df()
    assert 0 < len(hits) < n


def test_window_hashes_positional():
    """_window_hashes is positional (every window, duplicates kept)
    and order-sensitive."""
    from transner_ray.ops.dedup import _batch_word_hashes, _window_hashes

    H = _batch_word_hashes(["a b c a b c a b"])[0]
    wh = _window_hashes(H, 3)
    assert wh.size == 6  # 8 words → 6 positions
    assert wh[0] == wh[3] and wh[1] == wh[4]  # repeated phrase collides
    assert wh[0] != wh[1]  # order matters
    assert _window_hashes(H[:2], 3).size == 0  # short text → no windows


def test_neardup_gate_rejects_short_docs(con):
    """The near-miss gate's oracle decision is non-trivial: at least
    one doc must fail d/(d+1) ≥ 0.9 (reject branch live) and most must
    pass (accept branch live)."""
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    from transner_ray.ops import dedup

    accepted = con.sql(dedup.MINHASH_NEARDUP_PAIRS_SQL).df()
    assert 0 < len(accepted) < n_docs


def test_kg_regex_mentions_vs_duckdb(con):
    """The regex-PII battery through the REAL extract → split → detect
    path over deterministic carrier pages, value-checked against SQL."""
    import importlib

    e = importlib.import_module("__ray_entry__")
    _check(e.queries()["kg_regex_mentions"], e.oracle_sql()["kg_regex_mentions"], con)


def test_kg_born_chain_vs_duckdb(con):
    """The GRAPH side of the spine (triples → link → edge reduce)
    through the REAL extract → split → detect → triples chain over the
    born-in carrier corpus, value-checked against SQL. Covers the
    born-cue selection in kg.extract_triples, per:/loc: linking, and
    the one-shuffle edge weights."""
    import importlib

    e = importlib.import_module("__ray_entry__")
    q, o = e.queries(), e.oracle_sql()
    _check(q["kg_born_triples"], o["kg_born_triples"], con)
    _check(q["kg_born_edges"], o["kg_born_edges"], con)
    _check(q["kg_born_entities"], o["kg_born_entities"], con)


def _unionfind_components(a, b) -> pd.DataFrame:
    """Sequential oracle: min-id component per node via union-find."""
    parent: dict[int, int] = {}

    def find(x):
        r = x
        while parent.setdefault(r, r) != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(a, b):
        parent[find(int(x))] = find(int(y))
    comps: dict[int, list[int]] = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    rows = [(v, min(vs)) for vs in comps.values() for v in vs]
    return (
        pd.DataFrame(rows, columns=["node", "component"])
        .astype("int64")
        .sort_values("node")
        .reset_index(drop=True)
    )


def test_born_carrier_buffer_word_is_load_bearing():
    """Pin the stale-score decode quirk the carrier designs around:
    with 'was' (score 0.60, crc32%23==0) directly after the person, the
    LOC inherits the stale score and low-scored cities fall below the
    0.75 threshold; the 'who' buffer (0.9265) keeps every city."""
    from transner_ray.gazetteers import Gazetteers
    from transner_ray.ner_core import ner_sentence
    from transner_ray.synth import BORN_CITIES, BORN_PERSONS
    from transner_ray.tagger import RuleTagger

    phrases = {(p,): "PER" for p in BORN_PERSONS}
    phrases.update({(c,): "LOC" for c in BORN_CITIES})
    gz = Gazetteers(
        cities=frozenset(), religions=frozenset(), phrases=phrases, max_phrase_len=1
    )
    tagger = RuleTagger(gz)

    def loc_found(sent: str) -> bool:
        return any(m["type"] == "LOCATION" for m in ner_sentence(sent, tagger, gz))

    for city in BORN_CITIES:
        assert loc_found(f"alice who was born in {city} town"), city
    # 'amsterdam' scores 0.8559: mean with stale 'was' (0.60) = 0.727 < 0.75
    assert not loc_found("alice was born in amsterdam town")


# ------------------------------- featurizer batch/per-text properties

from hypothesis import given, settings
from hypothesis import strategies as st

_texts_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"), max_codepoint=0x2FF),
        max_size=120,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(_texts_strategy)
def test_word_shingles_batch_equals_per_text(texts):
    """The batch featurizer (one factorize + one vectorized hash over
    the batch) must agree with the per-text entry point the sequential
    oracle uses, for ANY batch composition — a word's hash may not
    depend on its neighbors."""
    from transner_ray.ops import dedup

    batch = dedup._word_shingle_hashes_batch(texts)
    for t, got in zip(texts, batch):
        assert np.array_equal(got, dedup._word_shingle_hashes(t))


@settings(max_examples=60, deadline=None)
@given(_texts_strategy)
def test_simhash_batch_equals_per_text(texts):
    from transner_ray.ops import dedup

    sigs = dedup._simhash_batch(texts)
    for t, got in zip(texts, sigs):
        assert int(got) == dedup._simhash64(t)


def test_semi_filter_bloom_path_exact(planted, monkeypatch):
    """Force the Bloom branch of the verify-join semi-filter
    (CAND_IDS_EXACT_MAX=0): Bloom false positives may only let extra
    feat rows through — the pair output must be identical to the
    default (exact id broadcast) run."""
    from transner_ray.ops import dedup

    want = dedup.minhash_dedup(planted, jaccard_threshold=0.5).to_pandas()
    monkeypatch.setattr(dedup, "CAND_IDS_EXACT_MAX", 0)
    got = dedup.minhash_dedup(planted, jaccard_threshold=0.5).to_pandas()
    pd.testing.assert_frame_equal(got, want)
    assert len(want) > 0  # the fixture plants real pairs


# ---------------------------------------------------------------- pack


def test_pack_chunks_vs_duckdb(con):
    from transner_ray.ops import pack

    _check(pack.pack_chunks, pack.PACK_CHUNKS_SQL, con)


def test_pack_chunks_multibucket_scan():
    """Force many scan buckets (range_width=16 → ~32 buckets at 500
    docs): the distributed exclusive prefix scan must stitch bucket
    boundaries exactly — the result is invariant to the bucket width."""
    from transner_ray.ops import pack

    base = pack.pack_chunks(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    tiny = (
        pack.pack_chunks(SF, range_width=16)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(tiny, base)
    assert base["chunk_id"].is_monotonic_increasing
    assert (base["chunk_offset"] < pack.CHUNK_TOKENS).all()
    # exclusive-scan identity: offset+chunk_id*budget == cumsum-before
    cum_before = base["n_tokens"].cumsum() - base["n_tokens"]
    assert (
        base["chunk_id"] * pack.CHUNK_TOKENS + base["chunk_offset"] == cum_before
    ).all()


def test_pack_chunks_budget_param():
    """A different token budget repacks consistently (every chunk except
    the last is fully attributable: sum of tokens starting in chunk k
    plus the carry-in spill covers the budget)."""
    from transner_ray.ops import pack

    df = pack.pack_chunks(SF, chunk_tokens=257).to_pandas()
    cum_before = df.sort_values("doc_id")["n_tokens"].cumsum() - df["n_tokens"]
    assert (df["chunk_id"] == cum_before // 257).all()
    assert (df["chunk_offset"] == cum_before % 257).all()


# ----------------------------------------------------------- traindata


def test_prepare_training_data_vs_duckdb(con):
    """The flagship composite (train split → quality → dedup keeper →
    decontaminate → pack) against its nested-CTE oracle."""
    from transner_ray.ops import traindata

    _check(traindata.prepare_training_data, traindata.prepare_training_data_sql(), con)


def test_prepare_training_data_stages_filter():
    """Each stage of the composite must actually drop rows on the
    sf0.001 corpus (a stage that filters nothing is untested), and the
    survivors must be consistent with the standalone gate ops."""
    from transner_ray.ops import pack, traindata

    got = traindata.prepare_training_data(SF).to_pandas()
    all_docs = pack.pack_chunks(SF).to_pandas()
    n_eval = (all_docs["doc_id"] % traindata.EVAL_MOD == 0).sum()
    assert 0 < len(got) < len(all_docs) - n_eval  # quality/dedup/decon dropped some
    assert (got["doc_id"] % traindata.EVAL_MOD != 0).all()  # eval slice held out
    # contaminated keepers are excluded
    decon = traindata.decontaminate(SF).to_pandas()
    bad = set(decon.loc[decon["contaminated"], "doc_id"])
    assert not (set(got["doc_id"]) & bad)
    # packing invariant: chunk offsets advance by n_tokens mod budget
    got = got.sort_values("doc_id").reset_index(drop=True)
    cum = got["n_tokens"].cumsum() - got["n_tokens"]
    assert (got["chunk_id"] == cum // pack.CHUNK_TOKENS).all()
    assert (got["chunk_offset"] == cum % pack.CHUNK_TOKENS).all()


def test_epoch_shuffle_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.epoch_shuffle, traindata.epoch_shuffle_sql(), con)


def test_epoch_shuffle_is_an_epoch_dependent_permutation():
    from transner_ray.ops import traindata

    e1 = traindata.epoch_shuffle(SF, epoch=1).to_pandas()
    e2 = traindata.epoch_shuffle(SF, epoch=2).to_pandas()
    n = len(e1)
    # exact permutation: pos covers 0..n-1, every doc appears once
    assert sorted(e1["pos"]) == list(range(n))
    assert e1["doc_id"].nunique() == n
    # epochs genuinely differ (decorrelated orderings)
    o1 = e1.sort_values("pos")["doc_id"].to_numpy()
    o2 = e2.sort_values("pos")["doc_id"].to_numpy()
    assert (o1 != o2).mean() > 0.9


def test_decontaminate_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.decontaminate, traindata.DECONTAMINATE_SQL, con)


def test_vocab_topk_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.vocab_topk, traindata.VOCAB_TOPK_SQL, con)


def test_stratified_sample_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.stratified_sample, traindata.stratified_sample_sql(), con)


def test_decontaminate_planted(tmp_path):
    """A train doc sharing one 8-word gram with an eval doc is flagged;
    a disjoint one is not; short docs (< n words) never flag."""
    from transner_ray.ops import traindata

    gram = "alpha beta gamma delta epsilon zeta eta theta"
    rows = {
        "doc_id": [0, 1, 2, 3],  # 0 -> eval (0 % 20 == 0), rest train
        "text": [
            f"leading words {gram} trailing words here",
            f"entirely different prefix {gram} and suffix",
            "no overlap at all in this training document text ok",
            "tiny doc",
        ],
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = traindata.decontaminate(str(tmp_path)).to_pandas()
    got = dict(zip(out["doc_id"], out["contaminated"]))
    assert got == {1: True, 2: False, 3: False}


def test_stratified_sample_rates(tmp_path):
    """Rate 0 drops a source entirely, rate 100 keeps all of it, and
    the kept set is a pure function of doc_id (stable across calls)."""
    from transner_ray.ops import traindata

    n = 400
    rows = {
        "doc_id": list(range(n)),
        "source": ["keepall" if i % 2 else "dropall" for i in range(n)],
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    rates = {"keepall": 100, "dropall": 0}
    out = traindata.stratified_sample(str(tmp_path), rates=rates).to_pandas()
    assert set(out["source"]) == {"keepall"}
    assert len(out) == n // 2
    again = traindata.stratified_sample(str(tmp_path), rates=rates).to_pandas()
    pd.testing.assert_frame_equal(out, again)


# ------------------------------------------------- indexing + quantiles


def test_inverted_index_vs_duckdb(con):
    from transner_ray.ops import indexing

    _check(indexing.inverted_index, indexing.INVERTED_INDEX_SQL, con)


def test_tfidf_top_terms_vs_duckdb(con):
    from transner_ray.ops import indexing

    _check(indexing.tfidf_top_terms, indexing.TFIDF_SQL, con)


def test_distinct_terms_vs_duckdb(con):
    from transner_ray.ops import indexing

    _check(indexing.distinct_terms, indexing.DISTINCT_TERMS_SQL, con)


def test_inverted_index_stopword_pruning():
    """max_df_frac keeps the df row but empties the posting list —
    the bound that stops a web-scale stopword concentrating O(corpus)
    doc_ids in one reduce task."""
    from transner_ray.ops import indexing

    full = indexing.inverted_index(SF).to_pandas()
    pruned = indexing.inverted_index(SF, max_df_frac=0.0).to_pandas()
    assert len(full) == len(pruned)
    a = full.sort_values("term").reset_index(drop=True)
    b = pruned.sort_values("term").reset_index(drop=True)
    pd.testing.assert_series_equal(a["df"], b["df"])
    assert all(len(p) == 0 for p in b["postings"])
    assert any(len(p) > 0 for p in a["postings"])


def test_token_count_quantiles_vs_duckdb(con):
    from transner_ray.ops import quantiles

    _check(quantiles.token_count_quantiles, quantiles.TOKEN_COUNT_QUANTILES_SQL, con)


def test_event_value_quantiles_vs_duckdb(con):
    from transner_ray.ops import quantiles

    _check(quantiles.event_value_quantiles, quantiles.EVENT_VALUE_QUANTILES_SQL, con)


def test_int_metric_quantiles_definition():
    """Pins the quantile definition (sorted[max(0, ceil(p*n)-1)]) on a
    hand-checkable array, independent of DuckDB."""
    import ray.data as rd

    from transner_ray.ops import quantiles

    ds = rd.from_pandas(pd.DataFrame({"v": list(range(1, 11))}))
    out = quantiles.int_metric_quantiles(ds, "v", ps=(0.25, 0.5, 0.9, 0.99, 1.0))
    assert out["value"].tolist() == [3, 5, 9, 10, 10]


def test_pagerank_sql_oracle_bit_exact():
    """The unrolled SQL replica must reproduce the quantized integer
    stream bit-for-bit on random graphs (no Ray needed — pins the
    half-up rounding contract between engine arithmetic and SQL
    round)."""
    import duckdb

    from transner_ray.ops.pagerank import (
        PR_DAMPING,
        PR_ITERS,
        _driver_pagerank,
        unrolled_pagerank_sql,
    )

    rng = np.random.default_rng(11)
    for _ in range(3):
        n_nodes = int(rng.integers(3, 50))
        n_edges = int(rng.integers(3, 250))
        df = (
            pd.DataFrame(
                {
                    "src": rng.integers(0, n_nodes, n_edges),
                    "dst": rng.integers(0, n_nodes, n_edges),
                    "w": rng.integers(1, 9, n_edges),
                }
            )
            .groupby(["src", "dst"], as_index=False)["w"]
            .sum()
        )
        eng = _driver_pagerank(
            df["src"].to_numpy(), df["dst"].to_numpy(), df["w"].to_numpy(),
            PR_DAMPING, PR_ITERS,
        ).to_pandas().sort_values("node").reset_index(drop=True)
        c = duckdb.connect()
        c.register("e", df)
        ora = (
            c.sql(unrolled_pagerank_sql("SELECT src, dst, w FROM e"))
            .df()
            .sort_values("entity_id")
            .reset_index(drop=True)
        )
        assert eng["node"].tolist() == ora["entity_id"].tolist()
        assert np.array_equal(
            eng["rank"].to_numpy().view(np.int64),
            ora["rank"].to_numpy().view(np.int64),
        ), "quantized rank streams diverged"


def test_born_entity_pagerank_vs_duckdb(con):
    import importlib

    e = importlib.import_module("__ray_entry__")
    _check(e.queries()["born_entity_pagerank"], e.oracle_sql()["born_entity_pagerank"], con)


def test_bm25_topk_vs_duckdb(con):
    from transner_ray.ops import indexing

    _check(indexing.bm25_topk, indexing.BM25_TOPK_SQL, con)


def test_bm25_ranking_sanity():
    """A doc saturated with a query term must outrank one with a
    single occurrence at similar length (pins the tf saturation /
    length-normalization wiring, independent of DuckDB)."""
    from transner_ray.ops import indexing

    top = indexing.bm25_topk(SF, query=("hash",), k=5)
    assert len(top) == 5
    assert (top["score"].to_numpy()[:-1] >= top["score"].to_numpy()[1:]).all()


def test_heavy_hitter_terms_vs_duckdb(con):
    from transner_ray.ops import sketches

    _check(sketches.heavy_hitter_terms, sketches.heavy_hitters_sql(), con)


def test_mg_fold_superset_guarantee():
    """Misra-Gries invariant: after folding arbitrary skewed batch
    summaries at capacity m, every term with global count > N/m must
    survive as a candidate (no Ray, pure property test)."""
    from transner_ray.ops.sketches import _mg_fold

    rng = np.random.default_rng(13)
    m = 8
    # Zipf-ish stream split into uneven batches
    vocab = [f"t{i}" for i in range(200)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    stream = rng.choice(vocab, size=5000, p=weights)
    true = pd.Series(stream).value_counts()
    summary = {}
    i = 0
    while i < len(stream):
        step = int(rng.integers(1, 400))
        batch = pd.Series(stream[i : i + step]).value_counts()
        _mg_fold(summary, batch.index.to_numpy(), batch.to_numpy(), m)
        i += step
    n = len(stream)
    heavy = set(true[true > n / m].index)
    assert heavy <= set(summary), f"missing heavy terms: {heavy - set(summary)}"
    assert len(summary) <= 2 * m  # bounded between shrinks


def test_mg_batch_summary_bounded_and_mergeable():
    """Pass 1 ships MERGEABLE partials: each map task's summary holds
    ≤ m rows (the driver ingests ≤ m rows per block, never the block's
    vocabulary), and folding the partials preserves the candidate
    superset guarantee (no Ray, pure property test)."""
    from transner_ray.ops.sketches import _mg_batch_summary, _mg_fold

    rng = np.random.default_rng(7)
    m = 8

    def word(i: int) -> str:  # letter-only: survives the [a-z]+ tokenizer
        s = ""
        i += 1
        while i:
            s += chr(ord("a") + i % 26)
            i //= 26
        return s

    vocab = [word(i) for i in range(150)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(5, 120)), p=weights))
        for _ in range(60)
    ]
    stream = [w for t in texts for w in t.split()]
    true = pd.Series(stream).value_counts()

    summary = {}
    for i in range(0, len(texts), 7):  # uneven "blocks"
        part = _mg_batch_summary(texts[i : i + 7], m)
        assert len(part) <= m, f"partial shipped {len(part)} rows > m={m}"
        _mg_fold(summary, part["term"].to_numpy(), part["cnt"].to_numpy(), m)
    n = len(stream)
    heavy = set(true[true > n / m].index)
    assert heavy <= set(summary), f"missing heavy terms: {heavy - set(summary)}"


def test_sample_exact_k_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.sample_exact_k, traindata.sample_exact_k_sql(), con)


def test_sample_exact_k_is_exact_and_uniformish(con):
    """Exactly k rows, and the sample is hash-ordered (not a prefix of
    doc_id space)."""
    from transner_ray.ops import traindata

    out = traindata.sample_exact_k(SF, k=50)
    assert len(out) == 50
    assert out["doc_id"].is_monotonic_increasing
    n = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert out["doc_id"].max() > n // 2  # not the first-k prefix


def test_cap_per_group_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.cap_per_group, traindata.cap_per_group_sql(), con)


def test_cap_per_group_bound():
    from transner_ray.ops import traindata

    out = traindata.cap_per_group(SF, n=3).to_pandas()
    assert (out.groupby("source").size() <= 3).all()


def test_running_totals_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.running_totals, relational.RUNNING_TOTALS_SQL, con)


def test_approx_value_quantiles_error_bound():
    """Histogram-sketch quantiles must sit within one bin width of the
    exact discrete quantile, at every requested p."""
    import duckdb

    from transner_ray.ops import quantiles

    got = quantiles.approx_value_quantiles(SF)
    c = duckdb.connect()
    c.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    exact = c.sql(
        f"SELECT unnest(quantile_disc(value, {quantiles._ps_sql_list()})) v FROM events"
    ).df()["v"].to_numpy()
    env = c.sql("SELECT min(value) lo, max(value) hi FROM events").df()
    bound = float(env["hi"][0] - env["lo"][0]) / quantiles.APPROX_Q_BINS
    assert np.all(np.abs(got["value"].to_numpy() - exact) <= bound + 1e-9)


def test_approx_value_quantiles_block_invariant():
    """Elementwise histogram merge ⇒ identical output at any read
    fan-out (1 block vs 13 blocks of the same rows)."""
    import ray.data as rd

    from transner_ray.ops import quantiles

    rng = np.random.default_rng(23)
    df = pd.DataFrame({"v": rng.standard_normal(5000) * 37.0 + 5.0})
    a = quantiles.histogram_quantiles(rd.from_pandas(df), "v")
    b = quantiles.histogram_quantiles(
        rd.from_pandas(df).repartition(13), "v"
    )
    pd.testing.assert_frame_equal(a, b)


def test_kg_partitioned_born_edges_vs_duckdb(con):
    """The resumable job end-to-end against the born-edge oracle
    (second call inside the same session exercises the resume path)."""
    import importlib
    import shutil

    from transner_ray.ops.io import cache_dir_for

    shutil.rmtree(
        cache_dir_for("/tmp/transner_ray_born", f"{SF}/documents.parquet"),
        ignore_errors=True,
    )
    e = importlib.import_module("__ray_entry__")
    q = e.queries()["kg_partitioned_born_edges"]
    sql = e.oracle_sql()["kg_partitioned_born_edges"]
    _check(q, sql, con)
    _check(q, sql, con)  # resumed: phase 1 skips, result identical


def test_bigram_topk_vs_duckdb(con):
    from transner_ray.ops import indexing

    _check(indexing.bigram_topk, indexing.BIGRAM_TOPK_SQL, con)


def test_event_deltas_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.event_deltas, relational.EVENT_DELTAS_SQL, con)


def test_events_pivot_vs_duckdb(con):
    from transner_ray.ops import relational

    _check(relational.events_pivot, relational.EVENTS_PIVOT_SQL, con)


def test_dedup_incremental_vs_duckdb(con):
    from transner_ray.ops import dedup

    _check(dedup.dedup_incremental, dedup.DEDUP_INCREMENTAL_SQL, con)


def test_exact_index_lifecycle(tmp_path):
    """build -> dedup shard 1 -> append keepers -> dedup shard 2:
    shard-2 rows duplicating shard 1 (not just the original corpus)
    must now be dropped, proving the O(shard) accept step works."""
    import ray.data as rd

    from transner_ray.ops import dedup

    corpus = pd.DataFrame(
        {"doc_id": [0, 1, 2], "text": ["alpha beta", "gamma delta", "epsilon"]}
    )
    idx_dir = str(tmp_path / "idx")
    dedup.build_exact_index(rd.from_pandas(corpus), idx_dir, num_buckets=4)

    shard1 = pd.DataFrame(
        {
            "doc_id": [10, 11, 12, 13],
            # dup-of-corpus, new, in-shard dup pair (first wins)
            "text": ["alpha beta", "zeta eta", "theta", "theta"],
        }
    )
    kept1 = (
        dedup.dedup_against_index(rd.from_pandas(shard1), idx_dir)
        .to_pandas()
        .reset_index(drop=True)
    )
    assert kept1["doc_id"].tolist() == [11, 12]

    dedup.append_to_exact_index(
        rd.from_pandas(kept1), idx_dir
    )

    shard2 = pd.DataFrame(
        {
            "doc_id": [20, 21, 22],
            # dup of shard-1 keeper, dup of original corpus, new
            "text": ["zeta eta", "epsilon", "iota kappa"],
        }
    )
    kept2 = (
        dedup.dedup_against_index(rd.from_pandas(shard2), idx_dir)
        .to_pandas()
        .reset_index(drop=True)
    )
    assert kept2["doc_id"].tolist() == [22]


def test_bpe_merge_loop_classic_example():
    """Sennrich et al. 2016 running example: merges are driven by
    summed word counts with lexicographic tie-break."""
    from transner_ray.ops import bpe

    wc = pd.DataFrame(
        {"word": ["low", "lower", "newest", "widest"], "cnt": [5, 2, 6, 3]}
    )
    m = bpe.merge_loop(wc, num_merges=4)
    got = list(zip(m["left"], m["right"]))
    # (e,s)=9 and (es,t)=9 and (est,</w>)=9 dominate, then (l,o)=7
    assert got == [("e", "s"), ("es", "t"), ("est", "</w>"), ("l", "o")]


def test_bpe_train_vs_sequential_oracle():
    """Engine (distributed word count -> merge loop) must equal the
    sequential oracle (pandas word count through the SAME loop)."""
    import re

    from transner_ray.ops import bpe

    got = bpe.bpe_train(SF, top_words=300, num_merges=25)

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    words: list[str] = []
    rex = re.compile(r"[a-z]+")
    for t in docs["text"]:
        words.extend(rex.findall(t.lower()))
    s = pd.Series(words, dtype="object")
    cnt = s.groupby(s).size()
    wc = (
        pd.DataFrame({"word": cnt.index.to_numpy(), "cnt": cnt.to_numpy().astype("int64")})
        .sort_values(["cnt", "word"], ascending=[False, True])
        .head(300)
        .reset_index(drop=True)
    )
    want = bpe.merge_loop(wc, num_merges=25)
    pd.testing.assert_frame_equal(got, want)


def test_bpe_encode_word_consistent():
    from transner_ray.ops import bpe

    wc = pd.DataFrame(
        {"word": ["low", "lower", "newest", "widest"], "cnt": [5, 2, 6, 3]}
    )
    m = bpe.merge_loop(wc, num_merges=10)
    ranks = {t: r for r, t in zip(m["rank"], m["token"])}
    for w in ["low", "newest", "lowest", "wide"]:
        toks = bpe.encode_word(w, ranks)
        assert "".join(toks) == w + bpe.EOW
    # a fully-learned word collapses to one token
    assert bpe.encode_word("newest", ranks) == ["newest" + bpe.EOW]


def test_bpe_incremental_equals_naive_randomized():
    """Differential: the incremental pair-count merge loop must be
    bit-identical to the full-rescan mirror on randomized vocabularies
    (seeded), including pathological repeated-letter words."""
    import numpy as np

    from transner_ray.ops import bpe

    rng = np.random.default_rng(7)
    letters = list("abcde")
    for trial in range(8):
        n = int(rng.integers(5, 40))
        words = [
            "".join(rng.choice(letters, size=int(rng.integers(1, 9))))
            for _ in range(n)
        ]
        wc = (
            pd.DataFrame({"word": words, "cnt": rng.integers(1, 9, size=n)})
            .groupby("word", as_index=False)["cnt"]
            .sum()
        )
        a = bpe.merge_loop(wc, num_merges=30)
        b = bpe._merge_loop_naive(wc, num_merges=30)
        pd.testing.assert_frame_equal(a, b)


def test_chunk_documents_vs_duckdb(con):
    from transner_ray.ops import traindata

    _check(traindata.chunk_documents, traindata.chunk_documents_sql(), con)


def test_chunk_documents_overlap_property():
    """Adjacent chunks overlap by size - stride tokens; concatenating
    the stride-prefixes + the last chunk reconstructs the document."""
    from transner_ray.ops import traindata

    out = traindata.chunk_documents(SF, size=8, stride=5).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    one = docs.iloc[0]
    mine = out[out["doc_id"] == one["doc_id"]].sort_values("chunk_idx")
    words = one["text"].strip().split()
    rebuilt: list[str] = []
    for _, r in mine.iterrows():
        toks = r["chunk_text"].split(" ")
        assert r["n_tokens"] == len(toks) <= 8
        rebuilt.extend(toks[:5])
    # trailing overlap tokens of the final chunk
    last = mine.iloc[-1]["chunk_text"].split(" ")
    rebuilt.extend(last[5:])
    assert rebuilt == words


def test_minhash_checkpoint_path_equals_default(tmp_path):
    """Feature-dataset parquet checkpoint (vs materialize()) leaves
    the verified near-dup pairs identical: banding, prefilter and
    verify are per-row/bucketed ops insensitive to block splits."""
    from transner_ray.ops import dedup

    a = dedup.minhash_dedup(SF).to_pandas()
    b = dedup.minhash_dedup(
        SF, checkpoint_dir=str(tmp_path / "mh_feats")
    ).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_cache_dir_keyed_by_abs_path_and_fingerprint(tmp_path):
    """Two corpora sharing a dir BASENAME must not share a /tmp cache,
    and reuse requires fingerprint EQUALITY — an older-mtime
    regeneration (which mtime-ordering wrongly accepts) goes stale."""
    from transner_ray.ops.io import (
        cache_dir_for,
        cache_is_fresh,
        source_fingerprint,
        write_cache_marker,
    )

    a = str(tmp_path / "a" / "sf0.01" / "documents.parquet")
    b = str(tmp_path / "b" / "sf0.01" / "documents.parquet")
    assert cache_dir_for("/tmp/x", a) != cache_dir_for("/tmp/x", b)

    src = tmp_path / "src.bin"
    src.write_bytes(b"12345")
    fp = source_fingerprint(str(src))
    marker = str(tmp_path / "marker.json")
    write_cache_marker(marker, fp)
    assert cache_is_fresh(marker, source_fingerprint(str(src)))

    # regenerate with an OLDER mtime (mtime-ordering would reuse)
    src.write_bytes(b"1234500")
    st = os.stat(src)
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns - 10_000_000_000))
    assert not cache_is_fresh(marker, source_fingerprint(str(src)))


def test_token_counts_bpe_vs_duckdb(con):
    from transner_ray.ops import textstats

    _check(textstats.token_counts_bpe, textstats.TOKEN_COUNTS_BPE_SQL, con)


def test_bpe_pretoken_pattern_unicode_parity():
    """The Python `regex` compile and DuckDB's RE2 must agree token-
    for-token on unicode-rich text (the synthetic corpus is ASCII, so
    the driver gate alone would not catch a \\p-class divergence)."""
    import duckdb
    import regex

    from transner_ray.ops.textstats import BPE_PRETOKEN_PAT

    pat = regex.compile(BPE_PRETOKEN_PAT)
    c = duckdb.connect()
    hard = [
        "Rossi's è nato — 12,50€ all'alba",
        "naïve café ½ £3.99!!",
        "Ünïcødé 汉字 123abc",
        "tabs\tand\nnewlines  mixed   spaces",
        "'s leading contraction; trailing apostrophe' end",
        "",
        "   ",
    ]
    for s in hard:
        sql_toks = c.execute(
            "SELECT regexp_extract_all(?, ?)", [s, BPE_PRETOKEN_PAT]
        ).fetchone()[0]
        assert pat.findall(s) == sql_toks, s
