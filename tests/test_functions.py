"""Training-data operator tests: dedup family, similarity, text analysis."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


def test_exact_dedup(docs_ds):
    from pdfz_ray.functions.dedup import exact_dedup_docs

    out = exact_dedup_docs(docs_ds).to_pandas()
    assert set(out.columns) == {"content_hash", "doc_id", "n_copies"}
    assert (out["n_copies"] >= 1).all()
    assert out["doc_id"].is_unique


def test_minhash_lsh_vs_exact(docs_ds):
    """LSH-verified pairs are a subset of exact-Jaccard pairs with high
    recall (verification makes precision exact; banding gives recall)."""
    from pdfz_ray.functions.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    exact = {
        (r["doc_id_a"], r["doc_id_b"])
        for r in ngram_jaccard_pairs(docs_ds, threshold=0.2).to_pylist()
    }
    lsh = {
        (r["doc_id_a"], r["doc_id_b"])
        for r in minhash_lsh_pairs(docs_ds, threshold=0.2).to_pylist()
    }
    assert lsh <= exact  # exact-verification ⇒ no false positives
    if exact:
        assert len(lsh) / len(exact) >= 0.8  # banding recall


def test_verify_pairs_join_path_matches_broadcast(docs_ds):
    """The two physical verification plans (broadcast blobs vs two
    hash-partitioned joins) must produce identical verified pair sets."""
    import ray.data

    from pdfz_ray.functions.dedup import (
        _pairs_table,
        _verify_pairs_jaccard,
        ngram_jaccard_pairs,
    )

    exact = ngram_jaccard_pairs(docs_ds, threshold=0.2)
    pairs = exact.select(["doc_id_a", "doc_id_b"])
    pairs_ds = ray.data.from_arrow(pairs)
    bcast = _pairs_table(_verify_pairs_jaccard(docs_ds, pairs_ds, 0.2, 3))
    joined = _pairs_table(
        _verify_pairs_jaccard(docs_ds, pairs_ds, 0.2, 3, broadcast_limit=0)
    )
    key = lambda t: sorted(  # noqa: E731
        zip(t.column("doc_id_a").to_pylist(), t.column("doc_id_b").to_pylist())
    )
    assert key(bcast) == key(joined) == key(pairs)


def test_simhash_pairs_are_near(docs_ds):
    from pdfz_ray.functions.dedup import SimHasher, simhash_pairs

    pairs = simhash_pairs(docs_ds, max_hamming=3).to_pylist()
    texts = {r["doc_id"]: r["text"] for r in docs_ds.take_all()}
    h = SimHasher()
    for r in pairs[:10]:
        d = bin(h.simhash(texts[r["doc_id_a"]]) ^ h.simhash(texts[r["doc_id_b"]])).count("1")
        assert d <= 3


def test_embedding_neardup_symmetric_threshold(emb_ds):
    from pdfz_ray.functions.dedup import embedding_neardup_pairs

    out = embedding_neardup_pairs(emb_ds, threshold=0.45).to_pylist()
    rows = {r["vec_id"]: np.asarray(r["embedding"], np.float64) for r in emb_ds.take_all()}
    for r in out:
        a, b = rows[r["vec_id_a"]], rows[r["vec_id_b"]]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos >= 0.45
        assert r["vec_id_a"] < r["vec_id_b"]


def test_knn_brute_is_exact(emb_ds):
    from pdfz_ray.functions.similarity import knn_brute, load_query_matrix

    ids, mat = load_query_matrix(SF, n_queries=3)
    out = knn_brute(emb_ds, mat, ids, k=5).to_pandas()
    assert set(out.columns) == {"query_id", "vec_id", "rank"}
    # reference: dense numpy top-k
    rows = emb_ds.take_all()
    vids = np.array([r["vec_id"] for r in rows])
    m = np.stack([np.asarray(r["embedding"], np.float64) for r in rows])
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = qn @ mn.T
    for qi, qid in enumerate(ids):
        s = sims[qi]
        order = sorted(
            [(vid, sv) for vid, sv in zip(vids, s) if vid != qid],
            key=lambda t: (-t[1], t[0]),
        )[:5]
        want = [int(v) for v, _ in order]
        got = out[out.query_id == qid].sort_values("rank")["vec_id"].tolist()
        assert got == want


def test_knn_lsh_recall(emb_ds):
    from pdfz_ray.functions.similarity import knn_brute, knn_lsh, load_query_matrix

    ids, mat = load_query_matrix(SF, n_queries=5)
    brute = knn_brute(emb_ds, mat, ids, k=10).to_pandas()
    approx = knn_lsh(emb_ds, mat, ids, k=10, planes=6, tables=8).to_pandas()
    b = {(r.query_id, r.vec_id) for r in brute.itertuples()}
    a = {(r.query_id, r.vec_id) for r in approx.itertuples()}
    assert len(a & b) / len(b) >= 0.5  # multiprobe recall on tiny corpus


def test_word_ngrams_short_docs_match_sql():
    """Docs with < n tokens produce NO grams — matching the SQL oracle's
    empty generate_series, so identical 2-token docs are never paired."""
    from pdfz_ray.functions.dedup import word_ngrams

    assert word_ngrams("", 3) == set()
    assert word_ngrams("one two", 3) == set()
    assert word_ngrams("a b c", 3) == {"a b c"}


def test_normalize_unicode_whitespace_matches_duckdb(ray_session):
    """normalize/stat ops split on RE2 \\s (ASCII) like the oracle — NBSP
    and U+2028 must survive as characters, not act as separators."""
    import duckdb

    from pdfz_ray.functions.text import normalize_batch, text_stats_batch

    tricky = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "the quick  fox",  # NBSP — not RE2 whitespace
                "line one line two",  # LS — not RE2 whitespace
                "  The  A  of\t\n to ",  # ASCII whitespace only
            ],
        }
    )
    got = normalize_batch(tricky).to_pydict()
    want = duckdb.sql(
        r"""SELECT trim(regexp_replace(lower(nfc_normalize(text)),
            '\s+', ' ', 'g')) AS norm_text FROM tricky"""
    ).fetchall()
    assert got["norm_text"] == [r[0] for r in want]

    stats = text_stats_batch(tricky).to_pydict()
    want_stop = duckdb.sql(
        r"""SELECT len(list_filter(string_split_regex(lower(text), '\s+'),
            t -> t IN ('the','a','and','of','to','in','is','on','for','data')))
            FROM tricky"""
    ).fetchall()
    assert stats["n_stopwords"] == [r[0] for r in want_stop]


@pytest.mark.parametrize(
    "text",
    [
        None,
        "",
        " \t\n ",
        "  lead and trail  ",
        "a\tb\nc\rd\x0ce",
        "no\xa0break",  # NBSP: inside a token for RE2
        "wide　space",  # U+3000: inside a token for RE2
        "v\x0bt \x0b",  # VT: RE2 keeps it in a token, Python's re.ASCII splits
    ],
)
def test_token_rule_matches_duckdb(text):
    """The shared tokenizer and token count give DuckDB's
    ``regexp_extract_all(coalesce(text, ''), '\\S+')`` for every
    whitespace class, null and empty text included."""
    import duckdb

    from pdfz_ray.functions.text import count_tokens, split_tokens

    want = duckdb.execute(
        r"SELECT regexp_extract_all(coalesce(?, ''), '\S+')", [text]
    ).fetchone()[0]
    col = pa.array([text], pa.string())
    toks, parent = split_tokens(col)
    assert toks.to_pylist() == want
    assert parent.tolist() == [0] * len(want)
    assert count_tokens(pa.array([text or ""], pa.string())).to_pylist() == [len(want)]
    # the count does not fill nulls: a caller whose SQL twin coalesces does
    assert count_tokens(col).to_pylist() == [None if text is None else len(want)]


def test_neardup_groups_distributed_matches_union_find(ray_session):
    """Data-plane min-label propagation == driver union-find, including
    chains (diameter > 1), triangles, and singleton-free edge sets."""
    import random

    from pdfz_ray.functions.dedup import neardup_groups, neardup_groups_distributed

    random.seed(3)
    # each hop is a join+groupby round, so chain length drives test wall
    # time — 8 hops proves multi-hop convergence without a 2-minute test
    cases = [
        [(1, 2), (2, 3), (3, 4), (10, 11)],          # chain + island
        [(5, 6), (6, 7), (5, 7), (8, 9)],            # triangle
        [(i, i + 1) for i in range(8)],              # 8-hop chain
        [(random.randint(0, 30), random.randint(31, 60)) for _ in range(40)],
    ]
    for edges in cases:
        pairs = pa.Table.from_pydict(
            {
                "doc_id_a": pa.array([a for a, _ in edges], pa.int64()),
                "doc_id_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
        want = sorted(
            (r["doc_id"], r["group_id"]) for r in neardup_groups(pairs).to_pylist()
        )
        got = sorted(
            (r["doc_id"], r["group_id"])
            for r in neardup_groups_distributed(pairs).to_pylist()
        )
        assert got == want, edges


def test_split_assign_deterministic(docs_ds):
    import duckdb

    from pdfz_ray.functions.text import split_assign_batch

    out = docs_ds.map_batches(split_assign_batch, batch_format="pyarrow").to_pandas()
    assert set(out["split"]) <= {"train", "val", "test"}
    # bucket bound consistency
    assert (out.loc[out.split == "train", "bucket"] < 52428).all()
    # SQL twin agreement (lexicographic hex == numeric on first 16 bits)
    want = duckdb.sql(
        f"""SELECT doc_id,
              CASE WHEN substr(md5(text),1,4) < 'cccc' THEN 'train'
                   WHEN substr(md5(text),1,4) < 'e666' THEN 'val'
                   ELSE 'test' END AS split
            FROM read_parquet('{SF}/documents.parquet')"""
    ).df()
    merged = out.merge(want, on="doc_id", suffixes=("", "_sql"))
    assert (merged["split"] == merged["split_sql"]).all()
    # roughly proportional (seeded corpus; loose bounds)
    frac = (out["split"] == "train").mean()
    assert 0.7 < frac < 0.9


def test_text_stats_and_quality(docs_ds):
    from pdfz_ray.functions.text import quality_filter_batch, text_stats_batch

    stats = docs_ds.map_batches(text_stats_batch, batch_format="pyarrow").to_pandas()
    assert (stats["n_tokens"] > 0).all()
    assert (stats["n_chars"] >= stats["n_tokens"]).all()
    q = docs_ds.map_batches(quality_filter_batch, batch_format="pyarrow").to_pandas()
    assert len(q) <= len(stats)
    assert (q["n_tokens"] >= 20).all()


def test_lang_id_deterministic(docs_ds):
    from pdfz_ray.functions.text import LangIdStage

    a = docs_ds.map_batches(
        LangIdStage, batch_format="pyarrow", concurrency=2
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = docs_ds.map_batches(
        LangIdStage, batch_format="pyarrow", concurrency=2
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert set(a["lang_pred"]) <= {"en", "de", "fr", "es", "zh", "unknown"}


def test_poly64_matches_byte_loop_reference():
    """Vectorized mod-2^64 polynomial hash == pure-Python byte loop,
    including empty / unicode / sliced-array inputs."""
    from pdfz_ray.functions.text import poly64_array
    from pdfz_ray.oracle import rolling64_ref

    samples = ["", "a", "hello world", "Ünïcödé ☃ tëxt", "x" * 1000, "", "t", ""]
    arr = pa.array(samples, pa.string())
    assert poly64_array(arr).view(np.int64).tolist() == [
        rolling64_ref(s) for s in samples
    ]
    sliced = arr.slice(2, 4)  # non-zero array offset must not shift views
    assert poly64_array(sliced).view(np.int64).tolist() == [
        rolling64_ref(s) for s in samples[2:6]
    ]


def test_winnow_vectorized_matches_reference():
    import random

    from pdfz_ray.functions.text import _pow_table, winnow_doc
    from pdfz_ray.oracle import winnow_fingerprints

    random.seed(7)
    pows_k = _pow_table(4)[::-1].copy()
    cases = ["", "ab", "Ünïcödé tëxt to winnow over several words here"] + [
        "".join(random.choice("abc ") for _ in range(random.randint(0, 80)))
        for _ in range(100)
    ]
    for s in cases:
        b = np.frombuffer(s.lower().encode(), np.uint8)
        assert winnow_doc(b, 5, 4, pows_k).tolist() == winnow_fingerprints(s, 5, 4), s


def test_batched_signing_matches_scalar():
    """MinHash / SimHash batch paths (segmented reduceat) == per-doc
    scalar reference, incl. leading/trailing empty docs."""
    from pdfz_ray.functions.dedup import MinHasher, SimHasher

    texts = ["", "the quick brown fox jumps over dogs", "", "one two",
             "a b c d e f g", "z " * 50, ""]
    tbl = pa.Table.from_pydict(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}
    )
    mh = MinHasher()
    for t, s in zip(texts, mh(tbl).column("minhash").to_pylist()):
        assert (mh.signature(t) == np.asarray(s, np.uint64)).all(), t
    sh = SimHasher()
    got = np.asarray(sh(tbl).column("simhash").to_pylist(), np.int64).view(np.uint64)
    for t, h in zip(texts, got):
        assert sh.simhash(t) == int(h), t


def test_fingerprint_stability(docs_ds):
    from pdfz_ray.functions.text import fingerprint_batch

    out = docs_ds.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert out["fingerprint"].str.len().eq(32).all()
    assert out["rolling64"].dtype == np.int64


def test_winnowing_guarantee():
    """Any shared substring of length >= w+k-1 yields a shared fingerprint
    (the winnowing guarantee), and fingerprints are position-independent."""
    from pdfz_ray.oracle import winnow_fingerprints

    k, w = 5, 4
    shared = "the quick brown fox jumps"
    a = "XXXX " + shared + " YYYY"
    b = "completely other prefix " + shared + " and suffix"
    fa = set(winnow_fingerprints(a, k, w))
    fb = set(winnow_fingerprints(b, k, w))
    assert fa & fb
    # disjoint texts share (almost surely) nothing
    fc = set(winnow_fingerprints("zzz qqq 12345 67890 abcdef", k, w))
    assert not (fa & fc)
    assert winnow_fingerprints("ab", k, w) == []


def test_winnow_batch_shape(docs_ds):
    from pdfz_ray.functions.text import winnow_batch

    out = docs_ds.map_batches(winnow_batch, batch_format="pyarrow").to_pandas()
    assert (out["n_fingerprints"] > 0).all()
    assert out["fingerprints"].map(len).equals(out["n_fingerprints"].astype(object).map(int))


def test_window_production_variants_stream(ray_session):
    """VERDICT r4 next-round #6: the production window variants return
    Datasets (consumable without a driver collect) whose streamed schema
    never carries the shuffle-key bucket column; the collecting wrappers
    are thin `.to_pandas()` boundaries over them."""
    import ray.data

    from pdfz_ray.functions.windows import (
        asof_join_events_ds,
        running_event_counts_ds,
        sessionize_bucketed_ds,
    )

    for fn, cols in (
        (sessionize_bucketed_ds, {"user_id", "session_id", "n_events", "start_ts", "end_ts"}),
        (running_event_counts_ds, {"user_id", "event_id", "running_n"}),
        (asof_join_events_ds, {"event_id", "user_id", "ts", "matched_event_id", "matched_ts"}),
    ):
        ds = fn(SF)
        assert isinstance(ds, ray.data.Dataset), fn.__name__
        # consume WITHOUT collecting; schema from the streamed batches
        names = None
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=4096):
            names = set(b.column_names)
            break
        assert names == cols, (fn.__name__, names)


def test_asof_join_semantics(ray_session):
    """As-of join: every match is the user's latest right-type event at or
    before the left event; left events with no prior right event drop."""
    import pandas as pd

    from pdfz_ray.functions.windows import asof_join_events

    out = asof_join_events(SF, left_type="click", right_type="view")
    assert (out["matched_ts"] <= out["ts"]).all()
    # spot-verify against a pandas merge_asof per user
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "user_id", "ts", "event_type"])
    clicks = ev[ev.event_type == "click"].sort_values("ts")
    views = (
        ev[ev.event_type == "view"]
        .sort_values(["ts", "event_id"])
        .groupby(["user_id", "ts"], as_index=False).last()
        .sort_values("ts")
    )
    want = pd.merge_asof(clicks, views, on="ts", by="user_id",
                         direction="backward", suffixes=("", "_v"))
    want = want.dropna(subset=["event_id_v"])
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    assert got["event_id"].tolist() == want["event_id"].tolist()
    assert got["matched_event_id"].tolist() == want["event_id_v"].astype(int).tolist()


def test_sliding_windows_cover_events(ray_session):
    """Every event contributes to exactly window/slide windows, so total
    window-count mass = 4 × event count; window spans align to the grid."""
    import pandas as pd

    from pdfz_ray.functions.windows import sliding_event_counts

    out = sliding_event_counts(SF, window_minutes=60, slide_minutes=15)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts"])
    assert out["n_events"].sum() == 4 * len(ev)
    mins = pd.to_datetime(out["window_start"]).dt.minute
    assert set(mins) <= {0, 15, 30, 45}


def test_orders_price_bands_partition(ray_session):
    """Bands partition the covered price range: per-band counts sum to the
    number of orders inside [min_band, max_band)."""
    import pandas as pd

    from pdfz_ray.functions.windows import PRICE_BANDS, orders_price_bands

    out = orders_price_bands(SF)
    orders = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_totalprice"])
    covered = (
        (orders.o_totalprice >= PRICE_BANDS[0])
        & (orders.o_totalprice < PRICE_BANDS[-1])
    ).sum()
    assert out["n_orders"].sum() == covered
    assert (out["band_lo"] < out["band_hi"]).all()


def test_knn_ivf_recall(emb_ds):
    """IVF coarse quantization: recall vs brute force scales with the
    probe ratio; determinism across runs (seeded kmeans)."""
    from pdfz_ray.functions.similarity import knn_brute, knn_ivf, load_query_matrix

    ids, mat = load_query_matrix(SF, n_queries=5)
    brute = knn_brute(emb_ds, mat, ids, k=10).to_pandas()
    a1 = knn_ivf(emb_ds, mat, ids, k=10, nlist=8, nprobe=4).to_pandas()
    a2 = knn_ivf(emb_ds, mat, ids, k=10, nlist=8, nprobe=4).to_pandas()
    assert a1.reset_index(drop=True).equals(a2.reset_index(drop=True))
    b = {(r.query_id, r.vec_id) for r in brute.itertuples()}
    a = {(r.query_id, r.vec_id) for r in a1.itertuples()}
    assert len(a & b) / len(b) >= 0.5  # probing half the cells
    # full probe degenerates to exact brute force
    full = knn_ivf(emb_ds, mat, ids, k=10, nlist=8, nprobe=8).to_pandas()
    assert full.reset_index(drop=True).equals(brute.reset_index(drop=True))


def test_knn_pq_rerank_exact_and_adc_recall(emb_ds):
    """PQ-ADC + in-batch exact rerank equals brute force at the default
    rerank width; the rerank-free ADC ordering (rerank=1) still recovers
    most of the true top-k; codes are deterministic (seeded kmeans)."""
    from pdfz_ray.functions.similarity import (
        knn_brute,
        knn_pq,
        load_query_matrix,
        pq_encode_batch,
        pq_train,
    )

    ids, mat = load_query_matrix(SF, n_queries=5)
    brute = knn_brute(emb_ds, mat, ids, k=10).to_pandas()
    p1 = knn_pq(emb_ds, mat, ids, k=10).to_pandas()
    p2 = knn_pq(emb_ds, mat, ids, k=10).to_pandas()
    assert p1.reset_index(drop=True).equals(p2.reset_index(drop=True))
    assert p1.reset_index(drop=True).equals(brute.reset_index(drop=True))
    # narrow rerank: pure ADC ordering survives with decent recall
    adc = knn_pq(emb_ds, mat, ids, k=10, rerank=1).to_pandas()
    b = {(r.query_id, r.vec_id) for r in brute.itertuples()}
    a = {(r.query_id, r.vec_id) for r in adc.itertuples()}
    assert len(a & b) / len(b) >= 0.5
    # encode: 8 uint8 codes per 64-dim vector, deterministic
    import pyarrow.parquet as pq_
    cb = pq_train(emb_ds)
    t = pq_.read_table(f"{SF}/embeddings.parquet").slice(0, 100)
    c1 = pq_encode_batch(t, cb)
    c2 = pq_encode_batch(t, cb)
    assert c1.equals(c2)
    assert c1.column("codes").type.list_size == 8


def test_cms_heavy_hitters(ray_session):
    """Count-Min invariants: estimates never undercount true frequencies;
    merge(a, b) == sketch(a + b); sketch top-k equals the exact groupby
    top-k on the driver corpus."""
    import duckdb
    import numpy as np

    from pdfz_ray.functions.analytics import CountMinSketch, heavy_hitters

    terms = np.array([f"t{i}" for i in range(200)], object)
    counts = np.arange(1, 201)
    cms = CountMinSketch()
    cms.add(terms, counts)
    assert (cms.estimate(terms) >= counts).all()
    # mergeability
    a, b = CountMinSketch(), CountMinSketch()
    a.add(terms[:100], counts[:100])
    b.add(terms[100:], counts[100:])
    a.merge(b)
    assert (a.estimate(terms) == cms.estimate(terms)).all()
    # sketch path == exact top-k on the corpus
    got = heavy_hitters(SF, k=20)
    want = duckdb.connect().execute(
        rf"""
        WITH t AS (SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS term
                   FROM read_parquet('{SF}/documents.parquet'))
        SELECT term, count(*) AS n FROM t GROUP BY term
        ORDER BY n DESC, term LIMIT 20
        """
    ).df()
    assert got["term"].tolist() == want["term"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_bloom_filter_membership(ray_session, docs_ds):
    """Bloom invariants: zero false negatives over the full corpus,
    bitset-OR mergeability, and a bounded false-positive rate on absent
    probes at this sizing."""
    import numpy as np
    import pandas as pd

    from pdfz_ray.functions.windows import BloomFilter, seen_content_filter

    texts = docs_ds.to_pandas()["text"].tolist()
    h = pd.util.hash_array(np.asarray(texts, object))
    bf = seen_content_filter(docs_ds)
    assert bf.contains_hashes(h).all()  # no false negatives, ever
    # mergeability: two halves OR'd equal the whole
    a, b = BloomFilter(), BloomFilter()
    a.add_hashes(h[: len(h) // 2])
    b.add_hashes(h[len(h) // 2 :])
    a.merge(b)
    assert (a.bits == bf.bits).all()
    # FP rate on 10k absent probes stays under 1% at 2^20 bits / 500 docs
    probes = pd.util.hash_array(
        np.asarray([f"absent-{i}" for i in range(10000)], object)
    )
    fp = bf.contains_hashes(probes).mean()
    assert fp < 0.01, fp


def test_asof_bucketed_kernel_edges(ray_session, tmp_path):
    """Pin the segmented lexsort+cummax as-of kernel (r4 bucketed rework):
    exact-ts right events match, a right event from the PREVIOUS user in
    the same bucket never carries across, lefts with no prior right drop,
    and bucket counts 1 / 3 / 16 give identical output."""
    import pandas as pd
    import pyarrow.parquet as _pq

    from pdfz_ray.functions.windows import asof_join_events

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 0: view@2, clicks at 1 (drops), 2 (exact-ts match), 5
        (1, 0, t0 + 1 * m, "click"),
        (2, 0, t0 + 2 * m, "view"),
        (3, 0, t0 + 2 * m, "click"),
        (4, 0, t0 + 5 * m, "click"),
        # user 16 (same bucket as 0 at B=16): click BEFORE its own view —
        # user 0's view must not carry over
        (5, 16, t0 + 3 * m, "click"),
        (6, 16, t0 + 4 * m, "view"),
        (7, 16, t0 + 6 * m, "click"),
        # duplicate (user, ts) views: max event_id wins
        (8, 7, t0 + 1 * m, "view"),
        (9, 7, t0 + 1 * m, "view"),
        (10, 7, t0 + 2 * m, "click"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts", "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    d = tmp_path / "sf"
    d.mkdir()
    _pq.write_table(pa.Table.from_pandas(df, preserve_index=False), d / "events.parquet")

    out = asof_join_events(str(d)).sort_values("event_id").reset_index(drop=True)
    assert out["event_id"].tolist() == [3, 4, 7, 10]
    assert out["matched_event_id"].tolist() == [2, 2, 6, 9]
    for b in (1, 3):
        alt = (
            asof_join_events(str(d), buckets=b)
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        assert alt["event_id"].tolist() == out["event_id"].tolist()
        assert alt["matched_event_id"].tolist() == out["matched_event_id"].tolist()
