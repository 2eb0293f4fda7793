"""Corpus-curation operator tests: decontamination, PII redaction,
sequence packing, stratified hash sampling, and the Q5-style join."""

import re

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _ngram_ref(text: str, n: int) -> list[str]:
    """Independent reference: \\S+ tokens, space-joined windows. re.ASCII
    matches RE2's ASCII-only \\s (pyarrow + DuckDB); Python's default
    Unicode \\s would also swallow NBSP/U+2028 and diverge."""
    toks = re.findall(r"\S+", text or "", flags=re.ASCII)
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def test_ngram_arrays_matches_reference():
    from pdfz_ray.functions.curation import ngram_arrays

    texts = [
        "a b c d e",
        "one two",
        "",
        "   leading and trailing   ",
        "x  double  spaces\there",
        "exactly three toks",
    ]
    grams, parent = ngram_arrays(pa.array(texts), n=3)
    got = {}
    for g, p in zip(grams.to_pylist(), parent):
        got.setdefault(int(p), []).append(g)
    for i, t in enumerate(texts):
        assert got.get(i, []) == _ngram_ref(t, 3), f"doc {i}"


def test_ngram_arrays_property_random_texts():
    """Random unicode docs (incl. exotic whitespace): the vectorized gram
    builder must agree with the per-doc \\S+ reference for every doc."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdfz_ray.functions.curation import ngram_arrays

    texts_st = st.lists(
        st.text(
            alphabet=st.sampled_from("ab \t\n  é漢 "), max_size=30
        ),
        max_size=8,
    )

    @settings(max_examples=60, deadline=None)
    @given(texts=texts_st, n=st.integers(2, 4))
    def check(texts, n):
        grams, parent = ngram_arrays(pa.array(texts, pa.string()), n=n)
        got = {}
        for g, p in zip(grams.to_pylist(), parent):
            got.setdefault(int(p), []).append(g)
        for i, t in enumerate(texts):
            assert got.get(i, []) == _ngram_ref(t, n), (i, t, n)

    check()


def test_ngram_arrays_no_cross_doc_grams():
    from pdfz_ray.functions.curation import ngram_arrays

    grams, parent = ngram_arrays(pa.array(["p q r", "s t u"]), n=2)
    by_doc = {0: [], 1: []}
    for g, p in zip(grams.to_pylist(), parent):
        by_doc[int(p)].append(g)
    assert by_doc[0] == ["p q", "q r"]
    assert by_doc[1] == ["s t", "t u"]  # no "r s" bridging the boundary


def test_decontaminate_crafted_corpus(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import decontaminate

    # doc 0 is the "benchmark" (0 % 23 == 0); doc 24 copies one of its
    # 3-grams, doc 25 shares none, doc 46 (also bench) overlaps itself
    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta"},
        {"doc_id": 24, "text": "xx alpha beta gamma yy"},
        {"doc_id": 25, "text": "totally different words here"},
        {"doc_id": 46, "text": "alpha beta gamma"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = decontaminate(ds, n=3, modulus=23).to_pandas()
    got = dict(zip(out["doc_id"], out["n_overlap"]))
    # bench grams: {alpha beta gamma, beta gamma delta} ∪ {alpha beta gamma}
    assert got[0] == 2  # bench doc matches itself fully
    assert got[24] == 1  # one shared distinct gram
    assert got[46] == 1
    assert 25 not in got  # clean doc is absent


def test_pii_redact_crafted(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import pii_redact_batch

    rows = [
        {"doc_id": 1, "text": "mail me at jo.doe+x@test.org or 10.0.0.1 now"},
        {"doc_id": 2, "text": "call 555-123-4567 twice: 555-123-4567"},
        {"doc_id": 3, "text": "no pii here"},
    ]
    out = pii_redact_batch(pa.Table.from_pylist(rows)).to_pylist()
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[1]["n_emails"] == 1 and by_id[1]["n_ipv4"] == 1
    assert by_id[1]["redacted"] == "mail me at <EMAIL> or <IP> now"
    assert by_id[2]["n_phones"] == 2
    assert by_id[2]["redacted"] == "call <PHONE> twice: <PHONE>"
    assert by_id[3]["redacted"] == "no pii here"
    assert (
        by_id[3]["n_emails"] == by_id[3]["n_ipv4"] == by_id[3]["n_phones"] == 0
    )


def test_pack_sequences_matches_serial_scan(ray_session):
    """Distributed two-phase prefix scan == a single-process cumsum, and
    the result is invariant to the bucket size (the only parallelism
    knob)."""
    import ray.data

    from pdfz_ray.functions.curation import pack_sequences

    rng = np.random.default_rng(7)
    rows = [
        {"doc_id": int(i), "text": " ".join(["w"] * int(rng.integers(1, 40)))}
        for i in range(200)
    ]
    tbl = pa.Table.from_pylist(rows)
    n = np.array([len(r["text"].split()) for r in rows])
    prev = np.concatenate(([0], np.cumsum(n[:-1])))
    budget = 64
    expect = {
        r["doc_id"]: (int(p) // budget, int(p) % budget)
        for r, p in zip(rows, prev)
    }
    for bucket_size in (16, 1 << 12):
        ds = ray.data.from_arrow(tbl).repartition(5)
        out = pack_sequences(ds, budget=budget, bucket_size=bucket_size).to_pandas()
        got = {
            int(r.doc_id): (int(r.pack_id), int(r.pack_offset))
            for r in out.itertuples()
        }
        assert got == expect, f"bucket_size={bucket_size}"


def test_hash_sample_deterministic_and_stratified(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import hash_sample_batch

    ds = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    a = ds.map_batches(hash_sample_batch, batch_format="pyarrow").to_pandas()
    b = ds.map_batches(hash_sample_batch, batch_format="pyarrow").to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])  # run-to-run stable
    # src0 is boosted to 50% vs 10% default — its sample share must be
    # visibly larger (corpus is 500 docs / 20 sources; loose bounds)
    full = ds.to_pandas()
    src0_total = (full["source"] == "src0").sum()
    if src0_total >= 10:
        src0_rate = (a["source"] == "src0").sum() / src0_total
        rest_rate = (a["source"] != "src0").sum() / (len(full) - src0_total)
        assert src0_rate > rest_rate


def test_repetition_stats_crafted():
    from pdfz_ray.functions.curation import repetition_stats_batch

    rows = [
        {"doc_id": 1, "text": "go go go go"},  # grams: 3× "go go"
        {"doc_id": 2, "text": "a b a b a"},  # "a b"×2, "b a"×2
        {"doc_id": 3, "text": "all unique words here"},
        {"doc_id": 4, "text": "single"},  # no 2-grams → no row
    ]
    out = repetition_stats_batch(pa.Table.from_pylist(rows)).to_pylist()
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[1] == {
        "doc_id": 1, "n_grams": 3, "max_gram_count": 3, "n_dup_gram": 3,
    }
    assert by_id[2] == {
        "doc_id": 2, "n_grams": 4, "max_gram_count": 2, "n_dup_gram": 4,
    }
    assert by_id[3]["max_gram_count"] == 1 and by_id[3]["n_dup_gram"] == 0
    assert 4 not in by_id


def test_doc_rarity_crafted(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import doc_rarity

    # DF: common=3, mid=2, rare1=1, rare2=1, aaa=1
    rows = [
        {"doc_id": 1, "text": "common mid rare1"},
        {"doc_id": 2, "text": "common mid aaa"},  # aaa vs mid: df tie → lex
        {"doc_id": 3, "text": "common rare2 rare2"},  # dup token, df still 1
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    out = doc_rarity(ds).to_pandas()
    got = {
        int(r.doc_id): (r.rarest_term, int(r.term_df)) for r in out.itertuples()
    }
    assert got == {1: ("rare1", 1), 2: ("aaa", 1), 3: ("rare2", 1)}


def test_quality_gate_quantile_crafted(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import quality_gate_quantile

    # token counts 1..10; P25 over 10 docs → target=ceil(2.5)=3 → thresh=3
    rows = [
        {"doc_id": i, "text": " ".join(["w"] * i)} for i in range(1, 11)
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = quality_gate_quantile(ds, pct=25).to_pandas()
    assert sorted(out["doc_id"]) == list(range(3, 11))
    assert (out["n_tokens"] >= 3).all()


def test_curate_corpus_all_three_gates(ray_session):
    import hashlib

    import ray.data

    from pdfz_ray.functions.curation import curate_corpus

    bench = "b1 b2 b3 b4 b5 filler words to make this long enough ok"
    dup = "duplicate content with plenty of tokens one two three four"
    rows = [
        {"doc_id": 0, "text": bench},  # benchmark member (0 % 23 == 0)
        {"doc_id": 1, "text": "x " + bench},  # contaminated (shares 5-gram)
        {"doc_id": 2, "text": dup},  # dedup winner (min doc_id)
        {"doc_id": 3, "text": dup},  # dedup loser
        {"doc_id": 4, "text": "short"},  # fails the P25 token gate
        {"doc_id": 5, "text": "clean survivor doc alpha beta gamma delta eps"},
        {"doc_id": 6, "text": "another clean survivor with its own words aa"},
        {"doc_id": 7, "text": "third clean survivor unique tokens bb cc dd"},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = curate_corpus(ds, pct=25, n=5, modulus=23).to_pandas()
    ids = set(out["doc_id"])
    assert 0 not in ids and 1 not in ids  # contaminated (incl. bench itself)
    assert 2 in ids and 3 not in ids  # winner kept, loser dropped
    assert 4 not in ids  # below P25 (token counts: 1 vs >=8)
    assert {5, 6, 7} <= ids
    # split matches the standalone md5-bucket rule
    for r in out.itertuples():
        b = int(hashlib.md5(rows[r.doc_id]["text"].encode()).hexdigest()[:4], 16)
        expect = "train" if b < 52428 else ("val" if b < 58982 else "test")
        assert r.split == expect


def test_curation_operators_on_an_empty_corpus(ray_session):
    """A 0-row (doc_id, text) corpus gives no rows, not a ``KeyError`` from
    the column-less frame of an empty groupby: the quantile gates (global
    and per language), ``curate_corpus`` and the benchmark gram set."""
    import ray.data

    from pdfz_ray.functions.curation import (
        benchmark_gram_set, curate_corpus, quality_gate_quantile,
        quality_gate_quantile_by_lang,
    )

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
    })

    def ds(cols=("doc_id", "text")):
        return ray.data.from_arrow(empty.select(list(cols)))

    assert len(quality_gate_quantile(ds()).to_pandas()) == 0
    assert len(quality_gate_quantile_by_lang(ds(("doc_id", "text", "lang"))).to_pandas()) == 0
    assert len(curate_corpus(ds()).to_pandas()) == 0
    grams = benchmark_gram_set(ds())
    assert len(grams) == 0 and grams.type == pa.string()


def test_split_leakage_audit_crafted(ray_session):
    import hashlib

    import ray.data

    from pdfz_ray.functions.curation import split_leakage_audit

    base = "the quick brown fox jumps over the lazy dog again and again"
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " extra"},  # near-dup of 1
        {"doc_id": 3, "text": "completely unrelated words in this one here"},
    ]
    out = split_leakage_audit(
        ray.data.from_arrow(pa.Table.from_pylist(rows)), threshold=0.2, n=3
    ).to_pandas()

    def split_of(t):
        b = int(hashlib.md5(t.encode()).hexdigest()[:4], 16)
        return "train" if b < 52428 else ("val" if b < 58982 else "test")

    leak_expected = split_of(rows[0]["text"]) != split_of(rows[1]["text"])
    if leak_expected:
        assert len(out) == 1 and out.iloc[0]["doc_id_a"] == 1
        assert out.iloc[0]["split_a"] != out.iloc[0]["split_b"]
    else:
        assert len(out) == 0
    # doc 3 never appears — it has no near-dup partner
    assert 3 not in set(out.get("doc_id_a", [])) | set(out.get("doc_id_b", []))


def test_grouped_split_has_zero_leakage(ray_session):
    """The leakage-safe split closes the audit loop: every near-dup pair
    lands in one split, and non-paired docs keep the plain hash split."""
    import hashlib

    import ray.data as rd

    from pdfz_ray.functions.curation import split_assign_grouped
    from pdfz_ray.functions.dedup import ngram_jaccard_pairs

    def docs():
        return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    grouped = split_assign_grouped(docs(), threshold=0.2, n=3).to_pandas()
    split_of = dict(zip(grouped["doc_id"], grouped["split"]))
    pairs = ngram_jaccard_pairs(docs(), threshold=0.2, n=3)
    paired = set(pairs.column("doc_id_a").to_pylist()) | set(
        pairs.column("doc_id_b").to_pylist()
    )
    assert all(
        split_of[a] == split_of[b]
        for a, b in zip(
            pairs.column("doc_id_a").to_pylist(),
            pairs.column("doc_id_b").to_pylist(),
        )
    )
    # singletons keep the per-doc hash bucket
    texts = dict(zip(*[docs().to_pandas()[c] for c in ("doc_id", "text")]))
    for did, sp in list(split_of.items())[:50]:
        if did in paired:
            continue
        b = int(hashlib.md5(texts[did].encode()).hexdigest()[:4], 16)
        expect = "train" if b < 52428 else ("val" if b < 58982 else "test")
        assert sp == expect


def test_split_leakage_lsh_default_matches_exact(ray_session):
    """The LSH pair source (the scale default) audits identically to the
    exact all-pairs baseline on the driver corpus (LSH is full-recall
    here; verification makes precision exact)."""
    import ray.data as rd

    from pdfz_ray.functions.curation import split_leakage_audit

    def docs():
        return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    lsh = split_leakage_audit(docs(), threshold=0.2, n=3).to_pandas()
    exact = split_leakage_audit(
        docs(), threshold=0.2, n=3, pairs_mode="exact"
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df.values.tolist()))  # noqa: E731
    assert key(lsh) == key(exact)


def test_split_leakage_bad_pairs_raises(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import split_leakage_audit

    rows = [{"doc_id": 1, "text": "alpha beta gamma delta"}]
    bad_pairs = pa.Table.from_pylist(
        [{"doc_id_a": 1, "doc_id_b": 999}]  # 999 absent from the corpus
    )
    with pytest.raises(ValueError, match="999"):
        split_leakage_audit(
            ray.data.from_arrow(pa.Table.from_pylist(rows)), pairs=bad_pairs
        )


def test_revenue_by_nation_vs_duckdb(ray_session):
    import duckdb

    from pdfz_ray.functions.analytics import revenue_by_nation

    got = revenue_by_nation(SF).sort_values("n_name").reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"""
        SELECT n_name,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * CAST(round((1 - l_discount) * 100) AS BIGINT))
                    AS BIGINT) AS revenue_c4
        FROM read_parquet('{SF}/lineitem.parquet') l
        JOIN read_parquet('{SF}/orders.parquet') o ON l_orderkey = o_orderkey
        JOIN read_parquet('{SF}/customer.parquet') c ON o_custkey = c_custkey
        JOIN read_parquet('{SF}/nation.parquet') n ON c_nationkey = n_nationkey
        GROUP BY n_name ORDER BY n_name
        """
    ).df()
    assert got["n_name"].tolist() == want["n_name"].tolist()
    assert got["revenue_c4"].tolist() == want["revenue_c4"].tolist()


def _curate_reference(rows, pct=25, n=5, modulus=23):
    """Independent single-process reimplementation of curate_corpus (RE2
    ASCII tokens, md5 buckets, distinct word n-grams) for differential
    testing on randomized corpora."""
    import hashlib
    import math

    def toks(t):
        return re.findall(r"\S+", t or "", flags=re.ASCII)

    def grams(t):
        w = toks(t)
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    counts = sorted(len(toks(r["text"])) for r in rows)
    target = math.ceil(pct * len(rows) / 100)
    thresh = counts[target - 1] if rows else 0
    # smallest value whose cumulative count reaches target
    from collections import Counter

    hist = sorted(Counter(counts).items())
    cum = 0
    for v, c in hist:
        cum += c
        if cum >= target:
            thresh = v
            break
    bench = set()
    for r in rows:
        if r["doc_id"] % modulus == 0:
            bench |= grams(r["text"])
    winners = {}
    for r in rows:
        h = hashlib.md5(r["text"].encode()).hexdigest()
        winners.setdefault(h, r["doc_id"])
    out = {}
    for r in rows:
        t = r["text"]
        h = hashlib.md5(t.encode()).hexdigest()
        if len(toks(t)) < thresh:
            continue
        if grams(t) & bench:
            continue
        if winners[h] != r["doc_id"]:
            continue
        b = int(h[:4], 16)
        out[r["doc_id"]] = (
            "train" if b < 52428 else ("val" if b < 58982 else "test")
        )
    return out


def test_curate_corpus_differential_random(ray_session):
    """curate_corpus vs an independent serial reference over randomized
    corpora (dups, short docs, empty docs, unicode whitespace)."""
    import ray.data

    from pdfz_ray.functions.curation import curate_corpus

    for seed in (3, 17, 99):
        rng = np.random.default_rng(seed)
        vocab = [f"v{i}" for i in range(30)]
        rows = []
        for i in range(150):
            k = int(rng.integers(0, 25))
            rows.append(
                {"doc_id": i, "text": " ".join(rng.choice(vocab, size=k))}
            )
        # inject exact dups, an empty doc, and unicode whitespace
        rows[50]["text"] = rows[10]["text"]
        rows[51]["text"] = rows[10]["text"]
        rows[60]["text"] = ""
        rows[61]["text"] = "a b " + rows[61]["text"]
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
        got = curate_corpus(ds, pct=25, n=5, modulus=23).to_pandas()
        got_map = dict(zip(got["doc_id"], got["split"]))
        want = _curate_reference(rows)
        assert got_map == want, f"seed {seed}"


def test_doc_rarity_df_cap_identical(ray_session):
    """The df_cap partitioned-merge fallback returns bit-identical output
    to the full-broadcast path at every cap — including caps that empty
    the broadcast (df_cap below the minimum DF) and caps that leave a
    non-trivial remainder (docs whose every term is commoner than cap)."""
    import ray.data

    from pdfz_ray.functions.curation import doc_rarity

    rows = []
    # 30 docs over a vocab with df 1..6: ensures some docs resolve locally
    # at low caps while others (all-common docs) go through the merge
    common = "c1 c2 c3"
    for i in range(30):
        extra = f"r{i}" if i % 3 == 0 else ("mid1 mid2" if i % 3 == 1 else "")
        rows.append({"doc_id": i, "text": f"{common} {extra}".strip()})
    ds0 = pa.Table.from_pylist(rows)

    def run(cap):
        ds = ray.data.from_arrow(ds0).repartition(4)
        return (
            doc_rarity(ds, df_cap=cap)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    full = run(0)
    assert len(full) == 30
    for cap in (1, 2, 5, 50):
        assert run(cap).equals(full), f"df_cap={cap} diverged"


# ---------------------------------------------------------------------------
# round-3 operators: passage stats, mixture plan, cross-corpus dedup,
# shuffle rank, inference buckets
# ---------------------------------------------------------------------------


def _passage_ref(texts, n, min_docs):
    """Independent pure-Python reference over passage STRINGS (the SQL
    semantics, no hashing)."""
    wins = []  # (doc, [passages])
    for t in texts:
        toks = re.findall(r"\S+", t or "", flags=re.ASCII)
        wins.append([" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)])
    from collections import Counter

    docs_per = Counter()
    for ws in wins:
        for p in set(ws):
            docs_per[p] += 1
    out = {}
    for i, ws in enumerate(wins):
        if ws:
            out[i] = (len(ws), sum(1 for p in ws if docs_per[p] >= min_docs))
    return out


def test_passage_stats_matches_string_reference(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import passage_stats

    shared = "the quick brown fox jumps over the lazy dog tonight"
    texts = [
        shared,
        "prefix words " + shared + " suffix words",
        "totally unrelated content with enough tokens to form windows here",
        "short one",  # < 5 tokens → no row
        shared,  # exact dup of doc 0
        "",
    ]
    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [pa.array(range(len(texts)), pa.int64()), pa.array(texts)],
            names=["doc_id", "text"],
        )
    )
    got = {
        int(r["doc_id"]): (int(r["n_windows"]), int(r["n_dup_windows"]))
        for r in passage_stats(ds, n=5, min_docs=2).take_all()
    }
    assert got == _passage_ref(texts, 5, 2)
    # the shared sentence makes every window of doc 0 common
    assert got[0][0] == got[0][1] > 0


def test_mixture_plan_budget_and_determinism(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import mixture_plan

    rng = np.random.default_rng(7)
    n = 400
    texts = [
        " ".join(f"w{rng.integers(50)}" for _ in range(int(rng.integers(5, 40))))
        for _ in range(n)
    ]
    srcs = [f"s{i % 3}" for i in range(n)]
    tbl = pa.Table.from_arrays(
        [pa.array(range(n), pa.int64()), pa.array(texts), pa.array(srcs)],
        names=["doc_id", "text", "source"],
    )
    ds = ray.data.from_arrow(tbl)
    weights, budget = {"s0": 6, "s1": 1, "s2": 1}, 30_000
    out = mixture_plan(ds, weights=weights, budget=budget).take_all()
    assert len(out) == n
    # per-source realized tokens ≈ the integer target G_s (within one
    # max-doc-length of the remainder rounding)
    ntok = {i: len(texts[i].split()) for i in range(n)}
    tot = {}
    for r in out:
        tot.setdefault(r["source"], [0, 0])
        tot[r["source"]][0] += ntok[int(r["doc_id"])] * int(r["n_copies"])
    ts = {}
    for i in range(n):
        ts[srcs[i]] = ts.get(srcs[i], 0) + ntok[i]
    sum_w = sum(weights.values())
    for s, (realized, _) in tot.items():
        gs = budget * weights[s] // sum_w
        # the remainder lands on a hash-selected doc FRACTION, so the
        # realized total is binomial around G_s — bound statistically
        assert abs(realized - gs) <= 0.15 * gs + max(ntok.values()), (s, realized, gs)
    # upweighted source oversamples: every s0 doc gets >= 1 copy
    s0 = [int(r["n_copies"]) for r in out if r["source"] == "s0"]
    assert min(s0) >= 1
    # deterministic across runs
    out2 = mixture_plan(ds, weights=weights, budget=budget).take_all()
    assert sorted((r["doc_id"], r["n_copies"]) for r in out) == sorted(
        (r["doc_id"], r["n_copies"]) for r in out2
    )


def test_dedup_against_drops_exact_cross_matches(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import dedup_against

    texts = ["ref only", "in both corpora", "corpus only", "in both corpora", "another"]
    srcs = ["src0", "src0", "web", "web", "web"]
    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [pa.array(range(5), pa.int64()), pa.array(texts), pa.array(srcs)],
            names=["doc_id", "text", "source"],
        )
    )
    out = dedup_against(ds, ref_source="src0").take_all()
    kept = sorted(int(r["doc_id"]) for r in out)
    # doc 3 matches reference doc 1's content → dropped; ref docs never emit
    assert kept == [2, 4]


def test_shuffle_rank_is_exact_permutation(ray_session):
    import hashlib

    import ray.data

    from pdfz_ray.functions.curation import shuffle_rank

    ids = list(range(1000))
    ds = ray.data.from_arrow(
        pa.Table.from_arrays([pa.array(ids, pa.int64())], names=["doc_id"])
    )
    out = shuffle_rank(ds, bucket_hex_digits=2).take_all()
    pos = {int(r["doc_id"]): int(r["shuffle_pos"]) for r in out}
    assert sorted(pos.values()) == ids  # a complete 0..n-1 permutation
    # matches the single-machine reference order exactly
    ref_order = sorted(ids, key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
    assert all(pos[d] == r for r, d in enumerate(ref_order))
    # bucketing granularity does not change the permutation
    out3 = shuffle_rank(ds, bucket_hex_digits=3).take_all()
    assert {int(r["doc_id"]): int(r["shuffle_pos"]) for r in out3} == pos


def test_inference_buckets_pow2_and_padding(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import inference_buckets

    texts = ["w " * k for k in [1, 2, 3, 4, 5, 9, 16, 17, 0]]
    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [pa.array(range(len(texts)), pa.int64()), pa.array([t.strip() for t in texts])],
            names=["doc_id", "text"],
        )
    )
    rows = {int(r["bucket"]): r for r in inference_buckets(ds).take_all()}
    # nt: 1,2,3,4,5,9,16,17,0 → buckets 1,2,4,4,8,16,16,32,1
    assert rows[1]["n_docs"] == 2 and rows[1]["pad_tokens"] == 1
    assert rows[2]["n_docs"] == 1 and rows[2]["pad_tokens"] == 0
    assert rows[4]["n_docs"] == 2 and rows[4]["pad_tokens"] == 1
    assert rows[8]["n_docs"] == 1 and rows[8]["pad_tokens"] == 3
    assert rows[16]["n_docs"] == 2 and rows[16]["pad_tokens"] == 7
    assert rows[32]["n_docs"] == 1 and rows[32]["pad_tokens"] == 15


def test_passage_dedup_corpus_excises_common_windows(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import passage_dedup_corpus

    shared = "the quick brown fox jumps over the lazy dog tonight"  # 10 toks
    texts = [
        shared,                                      # fully covered → no row
        "unique lead in words " + shared + " unique tail words here",
        "totally unrelated content with enough tokens to form many windows",
        "tiny doc",                                  # < 5 tokens → kept whole
        shared,                                      # dup of doc 0 → no row
        "",                                          # empty → no row
    ]
    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [pa.array(range(len(texts)), pa.int64()), pa.array(texts)],
            names=["doc_id", "text"],
        )
    )
    got = {
        int(r["doc_id"]): (r["clean_text"], int(r["n_kept_tokens"]))
        for r in passage_dedup_corpus(ds, n=5, min_docs=2).take_all()
    }
    assert set(got) == {1, 2, 3}
    # doc 1: the shared sentence is excised, surrounding uniques survive
    assert got[1][0] == "unique lead in words unique tail words here"
    assert got[1][1] == 8
    # untouched docs come back token-joined but complete
    assert got[2][1] == len(texts[2].split())
    assert got[3] == ("tiny doc", 2)


def test_query_window_holds_round5_entries():
    """Regression guard for the correctness driver's 50-entry window.
    Round-5 policy (VERDICT r4 next-round #2): anything new or changed in
    round N sits INSIDE the first 50 queries() entries in round N. The
    five round-4 additions (never driver-checked before) plus every
    operator touched in round 5 must be in the window; the five
    twice-proven shared content-hash consumers rotated to the tail."""
    import __ray_entry__ as e

    keys = list(e.queries())
    window = set(keys[:50])
    changed_r5 = [
        # round-4 additions entering the window for their first driver row
        "chunk_docs",
        "bigram_top",
        "tfidf_topk",
        "semantic_dedup",
        "lm_coverage",
        # semantics pinned this round (ADVICE r4 #1)
        "shuffle_rank",
        # production (non-collecting) variants this round
        "sessionize_bucketed",
        "running_event_counts",
        "asof_join",
        # media decode family (JPEG 4:2:0 extension this round)
        "media_decode",
    ]
    still_window = [
        # flagship extraction surface — always in the window
        "extract_flat",
        "extract_windowed",
        "ocr_spans",
        "exact_dedup",
        "passage_stats",
        "passage_dedup",
    ]
    for name in changed_r5 + still_window:
        assert name in window, f"{name} fell out of the driver window"
    # rotated OUT this round: twice-proven (driver-green r3 AND r4),
    # unchanged in r5 — still covered by pytest + check_queries
    for name in (
        "hash_sample",
        "split_assign_grouped",
        "dedup_against",
        "mixture_plan",
        "mixture_materialize",
    ):
        assert name in keys[50:], f"{name} should be in the tail"
    # nothing lost in the rotation: no duplicates, full surface intact
    assert len(keys) == len(set(keys)) == 81


def test_common_window_set_restores_shuffle_flag(ray_session):
    import ray.data
    from ray.data import DataContext

    from pdfz_ray.functions.curation import _common_window_set

    ctx = DataContext.get_current()
    # the scope helper prefers the non-deprecated shuffle_strategy knob
    # (ADVICE r4 #5); assert BOTH knobs are restored after the call
    before_strategy = ctx.shuffle_strategy
    before_flag = ctx.use_push_based_shuffle
    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [pa.array([1, 2], pa.int64()), pa.array(["a b c d e f", "a b c d e f"])],
            names=["doc_id", "text"],
        )
    )
    cs = _common_window_set(ds, 5, 2)
    assert len(cs) == 2  # two distinct 5-windows, both in 2 docs
    assert ctx.shuffle_strategy == before_strategy
    assert ctx.use_push_based_shuffle == before_flag


def test_push_shuffle_scope_sets_and_restores(ray_session):
    import ray.data
    from ray.data.context import ShuffleStrategy

    from pdfz_ray.functions.curation import _push_shuffle_scope

    ds = ray.data.range(4)
    ctx = ds.context
    prev = ctx.shuffle_strategy
    assert prev != ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    with _push_shuffle_scope(ctx):
        assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    assert ctx.shuffle_strategy == prev


def test_dedup_against_without_reference_rows(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import dedup_against

    ds = ray.data.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array([1, 2], pa.int64()),
                pa.array(["x", "y"]),
                pa.array(["web", "web"]),
            ],
            names=["doc_id", "text", "source"],
        )
    )
    out = dedup_against(ds, ref_source="src0").take_all()
    assert sorted(int(r["doc_id"]) for r in out) == [1, 2]


def test_quality_gate_by_lang_per_group_thresholds(ray_session):
    """Each language gets its OWN P25: a short-doc language keeps its best
    docs even when a long-doc language would have gated them all out."""
    import ray.data

    from pdfz_ray.functions.curation import quality_gate_quantile_by_lang

    rows = []
    # lang "lo": 4 docs of 2,3,4,5 tokens → P50 threshold 3 (keep 3,4,5)
    for i, k in enumerate([2, 3, 4, 5]):
        rows.append({"doc_id": i, "text": " ".join(["w"] * k), "lang": "lo"})
    # lang "hi": 4 docs of 100..400 tokens → P50 threshold 200 (keep 3)
    for i, k in enumerate([100, 200, 300, 400]):
        rows.append({"doc_id": 10 + i, "text": " ".join(["w"] * k), "lang": "hi"})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = quality_gate_quantile_by_lang(ds, pct=50).take_all()
    kept = {int(r["doc_id"]) for r in out}
    assert kept == {1, 2, 3, 11, 12, 13}
    # a GLOBAL P50 (threshold 5 over the combined histogram) would have
    # dropped every "lo" doc but one — per-lang gating keeps its best 3
    by_lang = {}
    for r in out:
        by_lang.setdefault(r["lang"], []).append(int(r["n_tokens"]))
    assert sorted(by_lang["lo"]) == [3, 4, 5]


def test_mixture_materialize_replicates_epochs(ray_session):
    import ray.data

    from pdfz_ray.functions.curation import mixture_materialize, mixture_plan

    n = 60
    texts = [" ".join(["w"] * 10) + f" unique{i}" for i in range(n)]
    srcs = ["boost" if i % 2 == 0 else "base" for i in range(n)]
    tbl = pa.Table.from_arrays(
        [pa.array(range(n), pa.int64()), pa.array(texts), pa.array(srcs)],
        names=["doc_id", "text", "source"],
    )
    ds = ray.data.from_arrow(tbl)
    weights, budget = {"boost": 9, "base": 1}, 4000
    plan = {
        int(r["doc_id"]): int(r["n_copies"])
        for r in mixture_plan(ds, weights=weights, budget=budget).take_all()
    }
    rows = mixture_materialize(ds, weights=weights, budget=budget).take_all()
    seen: dict[int, list[int]] = {}
    for r in rows:
        seen.setdefault(int(r["doc_id"]), []).append(int(r["copy_idx"]))
    # every doc appears exactly n_copies times with copy_idx 0..n-1
    assert {d: len(v) for d, v in seen.items()} == {
        d: c for d, c in plan.items() if c > 0
    }
    for d, v in seen.items():
        assert sorted(v) == list(range(len(v)))
    # the boosted source multi-epochs: its docs replicate >= 2x
    boosted = [plan[d] for d in plan if d % 2 == 0]
    assert min(boosted) >= 2


# round-4 regression tests (advisor items)


def test_window_hashes_not_byte_aliasable():
    """Advisor r3: raw poly-2^64 token hashes combined with the SAME base
    as the byte hash let adjacent tokens' exponent ranges overlap —
    'x ab de q r' and 'x ac ce q r' collided structurally. The splitmix64
    finalizer on each token hash breaks byte aliasing across token
    boundaries."""
    from pdfz_ray.functions.curation import _window_hashes

    col = pa.array(["x ab de q r", "x ac ce q r"])
    wh, parent = _window_hashes(col, 5)
    assert len(wh) == 2
    assert wh[0] != wh[1]
    # and identical windows still hash identically
    col2 = pa.array(["x ab de q r", "pad x ab de q r"])
    wh2, _ = _window_hashes(col2, 5)
    assert wh[0] == wh2[0] and wh[0] in set(wh2)


def test_mixture_materialize_empty_batch_safe(ray_session):
    """Advisor r3: replicate() raised on zero-row batches (starts had
    length 1 while n had length 0). Feed a corpus whose only block is
    entirely unknown-source (filtered out by mixture_plan.assign) plus a
    normal block, and check the pipeline survives end to end."""
    import ray.data

    from pdfz_ray.functions.curation import mixture_materialize
    from pdfz_ray.functions.curation import mixture_plan as _mp

    # block 1: every row has zero tokens -> its source never enters the
    # plan -> assign() emits a zero-row batch for it
    t1 = pa.Table.from_arrays(
        [pa.array([1, 2], pa.int64()), pa.array(["", ""]), pa.array(["emptysrc"] * 2)],
        names=["doc_id", "text", "source"],
    )
    t2 = pa.Table.from_arrays(
        [pa.array([3, 4], pa.int64()), pa.array(["a b c", "d e f"]), pa.array(["web"] * 2)],
        names=["doc_id", "text", "source"],
    )
    ds = ray.data.from_arrow([t1, t2])
    plan_rows = _mp(ds, weights={"web": 1}, budget=12).take_all()
    assert {int(r["doc_id"]) for r in plan_rows} == {3, 4}
    out = mixture_materialize(ds, weights={"web": 1}, budget=12).take_all()
    assert {int(r["doc_id"]) for r in out} == {3, 4}
    per_doc: dict[int, int] = {}
    for r in out:
        per_doc[int(r["doc_id"])] = per_doc.get(int(r["doc_id"]), 0) + 1
    # sum_w counts BOTH sources present (emptysrc defaults to weight 1),
    # so web's share is 12*1//2 = 6 tokens over its 6 => 1 copy each
    assert per_doc == {3: 1, 4: 1}


def test_shared_content_hash_feeds_operators(ray_session):
    """r3 review item #5/next-round #6: with_content_hash runs the per-doc
    md5 loop ONCE; hash_sample_batch, mixture_plan, dedup_against and
    split_assign_grouped consume the precomputed column via hash_col and
    produce byte-identical output to their self-hashing default path."""
    import ray.data

    from pdfz_ray.functions.curation import (
        dedup_against,
        hash_sample_batch,
        mixture_plan,
        split_assign_grouped,
        with_content_hash,
    )

    n = 120
    texts = [f"doc {i} " + " ".join(f"w{(i * 7 + j) % 40}" for j in range(12)) for i in range(n)]
    # make doc 0/1 exact cross-source dups so dedup_against has real work
    texts[1] = texts[0]
    srcs = ["src0" if i % 3 == 0 else "web" for i in range(n)]
    tbl = pa.Table.from_arrays(
        [pa.array(range(n), pa.int64()), pa.array(texts), pa.array(srcs)],
        names=["doc_id", "text", "source"],
    )

    def mk():
        return ray.data.from_arrow(tbl)

    # ONE hash pass, materialized so downstream operators reuse the blocks
    hashed = with_content_hash(mk()).materialize()

    def rows(ds_or_tbl):
        t = ds_or_tbl.to_pandas() if hasattr(ds_or_tbl, "to_pandas") else ds_or_tbl
        cols = sorted(t.columns)
        return sorted(map(tuple, t[cols].astype(str).values.tolist()))

    # 1. hash_sample (batch-level, via map_batches with fn_kwargs)
    base = mk().map_batches(hash_sample_batch, batch_format="pyarrow")
    shared = hashed.map_batches(
        hash_sample_batch, batch_format="pyarrow", fn_kwargs={"hash_col": "content_hash"}
    )
    assert rows(base) == rows(shared) and len(rows(base)) > 0

    # 2. mixture_plan
    a = rows(mixture_plan(mk(), weights={"web": 3}, budget=5000))
    b = rows(mixture_plan(hashed, weights={"web": 3}, budget=5000, hash_col="content_hash"))
    assert a == b and len(a) > 0

    # 3. dedup_against
    a = rows(dedup_against(mk(), ref_source="src0"))
    b = rows(dedup_against(hashed, ref_source="src0", hash_col="content_hash"))
    assert a == b
    assert all(r[1] != "src0" for r in a)  # (doc_id, source) survivors

    # 4. split_assign_grouped
    a = rows(split_assign_grouped(mk(), pairs_mode="exact"))
    b = rows(split_assign_grouped(hashed, pairs_mode="exact", hash_col="content_hash"))
    assert a == b and len(a) == n

    # consumption proof: a deliberately WRONG hash column steers the
    # sample (so the operator cannot be re-hashing text under the hood)
    wrong = mk().map_batches(
        lambda t: t.append_column(
            "content_hash", pa.array(["ffff" + "0" * 28] * t.num_rows)
        ),
        batch_format="pyarrow",
    )
    steered = wrong.map_batches(
        hash_sample_batch, batch_format="pyarrow", fn_kwargs={"hash_col": "content_hash"}
    )
    assert steered.count() == 0  # bucket 0xffff clears every rate

    # 5. exact_dedup_docs (round-4: the last hash-keyed op to join the
    # shared-pass contract)
    from pdfz_ray.functions.dedup import exact_dedup_docs

    a = rows(exact_dedup_docs(mk()))
    b = rows(exact_dedup_docs(hashed, hash_col="content_hash"))
    assert a == b and len(a) == n - 1  # docs 0/1 collapse to one keeper

    # 6. split_assign_batch (the plain split; grouped variant is case 4)
    from pdfz_ray.functions.text import split_assign_batch

    a = rows(mk().map_batches(split_assign_batch, batch_format="pyarrow"))
    b = rows(
        hashed.map_batches(
            split_assign_batch,
            batch_format="pyarrow",
            fn_kwargs={"hash_col": "content_hash"},
        )
    )
    assert a == b and len(a) == n


def test_passage_family_sharded_path_matches_broadcast(ray_session):
    """r3 next-round #9: above broadcast_limit the passage family resolves
    the common-window set via the hash-partitioned merge instead of a
    driver broadcast. Forcing broadcast_limit=0 must give byte-identical
    stats AND removal output to the broadcast path."""
    import ray.data

    from pdfz_ray.functions.curation import passage_dedup_corpus, passage_stats

    rng = np.random.default_rng(11)
    base = [" ".join(f"w{rng.integers(30)}" for _ in range(int(rng.integers(4, 30)))) for _ in range(40)]
    shared = "the quick brown fox jumps over the lazy dog"
    texts = []
    for i in range(120):
        t = base[i % 40]
        if i % 3 == 0:
            t = t + " " + shared  # common passage in every 3rd doc
        if i % 7 == 0:
            t = shared + " " + t  # and leading in every 7th
        texts.append(t)
    tbl = pa.Table.from_arrays(
        [pa.array(range(120), pa.int64()), pa.array(texts)],
        names=["doc_id", "text"],
    )

    def mk():
        return ray.data.from_arrow(tbl).repartition(6)

    def rows(ds):
        df = ds.to_pandas()
        cols = sorted(df.columns)
        return sorted(map(tuple, df[cols].astype(str).values.tolist()))

    a = rows(passage_stats(mk(), n=5, min_docs=2))
    b = rows(passage_stats(mk(), n=5, min_docs=2, broadcast_limit=0))
    assert a == b and len(a) > 0
    # sanity: the shared passage is detected as dup somewhere
    assert any(int(r[2]) > 0 for r in a)  # cols sorted: doc_id, n_dup, n_win

    c = rows(passage_dedup_corpus(mk(), n=5, min_docs=2))
    d = rows(passage_dedup_corpus(mk(), n=5, min_docs=2, broadcast_limit=0))
    assert c == d and len(c) > 0
