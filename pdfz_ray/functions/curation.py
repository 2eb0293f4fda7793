"""Corpus-curation operators for training-data pipelines: benchmark
decontamination, PII counting/redaction, sequence packing, and stratified
hash sampling.

These generalize the reference's curation-adjacent behaviors (upload-type
filtering `api/src/helpers/uploadhelper.ts:27-42`, in-flight dedup
`api/src/server.ts:90-103`) to the operations a 100-TB pretraining corpus
actually needs before training. Scale shapes:

- decontamination: benchmark n-gram set is SMALL by construction → built
  once, broadcast via ``ray.put``, materialized per actor in ``__init__``;
  the corpus streams through a vectorized Arrow membership kernel. No
  shuffle of document payloads.
- PII: pure RE2 kernels (``pyarrow.compute``) — compilation is amortized
  per batch, matching DuckDB's RE2 byte-for-byte.
- sequence packing: a distributed two-phase prefix scan — per-bucket token
  totals (tiny partials) shuffle, the driver cumsums one row per bucket,
  then per-bucket vectorized assignment. Payload text never shuffles.
- hash sampling: stateless per-batch predicate on a content hash —
  deterministic across runs, machines, and cluster sizes.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .analytics import exact_quantile
from .text import count_tokens, split_tokens

if TYPE_CHECKING:
    import ray.data


class _push_shuffle_scope:
    """Context manager enabling the push-based sort shuffle on ONE
    dataset chain's DataContext, restoring the prior value on exit.
    Ray 2.49 deprecates ``use_push_based_shuffle`` in favor of the
    ``shuffle_strategy`` property (ADVICE r4 #5): prefer the new knob
    when present so the 16× exchange speedup doesn't silently become a
    no-op on the next Ray upgrade; fall back to the boolean otherwise."""

    def __init__(self, ctx):
        self.ctx = ctx

    def __enter__(self):
        if hasattr(type(self.ctx), "shuffle_strategy"):
            from ray.data.context import ShuffleStrategy

            self.prev = self.ctx.shuffle_strategy
            self.ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        else:
            self.prev = self.ctx.use_push_based_shuffle
            self.ctx.use_push_based_shuffle = True
        return self.ctx

    def __exit__(self, *exc):
        if hasattr(type(self.ctx), "shuffle_strategy"):
            self.ctx.shuffle_strategy = self.prev
        else:
            self.ctx.use_push_based_shuffle = self.prev
        return False


def ngram_arrays(text_col, n: int = 3) -> tuple[pa.Array, np.ndarray]:
    """Vectorized word n-grams over a utf8 column → (flat gram strings,
    parent row indices). Grams are space-joined token windows, exactly
    ``w[i] || ' ' || w[i+1] || ...`` in the SQL twins; docs with < n
    tokens contribute no grams (mirrors generate_series(1, len(w)-n+1)
    being empty). Requires n >= 2.

    One regex split (``text.split_tokens``) + n zero-copy slices + one
    element-wise join per batch — no Python per row.
    """
    if n < 2:
        raise ValueError("ngram_arrays requires n >= 2")
    flat, parent = split_tokens(text_col)
    m = len(flat) - n + 1
    if m <= 0:
        return pa.array([], pa.string()), np.zeros(0, np.int64)
    # a gram starting at i is valid iff all n tokens share one document
    mask = parent[:m] == parent[n - 1 :]
    if not mask.any():
        return pa.array([], pa.string()), np.zeros(0, np.int64)
    pieces = [flat.slice(k, m) for k in range(n)]
    grams_all = pc.binary_join_element_wise(*pieces, " ")
    sel = pa.array(mask)
    return grams_all.filter(sel), parent[:m][mask]


def benchmark_gram_set(
    ds: "ray.data.Dataset", n: int = 3, modulus: int = 23
) -> pa.Array:
    """Distinct n-grams of the held-out benchmark slice (docs with
    ``doc_id % modulus == 0`` — a deterministic stand-in for an external
    eval set). The bench side is small by construction, so collecting its
    distinct grams to the driver IS the broadcast-build step; at 100 TB
    the benchmark is eval suites (MMLU et al.), a few MB of grams."""

    def distinct_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keep = pa.array(ids % modulus == 0)
        sub = batch.filter(keep)
        g, _ = ngram_arrays(sub.column("text"), n)
        return pa.Table.from_arrays([g.unique()], names=["gram"])

    parts = ds.map_batches(distinct_grams, batch_format="pyarrow").to_pandas()
    # an empty corpus gives a frame without columns
    return pa.array(parts.get("gram", []), pa.string()).unique()


def decontaminate_batch(batch: pa.Table, bench_ref=None, n: int = 3) -> pa.Table:
    """Flag the batch's docs sharing any word n-gram with the benchmark set
    — the train/test-contamination scan every serious pretraining pipeline
    runs. One vectorized ``is_in`` plus an Arrow distinct-count per batch;
    emits (doc_id, n_overlap) for contaminated docs only (n_overlap =
    DISTINCT overlapping grams). ``bench_ref`` may be the gram array itself
    or a ``ray.put`` ref (resolved zero-copy from the local plasma store —
    task mode beats a 4-actor pool here, same finding as the signer
    stages)."""
    bench = bench_ref
    if not isinstance(bench, pa.Array):
        import ray

        bench = ray.get(bench_ref)
    empty = pa.Table.from_arrays(
        [pa.array([], pa.int64()), pa.array([], pa.int64())],
        names=["doc_id", "n_overlap"],
    )
    if batch.num_rows == 0:
        return empty
    grams, parent = ngram_arrays(batch.column("text"), n)
    if len(grams) == 0:
        return empty
    hits = pc.is_in(grams, value_set=bench).to_numpy(zero_copy_only=False)
    if not hits.any():
        return empty
    sel = pa.array(hits)
    pairs = pa.Table.from_arrays(
        [pa.array(parent[hits]), grams.filter(sel)], names=["p", "g"]
    )
    distinct = pairs.group_by(["p", "g"]).aggregate([])
    counts = distinct.group_by(["p"]).aggregate([("g", "count")])
    doc_ids = batch.column("doc_id").take(counts.column("p"))
    return pa.Table.from_arrays(
        [doc_ids, pc.cast(counts.column("g_count"), pa.int64())],
        names=["doc_id", "n_overlap"],
    )


def decontaminate(
    ds: "ray.data.Dataset", n: int = 3, modulus: int = 23
) -> "ray.data.Dataset":
    """End-to-end decontamination scan: build + broadcast the benchmark
    gram set once (``ray.put``), then stream the corpus through the
    membership kernel as plain tasks (full worker-pool parallelism; the
    gram array is resolved zero-copy from plasma per task)."""
    import ray

    bench_ref = ray.put(benchmark_gram_set(ds, n=n, modulus=modulus))
    return ds.map_batches(
        decontaminate_batch,
        fn_kwargs={"bench_ref": bench_ref, "n": n},
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# PII counting / redaction
# ---------------------------------------------------------------------------

# RE2-compatible patterns (pyarrow.compute and DuckDB both run RE2, so the
# SQL twin matches byte-for-byte); keep in sync with the oracle_sql entry
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\b\d{3}-\d{3}-\d{4}\b"


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    """Count and redact PII-shaped substrings (emails, IPv4s, US-style
    phone numbers). Counts are taken on the ORIGINAL text; redaction is
    applied email → ip → phone (the replacement tokens contain no digits
    or '@', so the order only matters for documentation). All vectorized
    RE2 kernels."""
    text = pc.fill_null(batch.column("text"), "")
    n_emails = pc.cast(pc.count_substring_regex(text, EMAIL_RE), pa.int64())
    n_ipv4 = pc.cast(pc.count_substring_regex(text, IPV4_RE), pa.int64())
    n_phones = pc.cast(pc.count_substring_regex(text, PHONE_RE), pa.int64())
    red = pc.replace_substring_regex(text, pattern=EMAIL_RE, replacement="<EMAIL>")
    red = pc.replace_substring_regex(red, pattern=IPV4_RE, replacement="<IP>")
    red = pc.replace_substring_regex(red, pattern=PHONE_RE, replacement="<PHONE>")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), n_emails, n_ipv4, n_phones, red],
        names=["doc_id", "n_emails", "n_ipv4", "n_phones", "redacted"],
    )


# ---------------------------------------------------------------------------
# Sequence packing (token-budget bin assignment)
# ---------------------------------------------------------------------------


def pack_sequences(
    ds: "ray.data.Dataset", budget: int = 512, bucket_size: int = 4096
) -> "ray.data.Dataset":
    """Assign every document a training-sequence pack id and intra-pack
    offset under a fixed token budget (split-allowed packing: pack_id =
    prev_cumsum // budget over doc_id order — the standard layout when
    documents may straddle sequence boundaries with an EOS separator).

    Distributed prefix scan in two phases:
      A. per-bucket (doc_id // bucket_size) token totals — per-batch Arrow
         partials, then a tiny groupby-sum; the driver cumsums ONE ROW PER
         BUCKET and broadcasts the offsets.
      B. per-bucket ``map_groups``: vectorized sort + exclusive cumsum +
         bucket offset. Only (doc_id, bucket, n_tokens) rows shuffle —
         24 bytes/doc; text never moves.
    """
    import ray

    def tokens_and_bucket(batch: pa.Table) -> pa.Table:
        n = count_tokens(pc.fill_null(batch.column("text"), ""))
        ids = batch.column("doc_id").to_numpy()
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(ids // bucket_size), n],
            names=["doc_id", "bucket", "n_tokens"],
        )

    # materialize the NARROW projection once (24 bytes/doc in the object
    # store) so phase A and phase B don't each re-read + re-tokenize the
    # full corpus — the standard reuse cache, never the payload text
    narrow = ds.map_batches(tokens_and_bucket, batch_format="pyarrow").materialize()

    def bucket_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["bucket", "n_tokens"]).group_by(["bucket"]).aggregate(
            [("n_tokens", "sum")]
        )
        return g.rename_columns(["bucket", "total"])

    from ray.data.aggregate import Sum

    totals = (
        narrow.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("total", alias_name="total"))
        .to_pandas()
        .sort_values("bucket")
    )
    # exclusive cumsum over bucket totals: offset of bucket b = tokens
    # before it. One int64 per 4096 docs on the driver — ~30 MB per 1e13
    # docs; for larger corpora raise bucket_size.
    csum = totals["total"].cumsum().shift(fill_value=0)
    offsets_ref = ray.put(dict(zip(totals["bucket"], csum)))

    def assign(group: pa.Table) -> pa.Table:
        return pack_bucket(group, ray.get(offsets_ref), budget)

    return narrow.groupby("bucket").map_groups(assign, batch_format="pyarrow")


def pack_bucket(group: pa.Table, offsets: dict, budget: int) -> pa.Table:
    """Phase B of the packing scan for one bucket's rows: sort them by
    doc_id, take the exclusive cumsum of ``n_tokens`` from the bucket's
    offset, and append ``pack_id`` (``// budget``) and ``pack_offset``
    (``% budget``) in place of the ``bucket`` column."""
    g = group.take(pc.sort_indices(group.column("doc_id")))
    n = g.column("n_tokens").to_numpy()
    start = int(offsets[int(g.column("bucket")[0].as_py())])
    prev = start + np.concatenate(([0], np.cumsum(n[:-1])))
    return (
        g.drop_columns(["bucket"])
        .append_column("pack_id", pa.array(prev // budget))
        .append_column("pack_offset", pa.array(prev % budget))
    )


# ---------------------------------------------------------------------------
# Stratified hash sampling + the shared content-hash pass
# ---------------------------------------------------------------------------

DEFAULT_RATE_PCT = 10
BOOST_RATES = {"src0": 50}  # per-source overrides (e.g. upweight a domain)


def _md5_hex(text_col) -> list[str]:
    """Per-doc md5 hexdigests over a text column — the DuckDB-equality
    content key every hash-keyed curation operator derives its bucket
    from. One C call per doc; at corpus scale this is each operator's
    hottest loop, which is why :func:`with_content_hash` exists to pay
    it exactly once for a composed pipeline."""
    texts = pc.fill_null(text_col, "").to_pylist()
    return [hashlib.md5(t.encode()).hexdigest() for t in texts]


def with_content_hash(
    ds: "ray.data.Dataset", text_col: str = "text", out_col: str = "content_hash"
) -> "ray.data.Dataset":
    """ONE corpus pass appending ``md5(text)`` as a hex column. Feed the
    result to ``hash_sample_batch`` / ``mixture_plan`` / ``dedup_against``
    / ``split_assign_grouped`` via their ``hash_col`` parameter so the
    composed pipeline runs the md5 loop once instead of once per
    operator (r3 review item: the shared precomputed key the
    ``curation_state`` projection already materializes for curate
    flows, generalized)."""

    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out_col, pa.array(_md5_hex(batch.column(text_col)), pa.string())
        )

    return ds.map_batches(add, batch_format="pyarrow")


def _bucket16(batch: pa.Table, hash_col: str | None, text_col: str = "text") -> np.ndarray:
    """Per-row 16-bit md5 bucket: sliced from the precomputed hexdigest
    column when ``hash_col`` is given, else one md5 pass over the text."""
    if hash_col is not None:
        hx = batch.column(hash_col).to_pylist()
    else:
        hx = _md5_hex(batch.column(text_col))
    return np.array([int(x[:4], 16) for x in hx], np.int64)


def _hash_u64(batch: pa.Table, hash_col: str | None, idx=None) -> np.ndarray:
    """Per-row 64-bit md5 prefix (uint64), optionally over a row subset."""
    if hash_col is not None:
        hx = batch.column(hash_col).to_pylist()
        if idx is not None:
            hx = [hx[i] for i in idx]
    else:
        col = batch.column("text")
        if idx is not None:
            col = col.take(pa.array(np.asarray(idx, np.int64)))
        hx = _md5_hex(col)
    return np.array([np.uint64(int(x[:16], 16)) for x in hx], np.uint64)


def hash_sample_batch(
    batch: pa.Table, rates: dict | None = None, hash_col: str | None = None
) -> pa.Table:
    """Deterministic stratified sampling: keep a doc iff the first 16 bits
    of md5(text) fall under its source's rate — the same content-hash
    bucketing as the train/val/test split (``text.split_assign_batch``),
    so samples are stable across runs and cluster sizes, and a given text
    is sampled consistently wherever it appears. Per-source rates let a
    curation pipeline up/down-weight domains. ``hash_col`` names a
    precomputed md5-hex column (see :func:`with_content_hash`)."""
    rates = BOOST_RATES if rates is None else rates
    buckets = _bucket16(batch, hash_col)
    sources = batch.column("source").to_pylist()
    thresh = np.array(
        [(rates.get(s, DEFAULT_RATE_PCT) * 65536) // 100 for s in sources],
        np.int64,
    )
    keep = pa.array(buckets < thresh)
    return batch.select(["doc_id", "source"]).filter(keep)


def repetition_stats_batch(batch: pa.Table, n: int = 2) -> pa.Table:
    """Repetition-quality signals per doc (the Gopher-style "fraction of
    tokens in duplicated n-grams" filter family, integer-exact):

      n_grams      total n-gram occurrences
      max_gram_count  occurrences of the doc's most frequent n-gram
      n_dup_gram   occurrences belonging to grams that appear > 1 time

    Docs with no n-grams (< n tokens) emit no row (mirrors the SQL twin's
    GROUP BY over the gram table). All Arrow group_by kernels — the
    per-doc distinct-gram counting never leaves the batch.
    """
    grams, parent = ngram_arrays(batch.column("text"), n)
    empty = pa.Table.from_arrays(
        [pa.array([], pa.int64())] * 4,
        names=["doc_id", "n_grams", "max_gram_count", "n_dup_gram"],
    )
    if len(grams) == 0:
        return empty
    pairs = pa.Table.from_arrays([pa.array(parent), grams], names=["p", "g"])
    cnt = pairs.group_by(["p", "g"]).aggregate([("g", "count")])
    c = pc.cast(cnt.column("g_count"), pa.int64())
    dup = pc.if_else(pc.greater(c, 1), c, pa.scalar(0, pa.int64()))
    cnt2 = pa.Table.from_arrays(
        [cnt.column("p"), c, dup], names=["p", "c", "dup"]
    )
    agg = cnt2.group_by(["p"]).aggregate(
        [("c", "sum"), ("c", "max"), ("dup", "sum")]
    )
    doc_ids = batch.column("doc_id").take(agg.column("p"))
    return pa.Table.from_arrays(
        [
            doc_ids,
            pc.cast(agg.column("c_sum"), pa.int64()),
            pc.cast(agg.column("c_max"), pa.int64()),
            pc.cast(agg.column("dup_sum"), pa.int64()),
        ],
        names=["doc_id", "n_grams", "max_gram_count", "n_dup_gram"],
    )


def doc_rarity(
    ds: "ray.data.Dataset", df_cap: int = 0, join_partitions: int = 4
) -> "ray.data.Dataset":
    """Per-doc rarity annotation: each document's rarest term (lowest
    corpus document frequency; ties broken lexicographically) and that
    term's DF — the "global statistic → per-record annotation" pattern
    (IDF scoring, rarity-based curation) with integer-exact outputs.

    Phase 1 computes corpus document frequencies with per-batch distinct
    terms (the partial combiner: each batch emits each (term) once per
    containing doc, pre-deduped), then a groupby-count whose shuffle is
    bounded by vocabulary size, not corpus size. Phase 2 broadcasts the
    DF table once (``ray.put``) and streams docs through a vectorized
    argmin lookup. Docs with no tokens emit no row.

    Scale bound: with ``df_cap=0`` the broadcast is VOCABULARY-sized
    (distinct terms). For web-scale vocabularies (10^8+ terms) set
    ``df_cap=D``: only the df ≤ D tail is broadcast — a doc whose rarest
    broadcast term has df ≤ D resolves locally (every non-broadcast term
    has df > D, strictly commoner, so the local winner is globally
    correct, ties included); docs whose terms are ALL commoner than D
    fall back to a hash-partitioned join on term against the (sharded) DF
    table, with a zero-padded "df term" string key whose lexicographic
    min reproduces the (df, term) tie-break exactly. Identical output for
    any cap."""
    import ray

    def distinct_terms(batch: pa.Table) -> pa.Table:
        toks, parent = split_tokens(batch.column("text"))
        if len(toks) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string())],
                names=["p", "term"],
            )
        pairs = pa.Table.from_arrays([pa.array(parent), toks], names=["p", "term"])
        # p is batch-local but each doc lives in exactly one batch, so the
        # global (doc, term) pairs are exact; only terms shuffle
        return pairs.group_by(["p", "term"]).aggregate([]).select(["term"])

    from ray.data.aggregate import Count, Min

    df_ds = (
        ds.map_batches(distinct_terms, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Count(alias_name="df"))
    )
    if df_cap > 0:
        df_ds = df_ds.materialize()  # reused by broadcast slice AND join
        df_tbl = df_ds.map_batches(
            lambda t: t.filter(pc.less_equal(t.column("df"), df_cap)),
            batch_format="pyarrow",
        ).to_pandas()
    else:
        df_tbl = df_ds.to_pandas()
    if "term" not in df_tbl.columns:  # all-empty blocks lose the schema
        import pandas as pd

        df_tbl = pd.DataFrame({"term": pd.Series([], dtype=str), "df": []})
    # vocabulary broadcast: sorted term array + df array (lexicographic
    # order doubles as the tie-break order)
    terms = pa.array(df_tbl["term"].astype(str).sort_values(), pa.string())
    df_sorted = (
        df_tbl.set_index("term")["df"].loc[terms.to_pylist()].to_numpy()
        if len(df_tbl)
        else np.zeros(0, np.int64)
    )
    ref = ray.put((terms, df_sorted.astype(np.int64)))

    def annotate(resolve_only: bool):
        def fn(batch: pa.Table) -> pa.Table:
            vocab, dfs = ray.get(ref)
            res_names = ["doc_id", "rarest_term", "term_df"]
            rem_names = ["doc_id", "term"]
            empty = pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string())]
                + ([pa.array([], pa.int64())] if resolve_only else []),
                names=res_names if resolve_only else rem_names,
            )
            if batch.num_rows == 0:
                return empty
            toks, parent = split_tokens(batch.column("text"))
            if len(toks) == 0:
                return empty
            idx_arr = pc.index_in(toks, value_set=vocab)
            miss = pc.is_null(idx_arr).to_numpy(zero_copy_only=False)
            idx = (
                pc.fill_null(idx_arr, -1)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            # docs where every token missed the broadcast → join fallback
            hit_docs = np.unique(parent[~miss])
            in_bcast = np.isin(parent, hit_docs)
            if resolve_only:
                keep = in_bcast & ~miss
                if not keep.any():
                    return empty
                parent_k, idx_k = parent[keep], idx[keep]
                tok_df = dfs[idx_k]
                # per-doc argmin of (df, vocab index): lexsort by df then
                # vocab index → tie-broken minimum at each doc's first slot
                order = np.lexsort((idx_k, tok_df, parent_k))
                p_sorted = parent_k[order]
                first = np.concatenate(([True], p_sorted[1:] != p_sorted[:-1]))
                sel = order[first]
                doc_ids = batch.column("doc_id").take(pa.array(parent_k[sel]))
                return pa.Table.from_arrays(
                    [
                        doc_ids,
                        vocab.take(pa.array(idx_k[sel])),
                        pa.array(tok_df[sel].astype(np.int64)),
                    ],
                    names=res_names,
                )
            # remainder pass: distinct (doc_id, term) pairs of fallback docs
            keep = ~in_bcast
            if not keep.any():
                return empty
            pairs = (
                pa.Table.from_arrays(
                    [
                        batch.column("doc_id").take(pa.array(parent[keep])),
                        toks.take(pa.array(np.nonzero(keep)[0])),
                    ],
                    names=rem_names,
                )
                .group_by(rem_names)
                .aggregate([])
            )
            return pairs.select(rem_names)

        return fn

    resolved = ds.map_batches(annotate(True), batch_format="pyarrow")
    if df_cap <= 0:
        return resolved
    # Fallback for docs entirely above the cap: hash-partition BOTH the
    # (doc_id, term) remainder pairs and the DF table by term into coarse
    # partitions, merge inside each partition with a vectorized
    # searchsorted (inner semantics), and keep per-doc partition-local
    # minima of the order-preserving "df term" key. A Dataset.join would
    # express this too, but Ray's hash-join finalize breaks on partitions
    # whose left side received only empty blocks (schema-less empties →
    # Acero "No match for FieldRef(term)") — the remainder side is
    # routinely near-empty, so that is the common case here.
    rem = ds.map_batches(annotate(False), batch_format="pyarrow")
    n_merge = max(1, join_partitions) * 8

    def tag(is_df_side: bool):
        def fn(batch: pa.Table) -> pa.Table:
            import pandas as pd

            n = batch.num_rows
            term = batch.column("term")
            if isinstance(term, pa.ChunkedArray):
                term = term.combine_chunks()
            p = (
                pd.util.hash_array(
                    term.to_numpy(zero_copy_only=False).astype(object)
                )
                % n_merge
            ).astype(np.int64)
            if is_df_side:
                doc = pa.nulls(n, pa.int64())
                dfc = pc.cast(batch.column("df"), pa.int64())
            else:
                doc = pc.cast(batch.column("doc_id"), pa.int64())
                dfc = pa.nulls(n, pa.int64())
            return pa.Table.from_arrays(
                [doc, pc.cast(term, pa.string()), dfc, pa.array(p)],
                names=["doc_id", "term", "df", "p"],
            )

        return fn

    merged = rem.map_batches(tag(False), batch_format="pyarrow").union(
        df_ds.map_batches(tag(True), batch_format="pyarrow")
    )

    def local_best(group: pa.Table) -> pa.Table:
        is_df = pc.is_valid(group.column("df")).to_numpy(zero_copy_only=False)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string())],
            names=["doc_id", "key"],
        )
        if is_df.all() or not is_df.any():
            return empty
        terms = group.column("term").to_numpy(zero_copy_only=False)
        dfv = (
            pc.fill_null(group.column("df"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        docv = (
            pc.fill_null(group.column("doc_id"), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vt, vdf = terms[is_df], dfv[is_df]
        order = np.argsort(vt, kind="stable")
        vt, vdf = vt[order], vdf[order]
        pt, pdoc = terms[~is_df], docv[~is_df]
        pos = np.minimum(np.searchsorted(vt, pt), max(len(vt) - 1, 0))
        hit = vt[pos] == pt  # inner-join semantics; misses are dropped
        if not hit.any():
            return empty
        pdoc, pdf, pterm = pdoc[hit], vdf[pos[hit]], pt[hit]
        keys = np.array(
            [f"{d:012d} {t}" for d, t in zip(pdf.tolist(), pterm.tolist())],
            object,
        )
        # partition-local per-doc minimum → only one row per (doc,
        # partition) reaches the final groupby
        o = np.lexsort((keys, pdoc))
        pd_s, k_s = pdoc[o], keys[o]
        first = np.concatenate(([True], pd_s[1:] != pd_s[:-1]))
        return pa.Table.from_arrays(
            [pa.array(pd_s[first]), pa.array(k_s[first].tolist(), pa.string())],
            names=["doc_id", "key"],
        )

    best = (
        merged.groupby("p")
        .map_groups(local_best, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Min("key", alias_name="key"))
    )

    def unkey(batch: pa.Table) -> pa.Table:
        ks = batch.column("key").to_pylist()
        dfs = [int(k[:12]) for k in ks]
        ts = [k[13:] for k in ks]
        return pa.Table.from_arrays(
            [
                pc.cast(batch.column("doc_id"), pa.int64()),
                pa.array(ts, pa.string()),
                pa.array(dfs, pa.int64()),
            ],
            names=["doc_id", "rarest_term", "term_df"],
        )

    return resolved.union(best.map_batches(unkey, batch_format="pyarrow"))


def _token_narrow(ds: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
    """Materialized ``cols`` + ``n_tokens`` projection of the corpus (null
    text counts 0 tokens, as its SQL twin's coalesce)."""

    def tokens(batch: pa.Table) -> pa.Table:
        n = count_tokens(pc.fill_null(batch.column("text"), ""))
        return pa.Table.from_arrays(
            [*(batch.column(c) for c in cols), n], names=[*cols, "n_tokens"]
        )

    return ds.map_batches(tokens, batch_format="pyarrow").materialize()


def _token_histogram(narrow: "ray.data.Dataset", by: list[str]):
    """Value counts of ``n_tokens`` over a narrow table, per ``by`` group:
    a pandas frame of (*by, v, c), c docs having v tokens (no rows, with
    those columns, for an empty table). Each batch pre-aggregates, so the
    shuffle is bounded by groups × distinct token counts, not docs."""
    keys = [*by, "n_tokens"]

    def value_counts(batch: pa.Table) -> pa.Table:
        g = batch.select(keys).group_by(keys).aggregate([("n_tokens", "count")])
        return g.rename_columns([*by, "v", "c"])

    from ray.data.aggregate import Sum

    return (
        narrow.map_batches(value_counts, batch_format="pyarrow")
        .groupby([*by, "v"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
        # an empty table's groupby gives a frame without columns
        .reindex(columns=[*by, "v", "c"])
    )


def quality_gate_quantile(
    ds: "ray.data.Dataset", pct: int = 25
) -> "ray.data.Dataset":
    """Corpus-relative quality gate: keep documents whose token count is at
    or above the exact corpus ``pct``-th percentile (threshold = smallest
    value whose cumulative count reaches ceil(pct% of docs), by
    ``analytics.exact_quantile``).

    Composition shape: narrow (doc_id, n_tokens) projection materialized
    once → value-count compaction (shuffle bounded by distinct token
    counts, not docs) → driver walks the tiny histogram → threshold
    broadcast into a vectorized filter over the SAME narrow table. The
    text column is tokenized once and never shuffles."""
    narrow = _token_narrow(ds, ["doc_id"])
    hist = _token_histogram(narrow, [])
    thresh = exact_quantile(hist["v"], hist["c"], pct)
    if thresh is None:
        return narrow

    def gate(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_tokens"), thresh))

    return narrow.map_batches(gate, batch_format="pyarrow")


def quality_gate_quantile_by_lang(
    ds: "ray.data.Dataset", pct: int = 25
) -> "ray.data.Dataset":
    """Language-BALANCED corpus-relative quality gate: each document must
    clear the exact ``pct``-th token-count percentile OF ITS OWN language
    — the stratified variant a multilingual pretraining mix needs (a
    global threshold would gut low-resource languages whose docs run
    short). Per-group exact quantiles via the same value-count
    compaction, keyed by (lang, n_tokens): the shuffle is bounded by
    languages × distinct token counts, the driver walks one tiny
    histogram per language, and the per-lang thresholds broadcast into
    one vectorized gate pass. Output: (doc_id, lang, n_tokens) of the
    survivors."""
    narrow = _token_narrow(ds, ["doc_id", "lang"])
    thresholds = {
        str(lang): exact_quantile(sub["v"], sub["c"], pct)
        for lang, sub in _token_histogram(narrow, ["lang"]).groupby("lang")
    }
    langs = pa.array(sorted(thresholds), pa.string())
    thr = np.array([thresholds[s] for s in sorted(thresholds)], np.int64)

    def gate(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("lang"), value_set=langs)
        i = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        ok = pc.is_valid(idx).to_numpy(zero_copy_only=False) & (
            batch.column("n_tokens").to_numpy() >= thr[i]
        ) if len(thr) else np.zeros(batch.num_rows, bool)
        return batch.filter(pa.array(ok))

    return narrow.map_batches(gate, batch_format="pyarrow")


def curation_narrow_batch(
    batch: pa.Table, bench_ref=None, n: int = 5
) -> pa.Table:
    """The fused per-batch curation kernel: (doc_id, n_tokens,
    content_hash, contaminated) from one read of the text — tokenized,
    hashed, and benchmark-membership-tested in a single pass."""
    import ray

    bench = bench_ref if isinstance(bench_ref, pa.Array) else ray.get(bench_ref)
    text = pc.fill_null(batch.column("text"), "")
    n_tok = count_tokens(text)
    h = [hashlib.md5((t or "").encode()).hexdigest() for t in text.to_pylist()]
    contaminated = np.zeros(batch.num_rows, bool)
    grams, parent = ngram_arrays(text, n)
    if len(grams):
        hits = pc.is_in(grams, value_set=bench).to_numpy(zero_copy_only=False)
        contaminated[np.unique(parent[hits])] = True
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            n_tok,
            pa.array(h, pa.string()),
            pa.array(contaminated),
        ],
        names=["doc_id", "n_tokens", "content_hash", "contaminated"],
    )


def curation_state(
    ds: "ray.data.Dataset", pct: int = 25, n: int = 5, modulus: int = 23
) -> dict:
    """Build the (small) shared state every curation consumer needs:

      bench_ref  — ray.put ref of the benchmark gram set (broadcast);
      narrow     — MATERIALIZED (doc_id, n_tokens, content_hash,
                   contaminated) projection, ~51 B/doc;
      thresh     — exact corpus P``pct`` token-count threshold;
      winner_of  — content_hash → winning doc_id for multi-copy groups
                   only (filtered in the data plane before the driver
                   collect — never one row per distinct hash).

    With this state, "does doc X survive curation and which split is it
    in" is a BATCH-LOCAL predicate (small broadcasts + per-row md5/token
    math), which is what lets the shard writer re-evaluate it during the
    payload pass without any corpus-sized survivor broadcast."""
    import ray

    bench_ref = ray.put(benchmark_gram_set(ds, n=n, modulus=modulus))
    narrow = ds.map_batches(
        curation_narrow_batch,
        fn_kwargs={"bench_ref": bench_ref, "n": n},
        batch_format="pyarrow",
    ).materialize()

    hist = _token_histogram(narrow, [])
    thresh = exact_quantile(hist["v"], hist["c"], pct)
    if thresh is None:
        thresh = 0

    from ray.data.aggregate import Count, Min

    def only_dups(batch: pa.Table) -> pa.Table:
        # drop single-copy groups IN THE DATA PLANE: only the (tiny)
        # multi-copy tail reaches the driver, never one row per distinct
        # hash of the whole corpus
        return batch.filter(pc.greater(batch.column("n"), 1))

    dup_groups = (
        narrow.select_columns(["doc_id", "content_hash"])
        .groupby("content_hash")
        .aggregate(Min("doc_id", alias_name="winner"), Count(alias_name="n"))
        .map_batches(only_dups, batch_format="pyarrow")
        .to_pandas()
    )
    winner_of = (
        dict(zip(dup_groups["content_hash"], dup_groups["winner"]))
        if len(dup_groups) and "content_hash" in dup_groups.columns
        else {}
    )
    return {
        "bench_ref": bench_ref,
        "narrow": narrow,
        "thresh": thresh,
        "winner_of": winner_of,
        "n": n,
    }


def survivor_mask_and_split(
    batch: pa.Table,
    thresh: int,
    winner_of: dict,
    train_pct: int = 80,
    val_pct: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-local curation verdict over rows of the ``curation_state``
    narrow schema: (keep mask, split labels). Shared by the query path and
    the shard writer so both can never disagree."""
    ids = batch.column("doc_id").to_numpy()
    content_hashes = batch.column("content_hash").to_pylist()
    keep = batch.column("n_tokens").to_numpy() >= thresh
    keep &= ~batch.column("contaminated").to_numpy(zero_copy_only=False)
    if winner_of:
        losers = np.array(
            [winner_of.get(h, i) != i for h, i in zip(content_hashes, ids)],
            bool,
        )
        keep &= ~losers
    lo = (train_pct * 65536) // 100
    hi = ((train_pct + val_pct) * 65536) // 100
    buckets = np.array([int(h[:4], 16) for h in content_hashes], np.int64)
    split = np.where(buckets < lo, "train", np.where(buckets < hi, "val", "test"))
    return keep, split


def curate_corpus(
    ds: "ray.data.Dataset",
    pct: int = 25,
    n: int = 5,
    modulus: int = 23,
    train_pct: int = 80,
    val_pct: int = 10,
) -> "ray.data.Dataset":
    """The composed pre-training curation pipeline in one call: a document
    survives iff it (a) clears the corpus-P``pct`` token-count gate,
    (b) shares no word ``n``-gram with the held-out benchmark slice, and
    (c) is its content's exact-dedup winner (min doc_id per md5); every
    survivor gets its leakage-safe train/val/test split. Output:
    (doc_id, split).

    Scale composition — TWO passes over the text (the minimum: the
    benchmark gram set must exist before contamination can be tested),
    then narrow-only work; see ``curation_state`` for the pieces. The
    split bucket falls out of content_hash's first 4 hex chars (same md5
    the dedup key already paid for)."""
    import ray

    state = curation_state(ds, pct=pct, n=n, modulus=modulus)
    ref = ray.put((state["winner_of"], state["thresh"]))

    def finalize(batch: pa.Table) -> pa.Table:
        winners, thr = ray.get(ref)
        keep, split = survivor_mask_and_split(batch, thr, winners, train_pct, val_pct)
        ids = batch.column("doc_id").to_numpy()
        return pa.Table.from_arrays(
            [pa.array(ids[keep]), pa.array(split[keep])],
            names=["doc_id", "split"],
        )

    return state["narrow"].map_batches(finalize, batch_format="pyarrow")


def split_leakage_audit(
    ds: "ray.data.Dataset",
    threshold: float = 0.2,
    n: int = 3,
    train_pct: int = 80,
    val_pct: int = 10,
    pairs: "pa.Table | None" = None,
    pairs_mode: str = "lsh",
) -> "pa.Table":
    """Split-leakage detector: near-duplicate pairs whose members landed
    in DIFFERENT train/val/test splits — the QA check that catches
    eval-set leakage after any split assignment. Pass ``pairs`` (any
    (doc_id_a, doc_id_b) table) to audit a precomputed pair set; with no
    ``pairs`` the DEFAULT is MinHash-LSH (``pairs_mode="lsh"``) — the
    shape that scales, with exact per-pair Jaccard verification built in.
    ``pairs_mode="exact"`` opts into the all-pairs n-gram Jaccard
    baseline (validation-sized only — O(n²) comparisons). Splits are
    looked up ONLY for docs that appear in a pair (small set →
    driver-side md5, no extra corpus pass). Output: (doc_id_a, doc_id_b,
    split_a, split_b) for leaking pairs."""
    import ray

    from .dedup import minhash_lsh_pairs, ngram_jaccard_pairs
    from .text import split_assign_batch

    if pairs is None:
        if pairs_mode == "exact":
            pairs = ngram_jaccard_pairs(ds, threshold=threshold, n=n)
        else:
            pairs = minhash_lsh_pairs(ds, threshold=threshold, ngram=n)
    empty = pa.Table.from_arrays(
        [
            pa.array([], pa.int64()),
            pa.array([], pa.int64()),
            pa.array([], pa.string()),
            pa.array([], pa.string()),
        ],
        names=["doc_id_a", "doc_id_b", "split_a", "split_b"],
    )
    if pairs.num_rows == 0:
        return empty
    a = pairs.column("doc_id_a").to_numpy()
    b = pairs.column("doc_id_b").to_numpy()
    ids = pa.array(np.unique(np.concatenate([a, b])))
    ids_ref = ray.put(ids)

    def paired_docs(batch: pa.Table) -> pa.Table:
        sel = pc.is_in(batch.column("doc_id"), value_set=ray.get(ids_ref))
        return split_assign_batch(batch.filter(sel), train_pct, val_pct)

    sub = ds.map_batches(paired_docs, batch_format="pyarrow").to_pandas()
    split_of = dict(zip(sub["doc_id"], sub["split"]))
    missing = sorted(
        {int(i) for i in np.concatenate([a, b]) if i not in split_of}
    )
    if missing:
        # a caller-supplied pairs table referencing docs absent from ds is
        # bad input — report it instead of a bare KeyError mid-lookup
        raise ValueError(
            f"{len(missing)} pair doc_id(s) not present in the corpus "
            f"dataset (first few: {missing[:5]})"
        )
    sa = np.array([split_of[i] for i in a])
    sb = np.array([split_of[i] for i in b])
    leak = sa != sb
    return pa.Table.from_arrays(
        [
            pa.array(a[leak]),
            pa.array(b[leak]),
            pa.array(sa[leak].tolist(), pa.string()),
            pa.array(sb[leak].tolist(), pa.string()),
        ],
        names=["doc_id_a", "doc_id_b", "split_a", "split_b"],
    )


def split_assign_grouped(
    ds: "ray.data.Dataset",
    threshold: float = 0.2,
    n: int = 3,
    train_pct: int = 80,
    val_pct: int = 10,
    pairs: "pa.Table | None" = None,
    pairs_mode: str = "lsh",
    hash_col: str | None = None,
) -> "ray.data.Dataset":
    """Leakage-SAFE split assignment: splits are decided per near-dup
    COMPONENT (all members inherit the group representative's content-hash
    bucket), so ``split_leakage_audit`` over this assignment is zero by
    construction — the fix for the per-doc hash split's inherent near-dup
    leakage.

    Pair source defaults to MinHash-LSH (the scale path; exact-verified);
    ``pairs_mode="exact"`` opts into the all-pairs baseline for
    validation, and a precomputed ``pairs`` table overrides both.

    Scale shape: only PAIRED docs (small by construction) carry an entry
    in the broadcast {doc_id → representative bucket} map; every other
    doc is its own group and buckets batch-locally from its own md5. The
    corpus text streams through exactly one pass."""
    import ray

    from .dedup import minhash_lsh_pairs, neardup_groups, ngram_jaccard_pairs
    from .text import SPLIT_NAMES  # noqa: F401  (shared split vocabulary)

    if pairs is None:
        if pairs_mode == "exact":
            pairs = ngram_jaccard_pairs(ds, threshold=threshold, n=n)
        else:
            pairs = minhash_lsh_pairs(ds, threshold=threshold, ngram=n)
    comp = neardup_groups(pairs).to_pandas() if pairs.num_rows else None
    rep_bucket: dict[int, int] = {}
    if comp is not None and len(comp):
        group_of = dict(zip(comp["doc_id"], comp["group_id"]))
        reps = sorted(set(comp["group_id"]))
        rep_set = pa.array(np.array(reps, np.int64))

        def rep_buckets(batch: pa.Table) -> pa.Table:
            sel = pc.is_in(batch.column("doc_id"), value_set=rep_set)
            kept = batch.filter(sel)
            return pa.Table.from_arrays(
                [kept.column("doc_id"), pa.array(_bucket16(kept, hash_col))],
                names=["doc_id", "bucket"],
            )

        rep_df = ds.map_batches(rep_buckets, batch_format="pyarrow").to_pandas()
        rep_hash = dict(
            zip(rep_df["doc_id"].astype(int), rep_df["bucket"].astype(int))
        )
        rep_bucket = {
            int(d): rep_hash[int(g)] for d, g in group_of.items()
        }
    map_ref = ray.put(rep_bucket)
    lo = (train_pct * 65536) // 100
    hi = ((train_pct + val_pct) * 65536) // 100

    def assign(batch: pa.Table) -> pa.Table:
        grouped = ray.get(map_ref)
        ids = batch.column("doc_id").to_numpy()
        own = _bucket16(batch, hash_col)
        buckets = np.array(
            [grouped.get(int(i), int(b)) for i, b in zip(ids, own)],
            np.int64,
        )
        split = np.where(buckets < lo, "train", np.where(buckets < hi, "val", "test"))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(split)],
            names=["doc_id", "split"],
        )

    return ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Round-3 additions: passage-level duplication stats, dataset mixture
# planning, cross-corpus dedup, global deterministic shuffle rank, and
# inference length-bucketing. These extend the reference's dedup surface
# (in-flight dedup `api/src/server.ts:90-103`) to the corpus-level
# operations a pretraining-data pipeline runs before sharding.
# ---------------------------------------------------------------------------


def _window_hashes(
    text_col, n: int, base: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """64-bit order-sensitive hashes of every length-``n`` token window
    (stride 1) → (window hashes uint64, parent row indices). Token
    hashes come from the vectorized poly-2^64 kernel, then pass through
    a splitmix64 finalizer BEFORE the window combine: the raw poly
    hashes share the byte-level base with the combine, so adjacent
    tokens' exponent ranges would overlap and windows like
    ``x ab de q r`` / ``x ac ce q r`` would structurally collide.
    Mixing makes each token hash behave as an independent uniform
    64-bit value, restoring the random-collision bound P ≈ W²/2^65 —
    negligible below ~10^8 distinct windows per verification corpus;
    at web scale the stats are fingerprint-grade, the standard trade
    for this op."""
    toks, parent = split_tokens(text_col)
    acc, valid, w = _combine_windows(toks, parent, n, base)
    if w <= 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    return acc[valid], parent[:w][valid]


def _mix64(h: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a bijective avalanche mixer on
    uint64 (Steele et al., "Fast Splittable Pseudorandom Number
    Generators", OOPSLA'14 — the public-domain splitmix64 constants).
    Used to decorrelate poly-2^64 token hashes from the window-combine
    polynomial so window hashes are not byte-aliasable across token
    boundaries."""
    h = h.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _combine_windows(
    toks: pa.Array, parent: np.ndarray, n: int, base: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared window-combine kernel for the passage family: splitmix64-
    mixed token hashes folded by n-1 fused multiply-adds → (acc window
    hashes aligned to flat token positions, doc-boundary validity mask,
    window count w). w ≤ 0 means no windows; acc/valid are empty then."""
    from .text import POLY_BASE, poly64_array

    b = np.uint64(base if base is not None else POLY_BASE)
    th = _mix64(poly64_array(toks))
    w = len(th) - n + 1
    if w <= 0:
        return np.zeros(0, np.uint64), np.zeros(0, bool), w
    acc = th[:w].copy()
    for k in range(1, n):
        acc *= b
        acc += th[k : w + k]
    valid = parent[:w] == parent[n - 1 :]
    return acc, valid, w


# Above this many common (≥ min_docs) window hashes the passage family
# stops broadcasting the set and switches to the sharded hash-partitioned
# merge (~32 MB of uint64 at the default — the doc_rarity-style fallback
# for pathologically duplicated corpora).
PASSAGE_BROADCAST_LIMIT = 4_000_000


def _common_window_set_ds(
    ds: "ray.data.Dataset", n: int, min_docs: int
) -> "ray.data.Dataset":
    """Shared phase 1 of the passage family: per-doc-DISTINCT window-hash
    partials (each doc lives in exactly one row, so batch partials sum to
    exact distinct-doc counts) → a bucketed exchange bounded by DISTINCT
    passages → the (bucket, whash) set of hashes present in ≥ min_docs
    docs, kept in the DATA PLANE (materialized) so callers can count it
    before deciding between the broadcast and sharded phase-2 paths.

    The exchange is NOT a per-hash groupby: sorting tens of millions of
    partial rows by a 238k-value key took 240 s at the 1M-doc stress
    tier. Instead partials carry a 6-bit hash-prefix bucket (64 groups —
    raise the shift for more), the sort key is that tiny bucket, and a
    vectorized np.unique/bincount merge runs per bucket; with Ray's
    push-based shuffle enabled for this one exchange the same tier runs
    in 15 s (16×; measured, see BASELINE.md). Only hashes that clear
    min_docs leave the merge."""

    def distinct_partial(batch: pa.Table) -> pa.Table:
        wh, parent = _window_hashes(batch.column("text"), n)
        if len(wh) == 0:
            return pa.Table.from_arrays(
                [
                    pa.array([], pa.int8()),
                    pa.array([], pa.int64()),
                    pa.array([], pa.int32()),
                ],
                names=["bucket", "whash", "cnt"],
            )
        pairs = np.unique(np.stack([parent.astype(np.uint64), wh], 1), axis=0)
        uh, cnt = np.unique(pairs[:, 1], return_counts=True)
        return pa.Table.from_arrays(
            [
                pa.array((uh >> np.uint64(58)).astype(np.int8)),
                pa.array(uh.view(np.int64)),
                pa.array(cnt.astype(np.int32)),
            ],
            names=["bucket", "whash", "cnt"],
        )

    def merge(group: pa.Table) -> pa.Table:
        h = group.column("whash").to_numpy()
        c = group.column("cnt").to_numpy()
        uh, inv = np.unique(h, return_inverse=True)
        docs = np.bincount(inv, weights=c)
        keep = docs >= min_docs
        kept = uh[keep]
        return pa.Table.from_arrays(
            [
                pa.array(
                    np.full(len(kept), group.column("bucket")[0].as_py(), np.int8)
                ),
                pa.array(kept),
            ],
            names=["bucket", "whash"],
        )

    # Scope the push-based-shuffle override to THIS dataset chain's own
    # DataContext (each Dataset captures a context copy at creation;
    # derived datasets share it along the chain but never the global
    # DataContext.get_current()), so concurrently executing datasets in
    # the same driver are untouched. The input ds shares the chain's
    # context, so restore its prior value after the materialize.
    pipeline = (
        ds.map_batches(distinct_partial, batch_format="pyarrow", batch_size=None)
        .groupby("bucket")
        .map_groups(merge, batch_format="pyarrow")
    )
    with _push_shuffle_scope(pipeline.context):
        return pipeline.materialize()


def _collect_window_set(common_ds: "ray.data.Dataset") -> np.ndarray:
    """Driver collect of a phase-1 result → sorted uint64 hash set (the
    broadcast path; callers gate on PASSAGE_BROADCAST_LIMIT first)."""
    common = common_ds.to_pandas()
    return np.sort(
        common["whash"].to_numpy().astype(np.int64).view(np.uint64)
        if len(common)
        else np.zeros(0, np.uint64)
    )


def _common_window_set(
    ds: "ray.data.Dataset", n: int, min_docs: int
) -> np.ndarray:
    """Phase 1 + driver collect (broadcast-path convenience)."""
    return _collect_window_set(_common_window_set_ds(ds, n, min_docs))


def _passage_stats_sharded(
    ds: "ray.data.Dataset", common: "ray.data.Dataset", n: int
) -> "ray.data.Dataset":
    """Sharded phase 2 of :func:`passage_stats` for common sets too large
    to broadcast (the doc_rarity-style partitioned merge): corpus batches
    emit per-(doc, distinct-window) occurrence counts tagged with the
    same 6-bit hash-prefix bucket as the common set; one groupby("bucket")
    co-partitions both sides; a vectorized searchsorted membership inside
    each bucket turns counts into per-doc dup partials; a final
    doc_id%64-bucketed fold (np.unique/bincount per group — never a raw
    doc_id-keyed sort) combines partials with batch-local window totals.
    The exchange ships ~20 B per distinct (doc, window) pair — the price
    of not broadcasting, paid only on pathologically duplicated corpora."""

    def corpus_partial(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [
                pa.array([], pa.int8()),
                pa.array([], pa.int64()),
                pa.array([], pa.int64()),
                pa.array([], pa.int64()),
                pa.array([], pa.int64()),
                pa.array([], pa.int8()),
            ],
            names=["bucket", "whash", "doc_id", "cnt", "n_windows", "side"],
        )
        if batch.num_rows == 0:
            return empty
        wh, parent = _window_hashes(batch.column("text"), n)
        if len(wh) == 0:
            return empty
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # per-(doc, whash) occurrence counts
        pairs, cnt = np.unique(
            np.stack([parent.astype(np.uint64), wh], 1), axis=0, return_counts=True
        )
        pdoc = pairs[:, 0].astype(np.int64)
        puh = pairs[:, 1]
        # per-doc totals ride the same table as side=0 rows
        n_win = np.bincount(parent, minlength=batch.num_rows)
        tot_idx = np.nonzero(n_win > 0)[0]
        return pa.Table.from_arrays(
            [
                pa.array(
                    np.concatenate(
                        [
                            (puh >> np.uint64(58)).astype(np.int8),
                            np.zeros(len(tot_idx), np.int8),
                        ]
                    )
                ),
                pa.array(
                    np.concatenate(
                        [puh.view(np.int64), np.zeros(len(tot_idx), np.int64)]
                    )
                ),
                pa.array(np.concatenate([ids[pdoc], ids[tot_idx]])),
                pa.array(
                    np.concatenate([cnt.astype(np.int64), np.zeros(len(tot_idx), np.int64)])
                ),
                pa.array(
                    np.concatenate(
                        [np.zeros(len(pairs), np.int64), n_win[tot_idx].astype(np.int64)]
                    )
                ),
                pa.array(
                    np.concatenate(
                        [np.ones(len(pairs), np.int8), np.full(len(tot_idx), 2, np.int8)]
                    )
                ),
            ],
            names=["bucket", "whash", "doc_id", "cnt", "n_windows", "side"],
        )

    def tag_common(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, np.int64)
        return pa.Table.from_arrays(
            [
                batch.column("bucket"),
                batch.column("whash"),
                pa.array(z),
                pa.array(z),
                pa.array(z),
                pa.array(np.zeros(batch.num_rows, np.int8)),
            ],
            names=["bucket", "whash", "doc_id", "cnt", "n_windows", "side"],
        )

    def _side(v: int):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("side"), v))

        return f

    # `parts` feeds two consumers; it is NOT materialized — pinning a
    # token-count-sized partial table buys less than re-running the
    # narrow tokenize+hash pass on this (already pathological) fallback
    parts = ds.map_batches(corpus_partial, batch_format="pyarrow")
    totals = parts.map_batches(_side(2), batch_format="pyarrow")
    window_rows = parts.map_batches(_side(1), batch_format="pyarrow").union(
        common.map_batches(tag_common, batch_format="pyarrow")
    )

    def bucket_merge(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy()
        h = group.column("whash").to_numpy()
        cs = np.sort(h[side == 0].view(np.uint64))
        corp = side == 1
        ch = h[corp].view(np.uint64)
        out = pa.Table.from_arrays(
            [pa.array([], pa.int64())] * 3,
            names=["doc_id", "n_windows", "n_dup_windows"],
        )
        if not len(ch) or not len(cs):
            return out
        pos = np.searchsorted(cs, ch)
        hit = (pos < len(cs)) & (cs[np.minimum(pos, len(cs) - 1)] == ch)
        if not hit.any():
            return out
        docs = group.column("doc_id").to_numpy()[corp][hit]
        cnts = group.column("cnt").to_numpy()[corp][hit]
        ud, inv = np.unique(docs, return_inverse=True)
        dup = np.bincount(inv, weights=cnts).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(ud), pa.array(np.zeros(len(ud), np.int64)), pa.array(dup)],
            names=["doc_id", "n_windows", "n_dup_windows"],
        )

    dup_parts = window_rows.groupby("bucket").map_groups(
        bucket_merge, batch_format="pyarrow"
    )
    tot_rows = totals.map_batches(
        lambda t: pa.Table.from_arrays(
            [
                t.column("doc_id"),
                t.column("n_windows"),
                pa.array(np.zeros(t.num_rows, np.int64)),
            ],
            names=["doc_id", "n_windows", "n_dup_windows"],
        ),
        batch_format="pyarrow",
    )
    # Final fold: the obvious groupby(doc_id).sum sorts its partials by a
    # key with ONE DISTINCT VALUE PER DOCUMENT — the exact high-cardinality
    # sort-key pathology phase 1's 6-bit bucketing removed (240 s → 15 s
    # there). Same cure here: partials carry dbucket = doc_id % 64, the
    # exchange sorts by that tiny key, and a vectorized np.unique/bincount
    # fold runs per bucket.
    def add_dbucket(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column("dbucket", pa.array((ids % 64).astype(np.int8)))

    def fold_group(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy()
        ud, inv = np.unique(ids, return_inverse=True)
        n_win = np.bincount(
            inv, weights=group.column("n_windows").to_numpy()
        ).astype(np.int64)
        n_dup = np.bincount(
            inv, weights=group.column("n_dup_windows").to_numpy()
        ).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(ud), pa.array(n_win), pa.array(n_dup)],
            names=["doc_id", "n_windows", "n_dup_windows"],
        )

    out = (
        dup_parts.union(tot_rows)
        .map_batches(add_dbucket, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(fold_group, batch_format="pyarrow")
    )
    # Same push-based-shuffle scoping as phase 1 (the 16× lever there)
    # across this path's exchanges. Materialize inside the scope so the
    # override never leaks to the caller's chain context (ADVICE r3 #5
    # contract); the result is doc-count-bounded.
    with _push_shuffle_scope(out.context):
        return out.materialize()


def passage_stats(
    ds: "ray.data.Dataset",
    n: int = 5,
    min_docs: int = 2,
    broadcast_limit: int = PASSAGE_BROADCAST_LIMIT,
) -> "ray.data.Dataset":
    """Passage-level exact-substring duplication stats (the
    dedup-common-passages analysis of Lee et al., "Deduplicating
    Training Data Makes Language Models Better", arXiv:2107.06499,
    expressed over word windows): for every doc with ≥ n tokens, the
    total number of length-n token windows and how many of them are
    "common" — appear in ≥ ``min_docs`` distinct documents corpus-wide.

    Scale shape: phase 1 emits per-doc-DISTINCT window hashes with an
    in-batch partial count (each doc lives in exactly one row, so batch
    partials sum to exact distinct-doc counts); the groupby shuffle is
    bounded by the number of DISTINCT passages, 8 B each, never the
    corpus text. Phase 2 broadcasts the ≥ min_docs survivors (the
    duplicated-passage set) when they fit ``broadcast_limit`` and
    streams docs through a vectorized searchsorted membership count;
    above the limit it switches to :func:`_passage_stats_sharded`'s
    hash-partitioned merge, so a pathologically duplicated corpus never
    forces an oversized broadcast. Output: (doc_id, n_windows,
    n_dup_windows); doc_id must be integer-valued on the sharded path."""
    import ray

    common_ds = _common_window_set_ds(ds, n, min_docs)
    if common_ds.count() > broadcast_limit:
        return _passage_stats_sharded(ds, common_ds, n)
    ref = ray.put(_collect_window_set(common_ds))

    def annotate(batch: pa.Table) -> pa.Table:
        cs = ray.get(ref)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64())] * 3,
            names=["doc_id", "n_windows", "n_dup_windows"],
        )
        if batch.num_rows == 0:
            return empty
        wh, parent = _window_hashes(batch.column("text"), n)
        if len(wh) == 0:
            return empty
        n_win = np.bincount(parent, minlength=batch.num_rows)
        if len(cs):
            pos = np.searchsorted(cs, wh)
            hit = (pos < len(cs)) & (cs[np.minimum(pos, len(cs) - 1)] == wh)
        else:
            hit = np.zeros(len(wh), bool)
        n_dup = np.bincount(parent, weights=hit, minlength=batch.num_rows)
        keep = n_win > 0
        idx = np.nonzero(keep)[0]
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").take(pa.array(idx)),
                pa.array(n_win[keep].astype(np.int64)),
                pa.array(n_dup[keep].astype(np.int64)),
            ],
            names=["doc_id", "n_windows", "n_dup_windows"],
        )

    return ds.map_batches(annotate, batch_format="pyarrow")


# default mixture spec shared by the query entry and its SQL twin:
# integer weight parts per source (missing sources weigh 1)
MIXTURE_WEIGHTS = {"src0": 3, "src1": 2}
MIXTURE_BUDGET = 20_000  # target mixture size in tokens


def mixture_plan(
    ds: "ray.data.Dataset",
    weights: dict[str, int] | None = None,
    budget: int = MIXTURE_BUDGET,
    hash_col: str | None = None,
) -> "ray.data.Dataset":
    """Dataset-mixture application: given integer weight parts per source
    and a total token budget, compute each source's token target
    G_s = budget·w_s // Σw, then assign every doc a deterministic copy
    count so the source contributes ≈ G_s tokens: base copies
    G_s // T_s (T_s = source token total — an up-weighted source
    replicates, i.e. multi-epoch oversampling), plus one extra copy for
    the content-hash fraction of docs covering the remainder
    (bucket·T_s < (G_s mod T_s)·65536, the same 16-bit md5 bucket as
    ``hash_sample_batch`` — stable across runs and cluster sizes).
    All-integer arithmetic: SQL-exact, no float rates anywhere.

    Scale shape: phase 1 is a per-source token-sum partial (shuffle =
    one row per source per batch); the plan table is sources-sized,
    closure-captured. Phase 2 is a stateless per-batch map. Sources
    with zero tokens emit no rows (mirrors the SQL inner join).
    Output: (doc_id, source, n_copies)."""
    from ray.data.aggregate import Sum

    weights = MIXTURE_WEIGHTS if weights is None else weights
    sum_w_default = 1

    def token_partial(batch: pa.Table) -> pa.Table:
        nt = count_tokens(pc.fill_null(batch.column("text"), ""))
        return pa.Table.from_arrays(
            [batch.column("source"), nt], names=["source", "nt"]
        )

    totals = (
        ds.map_batches(token_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("nt", alias_name="ts"))
        .to_pandas()
    )
    # Σw spans every source present in the corpus (weights default to 1)
    srcs = sorted(totals["source"].astype(str)) if len(totals) else []
    sum_w = sum(int(weights.get(s, sum_w_default)) for s in srcs)
    plan: dict[str, tuple[int, int, int]] = {}
    for _, row in totals.iterrows():
        s, ts = str(row["source"]), int(row["ts"])
        if ts <= 0:
            continue
        gs = (budget * int(weights.get(s, sum_w_default))) // max(sum_w, 1)
        plan[s] = (gs // ts, gs % ts, ts)

    # broadcast the plan as parallel arrays: per-row work below is one
    # index_in + three gathers (the per-doc md5 stays — it IS the
    # DuckDB-equality bucket)
    plan_srcs = pa.array(sorted(plan), pa.string())
    _pq = np.array([plan[s][0] for s in sorted(plan)], np.int64)
    _pr = np.array([plan[s][1] for s in sorted(plan)], np.int64)
    _pt = np.array([plan[s][2] for s in sorted(plan)], np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        if len(plan_srcs) == 0:  # every source had zero tokens
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["doc_id", "source", "n_copies"],
            )
        buckets = _bucket16(batch, hash_col)
        idx_arr = pc.index_in(batch.column("source"), value_set=plan_srcs)
        known = pc.is_valid(idx_arr).to_numpy(zero_copy_only=False)
        idx = (
            pc.fill_null(idx_arr, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        copies = _pq[idx] + (buckets * _pt[idx] < _pr[idx] * 65536)
        sel = pa.array(known)
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").filter(sel),
                batch.column("source").filter(sel),
                pa.array(copies[known].astype(np.int64)),
            ],
            names=["doc_id", "source", "n_copies"],
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def mixture_materialize(
    ds: "ray.data.Dataset",
    weights: dict[str, int] | None = None,
    budget: int = MIXTURE_BUDGET,
    hash_col: str | None = None,
) -> "ray.data.Dataset":
    """Apply the mixture plan: replicate every doc ``n_copies`` times with
    an explicit epoch index (copy_idx 0..n_copies-1) — the rows a shard
    writer actually packs. Pure per-batch np.repeat over the plan output;
    no shuffle beyond :func:`mixture_plan`'s sources-sized partial.
    Output: (doc_id, source, copy_idx)."""
    plan = mixture_plan(ds, weights=weights, budget=budget, hash_col=hash_col)

    def replicate(batch: pa.Table) -> pa.Table:
        n = batch.column("n_copies").to_numpy()
        idx = np.repeat(np.arange(len(n)), n)
        # copy_idx = position within each doc's run of repeats; starts is
        # built as cumsum-prefixed-with-0 sliced to len(n) so a zero-row
        # batch (mixture_plan can filter out every row of a block) yields
        # empty arrays instead of a broadcast error
        starts = np.concatenate(([0], np.cumsum(n)))[: len(n)]
        copy_idx = np.arange(int(n.sum())) - np.repeat(starts, n)
        sel = pa.array(idx)
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").take(sel),
                batch.column("source").take(sel),
                pa.array(copy_idx.astype(np.int64)),
            ],
            names=["doc_id", "source", "copy_idx"],
        )

    return plan.map_batches(replicate, batch_format="pyarrow")


def mixture_sql(
    weights: dict[str, int] | None = None, budget: int = MIXTURE_BUDGET
) -> str:
    """DuckDB twin of :func:`mixture_plan`, generated from the SAME
    weight spec so the two sides cannot drift."""
    weights = MIXTURE_WEIGHTS if weights is None else weights
    cases = " ".join(
        f"WHEN '{s}' THEN {int(w)}" for s, w in sorted(weights.items())
    )
    w_expr = f"CASE source {cases} ELSE 1 END"
    return f"""
        WITH base AS (
          SELECT doc_id, source,
                 CAST(len(regexp_extract_all(coalesce(text,''), '\\S+')) AS BIGINT) AS nt,
                 CAST('0x' || substr(md5(coalesce(text,'')), 1, 4) AS BIGINT) AS bucket
          FROM documents
        ),
        tot AS (SELECT source, CAST(sum(nt) AS BIGINT) AS ts FROM base GROUP BY source),
        sw AS (SELECT CAST(sum({w_expr}) AS BIGINT) AS s FROM (SELECT DISTINCT source FROM base) d(source)),
        plan AS (
          SELECT source, ts,
                 ({budget} * ({w_expr})) // (SELECT greatest(s, 1) FROM sw) AS gs
          FROM tot WHERE ts > 0
        )
        SELECT b.doc_id, b.source,
               CAST(p.gs // p.ts
                    + CASE WHEN b.bucket * p.ts < (p.gs % p.ts) * 65536
                           THEN 1 ELSE 0 END AS BIGINT) AS n_copies
        FROM base b JOIN plan p USING (source)
    """


def dedup_against(
    ds: "ray.data.Dataset", ref_source: str = "src0", hash_col: str | None = None
) -> "ray.data.Dataset":
    """Cross-corpus exact dedup: drop from the corpus every document
    whose content fingerprint appears in a REFERENCE corpus (here: the
    ``ref_source`` slice of the same table; in production, a previous
    crawl or an already-trained dataset). The fingerprint is the first
    64 bits of md5(text) — both sides of the oracle use the identical
    prefix, so the comparison is exact.

    Scale shape: the reference side reduces to one uint64 per DISTINCT
    reference doc, broadcast once via ``ray.put`` (8 B/doc — ~8 GB per
    10^9 reference docs; beyond that, swap the broadcast for the
    hash-partitioned anti-join merge used by ``doc_rarity``'s capped
    path, or a Bloom pre-filter in front of it). The corpus side
    streams one vectorized searchsorted filter. Output: the surviving
    (doc_id, source) rows."""
    import ray

    def ref_hashes(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("source"), ref_source)
        h = _hash_u64(batch.filter(mask), hash_col)
        return pa.Table.from_arrays(
            [pa.array(np.unique(h).view(np.int64))], names=["h"]
        )

    # per-batch partials are already unique; a driver-side unique merges
    # them (the broadcast below is driver-bounded regardless)
    ref_tbl = ds.map_batches(ref_hashes, batch_format="pyarrow").to_pandas()
    ref_sorted = (
        np.unique(ref_tbl["h"].to_numpy().astype(np.int64).view(np.uint64))
        if len(ref_tbl)
        else np.zeros(0, np.uint64)
    )
    ref = ray.put(ref_sorted)

    def survivors(batch: pa.Table) -> pa.Table:
        rh = ray.get(ref)
        mask = pc.not_equal(batch.column("source"), ref_source).to_numpy(
            zero_copy_only=False
        )
        keep = mask.copy()
        if len(rh):
            idx = np.nonzero(mask)[0]
            h = _hash_u64(batch, hash_col, idx=idx)
            pos = np.searchsorted(rh, h)
            dup = (pos < len(rh)) & (rh[np.minimum(pos, len(rh) - 1)] == h)
            keep[idx[dup]] = False
        return batch.select(["doc_id", "source"]).filter(pa.array(keep))

    return ds.map_batches(survivors, batch_format="pyarrow")


def shuffle_rank(
    ds: "ray.data.Dataset", bucket_hex_digits: int = 3
) -> "ray.data.Dataset":
    """Global deterministic training-shuffle rank: every doc's position
    in the corpus-wide permutation ordered by (md5(doc_id), doc_id) —
    the reproducible global shuffle a training-shard writer needs (same
    order on any cluster size, resumable, no RNG state).

    Unlike the shared content-hash consumers (``hash_sample`` /
    ``mixture`` / ``dedup_against``), the key here is md5 of the DOC ID,
    never of the text: a content-hash key would give exact-duplicate
    texts identical keys and ADJACENT shuffle positions — clustering
    duplicates in the training order, the opposite of what a shuffle is
    for. There is deliberately no ``key_col``/``hash_col`` override
    (ADVICE r4 #1).

    Distributed rank via range partitioning on the hash's hex prefix:
    pass 1 counts docs per prefix bucket (partial per batch — the
    shuffle is bucket-count-sized); the driver cumsums the tiny
    histogram into bucket offsets; pass 2 groups by bucket, sorts
    inside each bucket, and emits offset + local index. With d hex
    digits there are 16^d buckets (~corpus/16^d rows per group — raise
    ``bucket_hex_digits`` so groups fit in a worker's heap; md5 spreads
    uniformly, no skew). Output: (doc_id, shuffle_pos)."""
    import ray
    from ray.data.aggregate import Sum

    nd = bucket_hex_digits

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        buckets = np.array([int(k[:nd], 16) for k in keys], np.int64)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(keys, pa.string()), pa.array(buckets)],
            names=["doc_id", "key", "bucket"],
        )

    # the keyed projection is narrow (48 B/doc) but corpus-row-sized, so it
    # is recomputed per pass (two cheap scans) rather than materialized —
    # pinning 10^12 rows in the object store buys nothing the groupby
    # shuffle doesn't already pay for
    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")

    def hist_partial(t: pa.Table) -> pa.Table:
        # in-batch bincount partial: the histogram shuffle carries at most
        # 16^d rows per BATCH, never one row per doc
        b, c = np.unique(t.column("bucket").to_numpy(), return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(b), pa.array(c.astype(np.int64))], names=["bucket", "c"]
        )

    hist = (
        keyed_ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("c", alias_name="n"))
        .to_pandas()
    )
    offsets = np.zeros(16**nd + 1, np.int64)
    if len(hist):
        offsets[hist["bucket"].to_numpy() + 1] = hist["n"].to_numpy()
    offsets = np.cumsum(offsets)
    off_ref = ray.put(offsets)

    def rank_bucket(group: pa.Table) -> pa.Table:
        off = ray.get(off_ref)
        b = int(group.column("bucket")[0].as_py())
        order = pc.sort_indices(
            group, sort_keys=[("key", "ascending"), ("doc_id", "ascending")]
        )
        ranked = group.take(order)
        pos = off[b] + np.arange(group.num_rows, dtype=np.int64)
        return pa.Table.from_arrays(
            [ranked.column("doc_id"), pa.array(pos)],
            names=["doc_id", "shuffle_pos"],
        )

    return keyed_ds.groupby("bucket").map_groups(rank_bucket, batch_format="pyarrow")


def inference_buckets(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Length-bucketed batching stats for model inference / training:
    assign every doc to the next power-of-two token-length bucket and
    report, per bucket, the doc count, the useful tokens, and the
    padding waste (bucket_len − n_tokens summed) — the planner's view of
    how much compute a fixed-shape batcher would burn. Stateless
    per-batch map + a bucket-count-sized groupby. Output: (bucket,
    n_docs, sum_tokens, pad_tokens)."""
    from ray.data.aggregate import Count, Sum

    def bucketize(batch: pa.Table) -> pa.Table:
        nt = count_tokens(pc.fill_null(batch.column("text"), "")).to_numpy()
        # next power of two ≥ max(nt, 1); float log2 is exact at the
        # boundaries (powers of two are exact doubles) — matches the SQL
        b = np.power(2.0, np.ceil(np.log2(np.maximum(nt, 1)))).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(b), pa.array(nt), pa.array(b - nt)],
            names=["bucket", "nt", "pad"],
        )

    return (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("nt", alias_name="sum_tokens"),
            Sum("pad", alias_name="pad_tokens"),
        )
    )


def _passage_dedup_sharded(
    ds: "ray.data.Dataset", common: "ray.data.Dataset", n: int, doc_buckets: int = 64
) -> "ray.data.Dataset":
    """Sharded removal path for common sets too large to broadcast: the
    corpus emits per-window-OCCURRENCE rows (bucket, whash, doc_id,
    start position within the doc's token stream); one groupby("bucket")
    co-partitions them with the common set and keeps only hits as
    (doc_id, pos) pairs; a second groupby co-partitions hit positions
    with the TEXT rows on ``doc_id % doc_buckets`` and runs the same
    fully-vectorized ±1 difference-array excision as the broadcast path
    across each group. Two extra exchanges — one sized by window
    occurrences (16 B each), one re-shuffling the corpus text once — the
    price of a common set that cannot ship to every task."""

    def occ_rows(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int8()), pa.array([], pa.int64()),
             pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int8())],
            names=["bucket", "whash", "doc_id", "pos", "side"],
        )
        if batch.num_rows == 0:
            return empty
        toks, parent = split_tokens(batch.column("text"))
        acc, valid, w = _combine_windows(toks, parent, n)
        if w <= 0 or not valid.any():
            return empty
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # doc start offsets in the flat token stream → in-doc positions
        tok_counts = np.bincount(parent, minlength=batch.num_rows)
        doc_start = np.concatenate(([0], np.cumsum(tok_counts)))[:-1]
        gidx = np.nonzero(valid)[0]
        wh = acc[valid]
        pdoc = parent[gidx]
        return pa.Table.from_arrays(
            [
                pa.array((wh >> np.uint64(58)).astype(np.int8)),
                pa.array(wh.view(np.int64)),
                pa.array(ids[pdoc]),
                pa.array((gidx - doc_start[pdoc]).astype(np.int64)),
                pa.array(np.ones(len(gidx), np.int8)),
            ],
            names=["bucket", "whash", "doc_id", "pos", "side"],
        )

    def tag_common(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, np.int64)
        return pa.Table.from_arrays(
            [
                batch.column("bucket"),
                batch.column("whash"),
                pa.array(z),
                pa.array(z),
                pa.array(np.zeros(batch.num_rows, np.int8)),
            ],
            names=["bucket", "whash", "doc_id", "pos", "side"],
        )

    window_rows = ds.map_batches(occ_rows, batch_format="pyarrow").union(
        common.map_batches(tag_common, batch_format="pyarrow")
    )

    def bucket_hits(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy()
        h = group.column("whash").to_numpy()
        cs = np.sort(h[side == 0].view(np.uint64))
        corp = side == 1
        out = pa.Table.from_arrays(
            [pa.array([], pa.int64())] * 2, names=["doc_id", "pos"]
        )
        ch = h[corp].view(np.uint64)
        if not len(ch) or not len(cs):
            return out
        p = np.searchsorted(cs, ch)
        hit = (p < len(cs)) & (cs[np.minimum(p, len(cs) - 1)] == ch)
        if not hit.any():
            return out
        return pa.Table.from_arrays(
            [
                pa.array(group.column("doc_id").to_numpy()[corp][hit]),
                pa.array(group.column("pos").to_numpy()[corp][hit]),
            ],
            names=["doc_id", "pos"],
        )

    hits = window_rows.groupby("bucket").map_groups(
        bucket_hits, batch_format="pyarrow"
    )

    # co-partition hit positions with the text on doc_id % doc_buckets
    def text_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.Table.from_arrays(
            [
                pa.array((ids.to_numpy(zero_copy_only=False) % doc_buckets)),
                ids,
                pa.array(np.full(batch.num_rows, -1, np.int64)),
                pc.cast(pc.fill_null(batch.column("text"), ""), pa.string()),
            ],
            names=["dbucket", "doc_id", "pos", "text"],
        )

    def hit_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return pa.Table.from_arrays(
            [
                pa.array(ids % doc_buckets),
                batch.column("doc_id"),
                batch.column("pos"),
                pa.array([""] * batch.num_rows, pa.string()),
            ],
            names=["dbucket", "doc_id", "pos", "text"],
        )

    both = ds.map_batches(text_rows, batch_format="pyarrow").union(
        hits.map_batches(hit_rows, batch_format="pyarrow")
    )

    def excise_group(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["doc_id", "clean_text", "n_kept_tokens"],
        )
        pos_np = group.column("pos").to_numpy()
        is_text = pos_np < 0
        texts = group.filter(pa.array(is_text))
        if texts.num_rows == 0:
            return empty
        toks, parent = split_tokens(texts.column("text"))
        L = len(toks)
        if L == 0:
            return empty
        ids = texts.column("doc_id").to_numpy()
        tok_counts = np.bincount(parent, minlength=texts.num_rows)
        doc_start = np.concatenate(([0], np.cumsum(tok_counts)))[:-1]
        covered = np.zeros(L + 1, np.int64)
        hid = group.column("doc_id").to_numpy()[~is_text]
        hpos = pos_np[~is_text]
        if len(hid):
            # map hit doc_ids → row index in `texts` (both sides carry
            # exactly this group's docs; searchsorted over the sorted ids)
            order = np.argsort(ids, kind="stable")
            ridx = order[np.searchsorted(ids[order], hid)]
            starts = doc_start[ridx] + hpos
            np.add.at(covered, starts, 1)
            np.add.at(covered, starts + n, -1)
        keep = np.cumsum(covered[:L]) == 0
        kept_counts = np.bincount(parent[keep], minlength=texts.num_rows)
        offsets = np.zeros(texts.num_rows + 1, np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_flat = toks.filter(pa.array(keep))
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept_flat)
        joined = pc.binary_join(lists, " ")
        nonempty = kept_counts > 0
        idx = pa.array(np.nonzero(nonempty)[0])
        return pa.Table.from_arrays(
            [
                texts.column("doc_id").take(idx),
                joined.take(idx),
                pa.array(kept_counts[nonempty].astype(np.int64)),
            ],
            names=["doc_id", "clean_text", "n_kept_tokens"],
        )

    return both.groupby("dbucket").map_groups(excise_group, batch_format="pyarrow")


def passage_dedup_corpus(
    ds: "ray.data.Dataset",
    n: int = 5,
    min_docs: int = 2,
    broadcast_limit: int = PASSAGE_BROADCAST_LIMIT,
) -> "ray.data.Dataset":
    """Passage REMOVAL (the transform behind :func:`passage_stats` — Lee
    et al. 2107.06499's dedup applied at word-window granularity): excise
    from every document all tokens covered by any length-``n`` window
    whose passage occurs in ≥ ``min_docs`` distinct docs, and re-join the
    survivors with single spaces. Docs left with zero tokens (fully
    duplicated, or empty) emit no row.

    Same two scan phases as ``passage_stats`` (distinct-window partials →
    passage-bounded groupby → broadcast survivors, or the sharded
    co-partitioned path above ``broadcast_limit``); the removal pass is
    fully vectorized: hit windows paint a ±1 difference array over the
    flat token stream (windows never cross doc boundaries), a cumsum
    turns it into a coverage mask, and the kept tokens re-join per doc
    through one Arrow list-join kernel. Output: (doc_id, clean_text,
    n_kept_tokens); doc_id must be integer-valued on the sharded path."""
    import ray

    common_ds = _common_window_set_ds(ds, n, min_docs)
    if common_ds.count() > broadcast_limit:
        return _passage_dedup_sharded(ds, common_ds, n)
    ref = ray.put(_collect_window_set(common_ds))

    def excise(batch: pa.Table) -> pa.Table:
        cs = ray.get(ref)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["doc_id", "clean_text", "n_kept_tokens"],
        )
        if batch.num_rows == 0:
            return empty
        toks, parent = split_tokens(batch.column("text"))
        L = len(toks)
        if L == 0:
            return empty
        covered = np.zeros(L + 1, np.int64)
        acc, valid, w = _combine_windows(toks, parent, n)
        if w > 0 and len(cs):
            pos = np.searchsorted(cs, acc)
            hit = valid & (pos < len(cs)) & (cs[np.minimum(pos, len(cs) - 1)] == acc)
            starts = np.nonzero(hit)[0]
            # ±1 difference array → cumsum = per-token cover depth (hit
            # windows never straddle docs, so ranges stay in-doc)
            np.add.at(covered, starts, 1)
            np.add.at(covered, starts + n, -1)
        keep = np.cumsum(covered[:L]) == 0
        kept_counts = np.bincount(parent[keep], minlength=batch.num_rows)
        offsets = np.zeros(batch.num_rows + 1, np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_flat = toks.filter(pa.array(keep))
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept_flat)
        joined = pc.binary_join(lists, " ")
        nonempty = kept_counts > 0
        idx = pa.array(np.nonzero(nonempty)[0])
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").take(idx),
                joined.take(idx),
                pa.array(kept_counts[nonempty].astype(np.int64)),
            ],
            names=["doc_id", "clean_text", "n_kept_tokens"],
        )

    return ds.map_batches(excise, batch_format="pyarrow")
