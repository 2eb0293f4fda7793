"""Driver contract for the pdfz_ray engine (Ray Data target).

``entry()`` runs the flagship extraction pipeline over sf0.001;
``queries()`` exposes one callable per implemented operator (SURVEY.md §2 +
the training-data operators); ``oracle_sql()`` gives the DuckDB-equivalent
SQL. Extraction queries run over a deterministic synthetic interleaved-span
fixture (written once under /tmp/pdfz_ray_fixtures — the SQL reads the same
parquet, so both engines see identical input); the rest run over the
driver's parquet views.

Ray is initialised by the driver — nothing here calls ray.init/shutdown.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# fixture path baked into the oracle SQL (driver correctness runs at sf0.01)
FIX = "/tmp/pdfz_ray_fixtures/sf0.01"


def entry() -> Any:
    """Flagship: flat docs → interleaved spans → extract + OCR →
    flattened span rows, on /root/testdata/sf0.001."""
    import ray.data

    from pdfz_ray.pipelines.extract_pipeline import (
        build_extract_pipeline,
        interleave_documents,
    )
    from pdfz_ray.stages.extract import flatten_output

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    docs = ds.map_batches(interleave_documents, batch_format="pyarrow")
    out = build_extract_pipeline(docs, ocr=True)
    return out.map_batches(flatten_output, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# query helpers
# ---------------------------------------------------------------------------


def _fixture_docs(sf_dir: str):
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures

    paths = ensure_fixtures(sf_dir)
    return ray.data.read_parquet(paths["documents_spans"]), paths


def _fixture_deduped(sf_dir: str):
    """The fixture's documents as a path list, which
    ``build_extract_pipeline`` reads with exact dedup, and the fixture
    paths."""
    from pdfz_ray.sources.fixtures import ensure_fixtures

    paths = ensure_fixtures(sf_dir)
    return [paths["documents_spans"]], paths


def _q_extract_flat(sf_dir: str):
    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline
    from pdfz_ray.stages.extract import flatten_output

    ds, _ = _fixture_deduped(sf_dir)
    out = build_extract_pipeline(ds, ocr=False)
    return out.map_batches(flatten_output, batch_format="pyarrow")


def _q_extract_windowed(sf_dir: str):
    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline
    from pdfz_ray.stages.extract import flatten_output

    ds, paths = _fixture_deduped(sf_dir)
    out = build_extract_pipeline(ds, pq.read_table(paths["jobs"]), ocr=False)
    return out.map_batches(flatten_output, batch_format="pyarrow")


def _q_ocr_spans(sf_dir: str):
    """Media spans with their (side-channel) OCR text — the work the
    reference does then discards (M3)."""
    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline

    ds, _ = _fixture_deduped(sf_dir)
    out = build_extract_pipeline(ds, ocr=True)

    def flatten_media_ocr(batch: pa.Table) -> pa.Table:
        done = batch.filter(pc.equal(batch.column("status"), "done"))
        spans = done.column("spans").combine_chunks()
        flat = spans.flatten()
        parent = pc.list_parent_indices(spans)
        is_media = pc.equal(flat.field("kind"), "media")
        ocr_flat = done.column("ocr_text").combine_chunks().flatten()
        doc_ids = done.column("doc_id").combine_chunks().take(parent)
        t = pa.Table.from_arrays(
            [doc_ids, flat.field("offset"), flat.field("media_ref")],
            names=["doc_id", "page_num", "media_ref"],
        ).filter(is_media)
        return t.append_column("ocr_text", ocr_flat)

    return out.map_batches(flatten_media_ocr, batch_format="pyarrow")


def _q_status_rollup(sf_dir: str):
    from pdfz_ray.functions.analytics import status_rollup

    ds, _ = _fixture_docs(sf_dir)
    return status_rollup(ds)


def _q_top_largest_docs(sf_dir: str):
    from pdfz_ray.functions.analytics import top_largest_docs

    ds, _ = _fixture_docs(sf_dir)
    return top_largest_docs(ds, k=10)


def _q_page_stats(sf_dir: str):
    from pdfz_ray.functions.analytics import page_stats

    ds, _ = _fixture_docs(sf_dir)
    return page_stats(ds)


def _q_duplicate_doc_count(sf_dir: str):
    from pdfz_ray.functions.analytics import duplicate_doc_count

    ds, _ = _fixture_docs(sf_dir)
    return duplicate_doc_count(ds)


def _q_doc_progress(sf_dir: str):
    """G2 quirk surface: page_num-based percent (can exceed 100)."""
    from pdfz_ray.functions.progress import doc_progress_batch

    ds, _ = _fixture_docs(sf_dir)
    return ds.map_batches(doc_progress_batch, batch_format="pyarrow")


def _q_media_decode(sf_dir: str):
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.media import MediaDecodeStage

    paths = ensure_fixtures(sf_dir)
    ds = ray.data.read_parquet(paths["media"])
    out = ds.map_batches(
        MediaDecodeStage, batch_format="pyarrow", concurrency=(1, 2)
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("ok"),
            "ok",
            pc.cast(t.column("ok"), pa.int32()),
        ),
        batch_format="pyarrow",
    )


def _docs_table(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _q_text_stats(sf_dir: str):
    from pdfz_ray.functions.text import text_stats_batch

    return _docs_table(sf_dir).map_batches(text_stats_batch, batch_format="pyarrow")


def _q_quality_filter(sf_dir: str):
    from pdfz_ray.functions.text import quality_filter_batch

    return _docs_table(sf_dir).map_batches(
        quality_filter_batch, batch_format="pyarrow"
    )


def _q_token_count(sf_dir: str):
    from pdfz_ray.functions.text import token_count_batch

    return _docs_table(sf_dir).map_batches(token_count_batch, batch_format="pyarrow")


def _q_fingerprint(sf_dir: str):
    from pdfz_ray.functions.text import fingerprint_batch

    out = _docs_table(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


def _q_rolling_fingerprint(sf_dir: str):
    from pdfz_ray.functions.text import fingerprint_batch

    out = _docs_table(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "rolling64"])


def _q_normalize(sf_dir: str):
    from pdfz_ray.functions.text import normalize_batch

    return _docs_table(sf_dir).map_batches(normalize_batch, batch_format="pyarrow")


def _q_text_embed(sf_dir: str):
    """Feature-hashing text embedder (actor pool; deterministic)."""
    from pdfz_ray.functions.text import HashEmbedder

    return _docs_table(sf_dir).map_batches(
        HashEmbedder, batch_format="pyarrow", concurrency=(1, 2)
    )


def _q_text_embed_fingerprint(sf_dir: str):
    """Integer projections of the embedder output (argmax bucket, positive
    count) — exact-checkable against the independent per-token golden
    reference; the full float vector stays in the rows-only text_embed."""
    from pdfz_ray.functions.text import HashEmbedder

    out = _docs_table(sf_dir).map_batches(
        HashEmbedder, batch_format="pyarrow", concurrency=(1, 2)
    )

    def project(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        n = batch.num_rows
        if n == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 3,
                names=["doc_id", "embed_argmax", "embed_npos"],
            )
        mat = emb.flatten().to_numpy(zero_copy_only=False).reshape(n, -1)
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.array(np.argmax(mat, axis=1).astype(np.int64)),
                pa.array((mat > 0).sum(axis=1).astype(np.int64)),
            ],
            names=["doc_id", "embed_argmax", "embed_npos"],
        )

    return out.map_batches(project, batch_format="pyarrow")


def _q_winnow(sf_dir: str):
    from pdfz_ray.functions.text import winnow_batch

    out = _docs_table(sf_dir).map_batches(winnow_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_fingerprints", "fp_xor64"])


def _q_lang_id(sf_dir: str):
    from pdfz_ray.functions.text import LangIdStage

    return _docs_table(sf_dir).map_batches(
        LangIdStage, batch_format="pyarrow", concurrency=(1, 2)
    )


def _q_lang_distribution(sf_dir: str):
    from pdfz_ray.functions.analytics import lang_distribution

    return lang_distribution(sf_dir)


def _q_exact_dedup(sf_dir: str):
    from pdfz_ray.functions.dedup import exact_dedup_docs

    return exact_dedup_docs(_docs_table(sf_dir))


def _q_ngram_jaccard(sf_dir: str):
    from pdfz_ray.functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_docs_table(sf_dir), threshold=0.2)


def _q_minhash_lsh(sf_dir: str):
    from pdfz_ray.functions.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs_table(sf_dir), threshold=0.2)


def _q_simhash(sf_dir: str):
    from pdfz_ray.functions.dedup import simhash_pairs

    return simhash_pairs(_docs_table(sf_dir), max_hamming=3)


def _q_neardup_groups(sf_dir: str):
    """Near-dup clusters: exact-Jaccard pairs → connected components."""
    from pdfz_ray.functions.dedup import neardup_groups, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(_docs_table(sf_dir), threshold=0.2)
    return neardup_groups(pairs)


def _q_neardup_groups_dist(sf_dir: str):
    """Same clusters via data-plane min-label propagation (the graph-scale
    path: labels/edges stay sharded, driver sees convergence scalars)."""
    from pdfz_ray.functions.dedup import (
        neardup_groups_distributed,
        ngram_jaccard_pairs,
    )

    pairs = ngram_jaccard_pairs(_docs_table(sf_dir), threshold=0.2)
    return neardup_groups_distributed(pairs)


def _q_split_assign(sf_dir: str):
    """Deterministic content-hash train/val/test split (leakage-safe)."""
    from pdfz_ray.functions.text import split_assign_batch

    out = _docs_table(sf_dir).map_batches(
        split_assign_batch, batch_format="pyarrow"
    )
    return out.select_columns(["doc_id", "split"])


def _q_neardup_dedup_corpus(sf_dir: str):
    """Survivor ids after end-to-end near-dup dedup (keep min-id per
    cluster). LSH pair recall equals the exact pair set on this corpus
    (same equality the minhash_lsh oracle asserts), so the SQL twin drops
    non-representative members of exact-Jaccard components."""
    from pdfz_ray.functions.dedup import neardup_dedup_corpus

    out = neardup_dedup_corpus(_docs_table(sf_dir), threshold=0.2)
    return out.select_columns(["doc_id"])


def _q_orders_join_hash(sf_dir: str):
    """Hash-partitioned Dataset.join (both sides large path): orders ⨝
    customer, rolled up per market segment — the shuffle-join twin of the
    broadcast join in orders_by_nation."""
    import ray.data

    from pdfz_ray.functions.analytics import strip_schema_metadata

    orders = strip_schema_metadata(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    )
    cust = strip_schema_metadata(
        ray.data.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
    )
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["c_mktsegment"]).aggregate([("c_mktsegment", "count")])
        return g.rename_columns(["c_mktsegment", "n"])

    from ray.data.aggregate import Sum

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return (
        partials.groupby("c_mktsegment")
        .aggregate(Sum("n", alias_name="n_orders"))
        .to_pandas()
    )


def _embeddings(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _q_embedding_neardup(sf_dir: str):
    from pdfz_ray.functions.dedup import embedding_neardup_pairs

    return embedding_neardup_pairs(_embeddings(sf_dir), threshold=0.45)


def _q_chunk_docs(sf_dir: str):
    from pdfz_ray.functions.prep import chunk_documents

    out = chunk_documents(_docs_table(sf_dir), chunk_tokens=64, stride=48)
    df = out.to_pandas()
    return df.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def _q_bigram_top(sf_dir: str):
    from pdfz_ray.functions.prep import bigram_top

    return bigram_top(sf_dir, k=20)


def _q_tfidf_topk(sf_dir: str):
    from pdfz_ray.functions.prep import tfidf_topk

    return tfidf_topk(sf_dir, k=3)


def _q_semantic_dedup(sf_dir: str):
    from pdfz_ray.functions.dedup import semantic_dedup

    return semantic_dedup(_embeddings(sf_dir), n_clusters=8, threshold=0.45)


def _q_lm_coverage(sf_dir: str):
    from pdfz_ray.functions.prep import lm_coverage

    return lm_coverage(sf_dir, min_count=2)


def _q_knn_brute(sf_dir: str):
    from pdfz_ray.functions.similarity import knn_brute, load_query_matrix

    ids, mat = load_query_matrix(sf_dir, n_queries=5)
    return knn_brute(_embeddings(sf_dir), mat, ids, k=10)


def _q_knn_lsh(sf_dir: str):
    """16 hash tables drive recall high enough that the approximate result
    equals brute force on this corpus (measured at sf0.001 and sf0.01), so
    the query carries the exact oracle; the cost/recall trade-off stays a
    caller knob and the recall floor is asserted separately in pytest."""
    from pdfz_ray.functions.similarity import knn_lsh, load_query_matrix

    ids, mat = load_query_matrix(sf_dir, n_queries=5)
    return knn_lsh(_embeddings(sf_dir), mat, ids, k=10, tables=16)


def _q_knn_pq(sf_dir: str):
    """Product-quantization ADC search with in-batch exact rerank; at the
    default rerank width the result equals brute force on this corpus
    (measured at sf0.001 and sf0.01), so the query carries the exact
    oracle; the no-rerank ADC recall floor is asserted in pytest."""
    from pdfz_ray.functions.similarity import knn_pq, load_query_matrix

    ids, mat = load_query_matrix(sf_dir, n_queries=5)
    return knn_pq(_embeddings(sf_dir), mat, ids, k=10)


def _q_knn_ivf(sf_dir: str):
    """IVF coarse quantization at full probe (nprobe=nlist): every cell is
    probed so the result is exact BY CONSTRUCTION while still exercising
    the IVF machinery (kmeans training, centroid broadcast, cell
    assignment, candidate shuffle); the partial-probe recall curve is
    asserted separately in pytest (test_knn_ivf_recall)."""
    from pdfz_ray.functions.similarity import knn_ivf, load_query_matrix

    ids, mat = load_query_matrix(sf_dir, n_queries=5)
    return knn_ivf(_embeddings(sf_dir), mat, ids, k=10, nlist=8, nprobe=8)


def _q_sessionize(sf_dir: str):
    from pdfz_ray.functions.windows import sessionize_bucketed

    return sessionize_bucketed(sf_dir, gap_minutes=30)


def _q_sessionize_bucketed(sf_dir: str):
    """``sessionize`` at a bucket count that is not a power of two (the
    modulo shuffle key, not the bit mask): the sessions do not depend on
    the bucket count."""
    from pdfz_ray.functions.windows import sessionize_bucketed

    return sessionize_bucketed(sf_dir, gap_minutes=30, buckets=5)


def _q_running_event_counts(sf_dir: str):
    from pdfz_ray.functions.windows import running_event_counts

    return running_event_counts(sf_dir)


def _q_distinct_users(sf_dir: str):
    from pdfz_ray.functions.windows import distinct_users_by_type

    return distinct_users_by_type(sf_dir)


def _q_top_users(sf_dir: str):
    from pdfz_ray.functions.windows import top_users_by_type

    return top_users_by_type(sf_dir, k=3)


def _q_asof_join(sf_dir: str):
    from pdfz_ray.functions.windows import asof_join_events

    return asof_join_events(sf_dir, left_type="click", right_type="view")


def _q_sliding_counts(sf_dir: str):
    from pdfz_ray.functions.windows import sliding_event_counts

    return sliding_event_counts(sf_dir, window_minutes=60, slide_minutes=15)


def _q_price_bands(sf_dir: str):
    from pdfz_ray.functions.windows import orders_price_bands

    return orders_price_bands(sf_dir)


def _q_approx_distinct_users(sf_dir: str):
    from pdfz_ray.functions.windows import approx_distinct_users_by_type

    return approx_distinct_users_by_type(sf_dir)


def _q_customers_without_orders(sf_dir: str):
    """Broadcast ANTI-join: customers with no completed ('F') orders.

    The key set of the filtered small side is read with column/row
    pruning, deduped, and broadcast; the big side streams through a
    vectorized is_in filter — no shuffle."""
    import pyarrow.dataset as pads

    import ray.data

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    okeys = pads.dataset(f"{sf_dir}/orders.parquet").to_table(
        columns=["o_custkey"], filter=pc.field("o_orderstatus") == "F"
    )
    have = pc.unique(okeys.column("o_custkey").combine_chunks())
    import ray

    ref = ray.put(have)

    def anti(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch.column("c_custkey"), value_set=ray.get(ref)))
        return batch.filter(mask)

    return cust.map_batches(anti, batch_format="pyarrow")


def _q_audio_energy(sf_dir: str):
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.media import AudioEnergyStage

    paths = ensure_fixtures(sf_dir)
    return ray.data.read_parquet(paths["media"]).map_batches(
        AudioEnergyStage, batch_format="pyarrow", concurrency=(1, 2)
    )


def _q_image_resize(sf_dir: str):
    """Nearest-neighbor thumbnail resize over raw pixel buffers (exact —
    no codec); compressed codecs report unsupported. Checked against the
    pure-Python pixel-loop golden."""
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.media import ImageResizeStage

    paths = ensure_fixtures(sf_dir)
    return ray.data.read_parquet(paths["media"]).map_batches(
        ImageResizeStage, batch_format="pyarrow", concurrency=(1, 2)
    )


def _q_html_main_content(sf_dir: str):
    """HTML boilerplate strip / main-content extraction (DOM heuristics)
    over the synthetic HTML corpus; checked against the independent
    regex-stack reference through the golden fixture."""
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.html import main_content_batch

    paths = ensure_fixtures(sf_dir)
    out = ray.data.read_parquet(paths["html_docs"]).map_batches(
        main_content_batch, batch_format="pyarrow"
    )
    return out.select_columns(
        ["doc_id", "n_blocks", "n_kept", "main_chars", "main_md5"]
    )


def _q_html_extract_tokens(sf_dir: str):
    """Composed web pipeline: HTML parse → main content → token/quality
    stats, fused in ONE streaming pass (the html.parser stage feeds the
    vectorized text kernel inside the same map_batches chain — no
    intermediate materialization). The oracle tokenizes the
    INDEPENDENTLY-extracted golden main_text in SQL."""
    import pyarrow.compute as pc

    import ray.data

    from pdfz_ray.functions.text import count_tokens
    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.html import main_content_batch

    paths = ensure_fixtures(sf_dir)

    def stats(batch):
        mc = main_content_batch(batch)
        text = mc.column("main_text")
        import pyarrow as pa

        return pa.Table.from_arrays(
            [
                mc.column("doc_id"),
                count_tokens(text),
                pc.cast(pc.utf8_length(text), pa.int64()),
            ],
            names=["doc_id", "n_tokens", "n_chars"],
        )

    return ray.data.read_parquet(paths["html_docs"]).map_batches(
        stats, batch_format="pyarrow"
    )


def _q_frame_sample(sf_dir: str):
    import ray.data

    from pdfz_ray.sources.fixtures import ensure_fixtures
    from pdfz_ray.stages.media import frame_sample_batch

    paths = ensure_fixtures(sf_dir)
    return ray.data.read_parquet(paths["media"]).map_batches(
        frame_sample_batch, batch_format="pyarrow"
    )


def _q_top_terms(sf_dir: str):
    from pdfz_ray.functions.analytics import top_terms

    return top_terms(sf_dir, k=20)


def _q_seen_probe(sf_dir: str):
    """Bloom-filter membership probe: the corpus content filter answers a
    fixed probe set (every 7th doc's text + 100 absent keys). Zero false
    negatives by construction; zero false positives on this probe set at
    this sizing (measured at sf0.001/0.01/0.1) — so the result equals the
    exact semi-join and carries an exact oracle."""
    import numpy as np
    import pandas as pd

    import ray.data

    from pdfz_ray.functions.windows import seen_content_filter

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    bf = seen_content_filter(ds)
    present_df = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        .map_batches(
            lambda b: b.filter(
                pa.array(b.column("doc_id").to_numpy() % 7 == 0)
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    keys = [f"doc:{i}" for i in present_df["doc_id"]] + [
        f"absent-probe-{i}" for i in range(100)
    ]
    texts = present_df["text"].tolist() + [
        f"absent-probe-{i}" for i in range(100)
    ]
    hits = bf.contains_hashes(pd.util.hash_array(np.asarray(texts, object)))
    return pd.DataFrame({"probe": keys, "present": hits})


def _q_heavy_hitters(sf_dir: str):
    """Sketch-based top-k terms (Count-Min + per-block candidates; no
    term-keyed shuffle). Estimates are exact at this vocabulary (no
    full-depth collision), so the query carries top_terms' exact oracle;
    the never-undercounts invariant is asserted in pytest."""
    from pdfz_ray.functions.analytics import heavy_hitters

    return heavy_hitters(sf_dir)


def _q_lineitem_pricing(sf_dir: str):
    from pdfz_ray.functions.analytics import lineitem_pricing_summary

    return lineitem_pricing_summary(sf_dir)


def _q_orders_by_nation(sf_dir: str):
    from pdfz_ray.functions.analytics import orders_by_nation

    return orders_by_nation(sf_dir)


def _q_events_hourly(sf_dir: str):
    from pdfz_ray.functions.analytics import events_hourly

    return events_hourly(sf_dir)


def _q_price_quantiles(sf_dir: str):
    from pdfz_ray.functions.analytics import orders_price_quantiles

    return orders_price_quantiles(sf_dir)


def _q_revenue_by_nation(sf_dir: str):
    from pdfz_ray.functions.analytics import revenue_by_nation

    return revenue_by_nation(sf_dir)


def _q_decontaminate(sf_dir: str):
    """Benchmark-contamination scan: docs sharing a word 3-gram with the
    held-out slice (doc_id % 23 == 0), with distinct-overlap counts."""
    from pdfz_ray.functions.curation import decontaminate

    return decontaminate(_docs_table(sf_dir), n=3, modulus=23)


def _q_pii_redact(sf_dir: str):
    from pdfz_ray.functions.curation import pii_redact_batch

    return _docs_table(sf_dir).map_batches(pii_redact_batch, batch_format="pyarrow")


def _q_pack_sequences(sf_dir: str):
    from pdfz_ray.functions.curation import pack_sequences

    return pack_sequences(_docs_table(sf_dir), budget=512)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals (duplicate 2-gram occurrence
    counts) per doc."""
    from pdfz_ray.functions.curation import repetition_stats_batch

    return _docs_table(sf_dir).map_batches(
        repetition_stats_batch, batch_format="pyarrow"
    )


def _q_split_leakage(sf_dir: str):
    """Near-dup pairs straddling split boundaries — the eval-leakage QA
    check over the content-hash split."""
    from pdfz_ray.functions.curation import split_leakage_audit

    return split_leakage_audit(_docs_table(sf_dir), threshold=0.2, n=3)


def _q_split_assign_grouped(sf_dir: str):
    """Leakage-safe split: near-dup components share their
    representative's bucket (audit over this assignment is zero)."""
    from pdfz_ray.functions.curation import split_assign_grouped

    return split_assign_grouped(_docs_table(sf_dir), threshold=0.2, n=3)


def _q_curate_corpus(sf_dir: str):
    """The composed pre-training curation pipeline: P25 token gate ∧
    5-gram decontamination ∧ exact-dedup winner → split assignment."""
    from pdfz_ray.functions.curation import curate_corpus

    return curate_corpus(_docs_table(sf_dir), pct=25, n=5, modulus=23)


def _q_quality_gate_quantile(sf_dir: str):
    """Corpus-relative gate: docs at/above the exact P25 token count."""
    from pdfz_ray.functions.curation import quality_gate_quantile

    return quality_gate_quantile(_docs_table(sf_dir), pct=25)


def _q_doc_rarity(sf_dir: str):
    """Rarest term per doc via a corpus-DF broadcast (global stat →
    per-record annotation)."""
    from pdfz_ray.functions.curation import doc_rarity

    return doc_rarity(_docs_table(sf_dir))


def _q_doc_rarity_capped(sf_dir: str):
    """Same operator through the df_cap SCALE path: broadcast only the
    df<=2 tail, resolve all-common docs via the hash-partitioned merge
    (identical output to the full broadcast — same oracle)."""
    from pdfz_ray.functions.curation import doc_rarity

    return doc_rarity(_docs_table(sf_dir), df_cap=2)


def _q_hash_sample(sf_dir: str):
    import ray.data

    from pdfz_ray.functions.curation import hash_sample_batch

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return ds.map_batches(hash_sample_batch, batch_format="pyarrow")


def _docs_with_source(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )


def _q_passage_stats(sf_dir: str):
    """Passage-level exact-substring duplication stats (Lee et al. 2107.06499
    word-window variant): per doc, total 5-token windows and how many appear
    in >= 2 distinct docs corpus-wide."""
    from pdfz_ray.functions.curation import passage_stats

    return passage_stats(_docs_table(sf_dir), n=5, min_docs=2)


def _q_passage_dedup(sf_dir: str):
    """Passage REMOVAL: excise all tokens covered by a >=2-doc common
    5-token window and re-join survivors; fully-duplicated docs vanish."""
    from pdfz_ray.functions.curation import passage_dedup_corpus

    return passage_dedup_corpus(_docs_table(sf_dir), n=5, min_docs=2)


def _q_mixture_plan(sf_dir: str):
    """Dataset-mixture application: integer-exact per-doc copy counts from
    source weights + a token budget (multi-epoch oversampling included)."""
    from pdfz_ray.functions.curation import mixture_plan

    return mixture_plan(_docs_with_source(sf_dir))


def _q_mixture_materialize(sf_dir: str):
    """Mixture application: plan copy counts → replicated epoch rows."""
    from pdfz_ray.functions.curation import mixture_materialize

    return mixture_materialize(_docs_with_source(sf_dir))


def _q_dedup_against(sf_dir: str):
    """Cross-corpus exact dedup: drop corpus docs whose 64-bit content
    fingerprint appears in the reference slice (source='src0')."""
    from pdfz_ray.functions.curation import dedup_against

    return dedup_against(_docs_with_source(sf_dir))


def _q_shuffle_rank(sf_dir: str):
    """Global deterministic training-shuffle rank via hash-range
    partitioning (distributed zipWithIndex)."""
    import ray.data

    from pdfz_ray.functions.curation import shuffle_rank

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return shuffle_rank(ds)


def _q_quality_gate_by_lang(sf_dir: str):
    """Language-balanced stratified quantile gate (per-lang exact P25)."""
    import ray.data

    from pdfz_ray.functions.curation import quality_gate_quantile_by_lang

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return quality_gate_quantile_by_lang(ds, pct=25)


def _q_inference_buckets(sf_dir: str):
    """Power-of-two length-bucket stats incl. padding waste — the batcher
    planner's view of the corpus."""
    from pdfz_ray.functions.curation import inference_buckets

    return inference_buckets(_docs_table(sf_dir))


def queries() -> dict[str, Callable[[str], Any]]:
    # Ordering note: the correctness driver verifies the FIRST 50 entries.
    # Round-5 rotation policy (VERDICT r4 next-round #2): anything NEW or
    # CHANGED in round N sits inside the window in round N. This round
    # that means (a) the five round-4 additions that never had a driver
    # row (chunk_docs / bigram_top / tfidf_topk / semantic_dedup /
    # lm_coverage — all also changed in r5: single-tokenize, vectorized
    # chunk assembly, cluster-size cap) move IN, and (b) five twice-proven
    # shared content-hash consumers (driver-green in both r3 and r4,
    # unchanged in r5) rotate to the tail. Everything changed this round
    # (prep family, shuffle_rank semantics, window-query production
    # variants, media decode 4:2:0) stays inside the window; pytest +
    # scripts/check_queries.py cover the tail every round.
    return {
        # extraction core (synthetic interleaved fixture)
        "extract_flat": _q_extract_flat,
        "extract_windowed": _q_extract_windowed,
        "ocr_spans": _q_ocr_spans,
        "status_rollup": _q_status_rollup,
        "top_largest_docs": _q_top_largest_docs,
        "page_stats": _q_page_stats,
        "duplicate_doc_count": _q_duplicate_doc_count,
        "doc_progress": _q_doc_progress,
        "media_decode": _q_media_decode,
        # HTML boilerplate strip (north-rule main-content surface; the
        # corpus generator now escapes doc text — changed this round)
        "html_main_content": _q_html_main_content,
        "html_extract_tokens": _q_html_extract_tokens,
        "image_resize": _q_image_resize,
        # round-5 changed: shuffle_rank key_col semantics pinned (ADVICE
        # r4 #1); the other shared content-hash consumers are twice-proven
        # (driver-green r3 AND r4, unchanged in r5) and rotate to the tail
        # to make room for the five round-4 additions — the round-5 policy
        # (VERDICT r4 next-round #2): anything new or changed in round N
        # sits inside the window in round N
        "shuffle_rank": _q_shuffle_rank,
        # round-5 changed prep/dedup family (single-tokenize tfidf,
        # vectorized chunk assembly, semantic cluster-size cap) — these
        # five were added in r4 but sat in the tail and have never had a
        # driver CORRECTNESS row; they enter the window this round
        "chunk_docs": _q_chunk_docs,
        "bigram_top": _q_bigram_top,
        "tfidf_topk": _q_tfidf_topk,
        "semantic_dedup": _q_semantic_dedup,
        "lm_coverage": _q_lm_coverage,
        # round-4 changed: window-hash mixer + sharded common-set gate
        "passage_stats": _q_passage_stats,
        "passage_dedup": _q_passage_dedup,
        # flagship dedup
        "exact_dedup": _q_exact_dedup,
        # round-4 changed: bucketed window family (shared bucket helper;
        # running counts + as-of reworked off per-user map_groups)
        "sessionize": _q_sessionize,
        "sessionize_bucketed": _q_sessionize_bucketed,
        "running_event_counts": _q_running_event_counts,
        "asof_join": _q_asof_join,
        "sliding_event_counts": _q_sliding_counts,
        # rotated-in former tail: distinct/sketch/top-k windows
        "distinct_users_by_type": _q_distinct_users,
        "seen_probe": _q_seen_probe,
        "top_users_by_type": _q_top_users,
        "orders_price_bands": _q_price_bands,
        "approx_distinct_users": _q_approx_distinct_users,
        # rotated-in former tail: joins
        "customers_without_orders": _q_customers_without_orders,
        "orders_by_segment_hashjoin": _q_orders_join_hash,
        # rotated-in former tail: wide-op analytics
        "top_terms": _q_top_terms,
        "heavy_hitters": _q_heavy_hitters,
        "lineitem_pricing": _q_lineitem_pricing,
        "orders_by_nation": _q_orders_by_nation,
        # rotated-in former tail: text analysis (driver documents table)
        "text_stats": _q_text_stats,
        "quality_filter": _q_quality_filter,
        "token_count": _q_token_count,
        "fingerprint": _q_fingerprint,
        "rolling_fingerprint": _q_rolling_fingerprint,
        "winnow_fingerprints": _q_winnow,
        "normalize_text": _q_normalize,
        "text_embed": _q_text_embed,
        "text_embed_fingerprint": _q_text_embed_fingerprint,
        "lang_id": _q_lang_id,
        "lang_distribution": _q_lang_distribution,
        # rotated-in former tail: multimodal plumbing
        "frame_sample": _q_frame_sample,
        "audio_energy": _q_audio_energy,
        # ---- driver window boundary (entries below are driver-green in
        # CORRECTNESS_r03 and unchanged since; the window-guard test pins
        # every round-4-changed entry above this line) ----
        "decontaminate": _q_decontaminate,
        "pii_redact": _q_pii_redact,
        "pack_sequences": _q_pack_sequences,
        "repetition_stats": _q_repetition_stats,
        "doc_rarity": _q_doc_rarity,
        "doc_rarity_capped": _q_doc_rarity_capped,
        "quality_gate_quantile": _q_quality_gate_quantile,
        "quality_gate_by_lang": _q_quality_gate_by_lang,
        "curate_corpus": _q_curate_corpus,
        "split_leakage": _q_split_leakage,
        "split_assign": _q_split_assign,
        "inference_buckets": _q_inference_buckets,
        # wide-op analytics continued
        "events_hourly": _q_events_hourly,
        "orders_price_quantiles": _q_price_quantiles,
        "revenue_by_nation": _q_revenue_by_nation,
        # dedup family (r3 rework, driver-green in CORRECTNESS_r03)
        "ngram_jaccard": _q_ngram_jaccard,
        "minhash_lsh": _q_minhash_lsh,
        "simhash": _q_simhash,
        "embedding_neardup": _q_embedding_neardup,
        "neardup_groups": _q_neardup_groups,
        "neardup_groups_dist": _q_neardup_groups_dist,
        "neardup_dedup_corpus": _q_neardup_dedup_corpus,
        # similarity search
        "knn_brute": _q_knn_brute,
        "knn_lsh": _q_knn_lsh,
        "knn_pq": _q_knn_pq,
        "knn_ivf": _q_knn_ivf,
        # rotated-out in round 5: twice-proven shared content-hash
        # consumers (driver-green in BOTH CORRECTNESS_r03 and _r04,
        # unchanged in r5); pytest + scripts/check_queries.py still cover
        # them every round
        "hash_sample": _q_hash_sample,
        "split_assign_grouped": _q_split_assign_grouped,
        "dedup_against": _q_dedup_against,
        "mixture_plan": _q_mixture_plan,
        "mixture_materialize": _q_mixture_materialize,
    }


# ---------------------------------------------------------------------------
# DuckDB oracles
# ---------------------------------------------------------------------------

_DOCS_SRC = f"read_parquet('{FIX}/documents_spans.parquet')"
_JOBS_SRC = f"read_parquet('{FIX}/jobs.parquet')"
_MEDIA_SRC = f"read_parquet('{FIX}/media.parquet')"

_EXTRACT_CORE = f"""
WITH docs AS (
  SELECT doc_id, spans FROM {_DOCS_SRC}
  WHERE doc_id NOT LIKE '%-corrupt'
  QUALIFY row_number() OVER (PARTITION BY doc_id) = 1
),
{{jobs_cte}}
flat AS (
  SELECT doc_id, unnest(spans, recursive := true),
         generate_subscripts(spans, 1) AS arr_idx
  FROM docs
),
pages AS (
  SELECT doc_id, "offset" AS page_num,
         coalesce(string_agg(CASE WHEN kind='text' THEN text END, ' '
                             ORDER BY arr_idx), '') AS page_text
  FROM flat GROUP BY doc_id, "offset"
),
win AS (
  SELECT p.doc_id, p.page_num, p.page_text,
         count(*) OVER (PARTITION BY p.doc_id) AS n_pages,
         coalesce(j.start_page, 1) AS sp, coalesce(j.page_count, 0) AS pcnt
  FROM pages p LEFT JOIN jobs j ON p.doc_id = j.doc_id
),
kept AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY page_num) AS krank,
         CASE WHEN pcnt = 0 THEN n_pages ELSE least(pcnt, n_pages) END AS page_limit
  FROM win WHERE page_num >= greatest(sp - 1, 0)
),
final_pages AS (SELECT doc_id, page_num, page_text FROM kept WHERE krank <= page_limit),
media AS (
  SELECT doc_id, "offset" AS page_num, text,
         row_number() OVER (PARTITION BY doc_id, "offset" ORDER BY arr_idx) - 1 AS media_i
  FROM flat WHERE kind = 'media'
),
media_ok AS (
  SELECT m.doc_id, m.page_num, m.media_i, m.text AS payload,
         m.doc_id || '_' || m.page_num || '_' || m.media_i || '.png' AS media_ref
  FROM media m JOIN final_pages f ON m.doc_id = f.doc_id AND m.page_num = f.page_num
  WHERE NOT starts_with(m.text, '!bad')
)
"""

_NO_JOBS_CTE = "jobs AS (SELECT NULL AS doc_id, NULL AS start_page, NULL AS page_count WHERE false),"
_JOBS_CTE = f"jobs AS (SELECT doc_id, start_page, page_count FROM {_JOBS_SRC}),"

_EXTRACT_TAIL = """
, allr AS (
  SELECT doc_id, page_num, 0 AS is_media, -1 AS mi, 'text' AS kind,
         page_text AS text, '' AS media_ref FROM final_pages
  UNION ALL
  SELECT doc_id, page_num, 1, media_i, 'media', '', media_ref FROM media_ok
)
SELECT doc_id,
       CAST(row_number() OVER (PARTITION BY doc_id
            ORDER BY page_num, is_media, mi) - 1 AS INTEGER) AS seq,
       CAST(page_num AS INTEGER) AS page_num, kind, text, media_ref
FROM allr
"""


def _mixture_sql() -> str:
    """The mixture oracle is GENERATED from the same weight/budget spec the
    Ray operator uses (pdfz_ray.functions.curation.mixture_sql) — the two
    sides share one source of truth and cannot drift."""
    from pdfz_ray.functions.curation import mixture_sql

    return mixture_sql()


def oracle_sql() -> dict[str, str]:
    # make sure the fixture parquet the SQL reads exists (idempotent)
    from pdfz_ray.sources.fixtures import ensure_fixtures

    ensure_fixtures("/root/testdata/sf0.01")

    extract_flat = (
        _EXTRACT_CORE.replace("{jobs_cte}", _NO_JOBS_CTE) + _EXTRACT_TAIL
    )
    extract_windowed = (
        _EXTRACT_CORE.replace("{jobs_cte}", _JOBS_CTE) + _EXTRACT_TAIL
    )
    ocr_spans = (
        _EXTRACT_CORE.replace("{jobs_cte}", _NO_JOBS_CTE)
        + """
SELECT doc_id, CAST(page_num AS INTEGER) AS page_num, media_ref,
       'tess:' || substr(md5('tesseract|' || payload), 1, 12) AS ocr_text
FROM media_ok
"""
    )
    sqls = {
        "extract_flat": extract_flat,
        "extract_windowed": extract_windowed,
        "ocr_spans": ocr_spans,
        "status_rollup": f"""
            SELECT CASE WHEN doc_id LIKE '%-corrupt' THEN 'failed' ELSE 'done' END AS status,
                   count(*) AS n_docs
            FROM {_DOCS_SRC} GROUP BY 1
        """,
        "top_largest_docs": f"""
            SELECT doc_id, CAST(len(spans) AS BIGINT) AS n_spans
            FROM {_DOCS_SRC}
            ORDER BY n_spans DESC, doc_id LIMIT 10
        """,
        "page_stats": f"""
            WITH docs AS (
              SELECT row_number() OVER () AS rid, doc_id, spans FROM {_DOCS_SRC}
              WHERE doc_id NOT LIKE '%-corrupt'
            ),
            flat AS (
              SELECT rid, unnest(spans, recursive := true) FROM docs
            ),
            pg AS (
              SELECT rid, "offset",
                     max(CASE WHEN kind = 'text' THEN 1 ELSE 0 END) AS has_text
              FROM flat GROUP BY rid, "offset"
            )
            SELECT CAST((SELECT count(*) FROM pg) AS BIGINT) AS n_pages,
                   CAST((SELECT coalesce(sum(1 - has_text), 0) FROM pg) AS BIGINT) AS n_empty_pages,
                   CAST((SELECT count(*) FROM docs) AS BIGINT) AS n_docs
        """,
        "duplicate_doc_count": f"""
            SELECT count(*) AS n_rows,
                   count(DISTINCT doc_id) AS n_distinct_ids,
                   count(*) - count(DISTINCT doc_id) AS n_dup_rows
            FROM {_DOCS_SRC}
        """,
        "doc_progress": f"""
            WITH docs AS (
              SELECT row_number() OVER () AS rid, doc_id, spans FROM {_DOCS_SRC}
            ),
            flat AS (
              SELECT rid, doc_id, unnest(spans, recursive := true) FROM docs
            ),
            pg AS (SELECT DISTINCT rid, doc_id, "offset" AS page_num FROM flat),
            agg AS (
              SELECT rid, doc_id, max(page_num) AS lastp, count(*) AS total
              FROM pg GROUP BY rid, doc_id
            )
            SELECT doc_id,
                   CAST(CASE WHEN doc_id LIKE '%-corrupt' THEN 0
                        ELSE lastp * 100 // total END AS BIGINT) AS final_progress,
                   CAST(CASE WHEN doc_id LIKE '%-corrupt' THEN 0
                        ELSE total END AS BIGINT) AS pages_done,
                   CAST(CASE WHEN doc_id LIKE '%-corrupt' THEN 0
                        ELSE total END AS BIGINT) AS pages_total
            FROM agg
        """,
        "media_decode": f"""
            WITH m AS (SELECT *, CASE codec
                  WHEN 'dct' THEN TRUE
                  WHEN 'flate' THEN TRUE
                  WHEN 'raw-rgb' THEN octet_length(payload) = width * height * 3
                  WHEN 'raw-gray' THEN octet_length(payload) = width * height
                  ELSE FALSE END AS is_ok
              FROM {_MEDIA_SRC})
            SELECT media_ref, CAST(is_ok AS INTEGER) AS ok,
                   CAST(CASE WHEN NOT is_ok THEN 0 WHEN codec = 'flate' THEN height ELSE width END AS INTEGER) AS out_width,
                   CAST(CASE WHEN NOT is_ok THEN 0 WHEN codec = 'flate' THEN width ELSE height END AS INTEGER) AS out_height,
                   CAST(CASE WHEN is_ok THEN octet_length(payload) ELSE 0 END AS BIGINT) AS n_bytes,
                   CASE WHEN is_ok THEN '' ELSE 'Unsupported filter/color space' END AS error
            FROM m
        """,
        "text_stats": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens,
                   CAST(len(list_filter(string_split_regex(lower(text), '\s+'),
                        t -> t IN ('the','a','and','of','to','in','is','on','for','data'))) AS BIGINT) AS n_stopwords,
                   CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct
            FROM documents
        """,
        "quality_filter": r"""
            WITH s AS (
              SELECT doc_id,
                     CAST(length(text) AS BIGINT) AS n_chars,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens,
                     CAST(len(list_filter(string_split_regex(lower(text), '\s+'),
                          t -> t IN ('the','a','and','of','to','in','is','on','for','data'))) AS BIGINT) AS n_stopwords,
                     CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct
              FROM documents)
            SELECT * FROM s
            WHERE n_tokens >= 20 AND (n_stopwords * 100) // n_tokens < 40
        """,
        "token_count": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]{1,4}|[0-9]+|[^A-Za-z0-9\s]')) AS BIGINT) AS n_subwords
            FROM documents
        """,
        "fingerprint": r"""
            SELECT doc_id,
                   md5(regexp_replace(lower(text), '\s+', ' ', 'g')) AS fingerprint
            FROM documents
        """,
        # golden differential oracles: the vectorized mod-2^64 hash kernels
        # vs an independent pure-Python byte-loop reference, written to
        # golden_text.parquet at fixture time (pdfz_ray/sources/fixtures.py)
        "rolling_fingerprint": f"""
            SELECT doc_id, rolling64
            FROM read_parquet('{FIX}/golden_text.parquet')
        """,
        "winnow_fingerprints": f"""
            SELECT doc_id, n_fingerprints, fp_xor64
            FROM read_parquet('{FIX}/golden_text.parquet')
        """,
        "text_embed_fingerprint": f"""
            SELECT doc_id, embed_argmax, embed_npos
            FROM read_parquet('{FIX}/golden_text.parquet')
        """,
        # simhash banding+verify vs brute-force SQL pairs over reference
        # signatures (banding has FULL recall at hamming<=3 by pigeonhole,
        # so the two sets must be equal, not merely overlap)
        "simhash": f"""
            WITH g AS (SELECT doc_id, simhash
                       FROM read_parquet('{FIX}/golden_text.parquet'))
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b
            FROM g a JOIN g b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
            ORDER BY 1, 2
        """,
        # lang_id heuristic expressed directly in SQL (deterministic
        # stopword-profile argmax with alphabetical tie-break, CJK check)
        "lang_id": r"""
            WITH w AS (
              SELECT doc_id, text,
                     list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ÿ]+'),
                                    x -> lower(x)) AS words
              FROM documents),
            h AS (
              SELECT doc_id, text, len(words) AS n_words,
                len(list_filter(words, x -> x IN ('der','die','das','und','ist','nicht','ein','zu','mit'))) AS h_de,
                len(list_filter(words, x -> x IN ('the','and','of','to','a','in','is','that','for','it'))) AS h_en,
                len(list_filter(words, x -> x IN ('el','la','los','y','es','un','una','de','que','por'))) AS h_es,
                len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','des','que','pour'))) AS h_fr
              FROM w)
            SELECT doc_id,
                   CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                        WHEN n_words = 0 THEN 'unknown'
                        WHEN greatest(h_de, h_en, h_es, h_fr) = 0 THEN 'unknown'
                        WHEN h_de = greatest(h_de, h_en, h_es, h_fr) THEN 'de'
                        WHEN h_en = greatest(h_de, h_en, h_es, h_fr) THEN 'en'
                        WHEN h_es = greatest(h_de, h_en, h_es, h_fr) THEN 'es'
                        ELSE 'fr' END AS lang_pred
            FROM h
        """,
        "normalize_text": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ', 'g'))
                       AS norm_text
            FROM documents
        """,
        "lang_distribution": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
        """,
        "exact_dedup": """
            SELECT md5(text) AS content_hash, min(doc_id) AS doc_id,
                   count(*) AS n_copies
            FROM documents GROUP BY md5(text)
        """,
        "ngram_jaccard": r"""
            WITH toks AS (SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 2),
                                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
              FROM grams a JOIN grams b ON a.doc_id < b.doc_id)
            SELECT doc_id_a, doc_id_b FROM p
            WHERE inter > 0 AND inter * 1.0 / uni >= 0.2
            ORDER BY doc_id_a, doc_id_b
        """,
        # MinHash-LSH candidates + exact-Jaccard verification must EQUAL
        # the exact pair set whenever banding recalls every qualifying
        # pair — which holds deterministically on this corpus (seed=42
        # signatures; the recall floor is separately asserted in pytest)
        "minhash_lsh": r"""
            WITH toks AS (SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 2),
                                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
              FROM toks),
            p AS (
              SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
              FROM grams a JOIN grams b ON a.doc_id < b.doc_id)
            SELECT doc_id_a, doc_id_b FROM p
            WHERE inter > 0 AND inter * 1.0 / uni >= 0.2
            ORDER BY doc_id_a, doc_id_b
        """,
        # survivors of end-to-end near-dup dedup: every doc except
        # non-minimum members of exact-Jaccard connected components
        "neardup_dedup_corpus": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 2),
                                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
              FROM toks),
            p AS (
              SELECT a.doc_id AS a, b.doc_id AS b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
              FROM grams a JOIN grams b ON a.doc_id < b.doc_id),
            pairs AS (SELECT a, b FROM p WHERE inter > 0 AND inter * 1.0 / uni >= 0.2),
            edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
            reach(node, label) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
            ),
            comp AS (SELECT node, min(label) AS root FROM reach GROUP BY node)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT node FROM comp WHERE node <> root)
        """,
        "neardup_groups": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 2),
                                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
              FROM toks),
            p AS (
              SELECT a.doc_id AS a, b.doc_id AS b,
                     len(list_intersect(a.g, b.g)) AS inter,
                     len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
              FROM grams a JOIN grams b ON a.doc_id < b.doc_id),
            pairs AS (SELECT a, b FROM p WHERE inter > 0 AND inter * 1.0 / uni >= 0.2),
            edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
            reach(node, label) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
            )
            SELECT node AS doc_id, min(label) AS group_id
            FROM reach GROUP BY node
        """,
        # deterministic content-hash split: first 16 bits of md5(text);
        # lexicographic compare of 4 lowercase hex chars == numeric compare
        "split_assign": """
            SELECT doc_id,
                   CASE WHEN substr(md5(text), 1, 4) < 'cccc' THEN 'train'
                        WHEN substr(md5(text), 1, 4) < 'e666' THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "orders_by_segment_hashjoin": """
            SELECT c_mktsegment, count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
            ORDER BY 1, 2
        """,
        "knn_brute": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       ORDER BY vec_id LIMIT 5),
            s AS (SELECT q.qid AS query_id, e.vec_id,
                         list_cosine_similarity(q.qe, e.embedding) AS sim
                  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id) AS rnk
              FROM s)
            WHERE rnk <= 10
        """,
        "sessionize": """
            WITH d AS (
              SELECT user_id, event_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events),
            s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) + 1
                      AS session_id
                  FROM d)
            SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                   count(*) AS n_events, min(ts) AS start_ts, max(ts) AS end_ts
            FROM s GROUP BY user_id, session_id
        """,
        "running_event_counts": """
            SELECT user_id, event_id,
                   CAST(row_number() OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS BIGINT) AS running_n
            FROM events
        """,
        "distinct_users_by_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "top_users_by_type": """
            WITH c AS (SELECT event_type, user_id, count(*) AS n_events
                       FROM events GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (PARTITION BY event_type
                       ORDER BY n_events DESC, user_id) AS rnk FROM c)
            SELECT event_type, user_id, CAST(n_events AS BIGINT) AS n_events,
                   CAST(rnk AS BIGINT) AS rank
            FROM r WHERE rnk <= 3
        """,
        # sliding 60-min windows every 15 min: event → its 4 covering
        # window starts (same explode formula on both sides)
        "sliding_event_counts": """
            WITH w AS (
              SELECT event_type,
                     time_bucket(INTERVAL 15 MINUTE, ts)
                       - to_minutes(15 * k.k) AS window_start
              FROM events, (SELECT unnest([0, 1, 2, 3]) AS k) k)
            SELECT event_type, window_start, count(*) AS n_events
            FROM w GROUP BY event_type, window_start
        """,
        # range join vs a static band table (lo <= price < hi)
        "orders_price_bands": """
            WITH bands(band_id, band_lo, band_hi) AS (VALUES
              (0, 0, 50000), (1, 50000, 100000),
              (2, 100000, 200000), (3, 200000, 400000))
            SELECT band_id, band_lo, band_hi, count(*) AS n_orders
            FROM orders JOIN bands
              ON o_totalprice >= band_lo AND o_totalprice < band_hi
            GROUP BY band_id, band_lo, band_hi
        """,
        # native DuckDB ASOF JOIN as the oracle for the composed
        # groupby+searchsorted implementation
        "asof_join": """
            WITH v AS (
              SELECT user_id, ts, max(event_id) AS matched_event_id
              FROM events WHERE event_type = 'view' GROUP BY user_id, ts),
            c AS (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'click')
            SELECT c.event_id, c.user_id, c.ts,
                   v.matched_event_id, v.ts AS matched_ts
            FROM c ASOF JOIN v
              ON c.user_id = v.user_id AND c.ts >= v.ts
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN
                  (SELECT o_custkey FROM orders WHERE o_orderstatus = 'F')
        """,
        "frame_sample": f"""
            SELECT media_ref,
                   CAST(octet_length(payload) AS BIGINT) AS n_bytes,
                   CAST(ceil(octet_length(payload) / 1024.0) AS BIGINT) AS n_frames
            FROM {_MEDIA_SRC}
        """,
        # PCM feature stage vs the independent byte-loop golden reference
        "audio_energy": f"""
            SELECT media_ref, n_samples, n_windows, energy, peak
            FROM read_parquet('{FIX}/golden_audio.parquet')
        """,
        # vectorized NN-resize gather vs the pure-Python pixel-loop golden
        "image_resize": f"""
            SELECT media_ref, ok, out_width, out_height, out_md5, error
            FROM read_parquet('{FIX}/golden_resize.parquet')
        """,
        # html.parser main-content stage vs the independent regex-stack
        # reference (pdfz_ray/oracle.py main_content_ref) — same block
        # model, disjoint implementations
        "html_main_content": f"""
            SELECT doc_id, n_blocks, n_kept, main_chars, main_md5
            FROM read_parquet('{FIX}/golden_html.parquet')
        """,
        # tokenize the golden (reference-extracted) main text in SQL; the
        # Ray side parses the raw HTML and tokenizes its own extraction —
        # equality proves parse AND tokenize agree end-to-end
        "html_extract_tokens": f"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(main_text, '\\S+')) AS BIGINT) AS n_tokens,
                   CAST(length(main_text) AS BIGINT) AS n_chars
            FROM read_parquet('{FIX}/golden_html.parquet')
        """,
        "top_terms": r"""
            WITH t AS (
              SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS term
              FROM documents)
            SELECT term, count(*) AS n FROM t
            GROUP BY term ORDER BY n DESC, term LIMIT 20
        """,
        "lineitem_pricing": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   count(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_nation": """
            SELECT n_name, count(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        # exact quantiles: smallest v with cum_count >= ceil(q/100 * n)
        "orders_price_quantiles": """
            WITH c AS (SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v
                       FROM orders),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn,
                         count(*) OVER () AS n
                  FROM c)
            SELECT q.q_pct, min(r.v) AS v_cents
            FROM (SELECT unnest([50, 90, 99]) AS q_pct) q
            JOIN r ON r.rn = CAST(ceil(q.q_pct * r.n / 100.0) AS BIGINT)
            GROUP BY q.q_pct
        """,
        # exact-integer revenue (price-cents × discount-hundredths) so the
        # 3-table join rollup hash-matches with no float drift
        "revenue_by_nation": """
            SELECT n_name,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l_discount) * 100) AS BIGINT))
                        AS BIGINT) AS revenue_c4
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        # corpus curation ------------------------------------------------
        # benchmark slice = doc_id % 23 == 0; overlap counts DISTINCT
        # 3-grams shared with it (keep in sync with curation.decontaminate)
        "decontaminate": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents
            ),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 2),
                                   i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
              FROM toks
            ),
            bench AS (
              SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id % 23 = 0
            ),
            corpus AS (SELECT doc_id, unnest(g) AS gram FROM grams)
            SELECT c.doc_id, count(*) AS n_overlap
            FROM corpus c JOIN bench b USING (gram)
            GROUP BY c.doc_id
        """,
        # same RE2 patterns as curation.pii_redact_batch (keep in sync);
        # counts on the original text, redaction email → ip → phone
        "pii_redact": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(coalesce(text, ''),
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(coalesce(text, ''),
                        '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ipv4,
                   CAST(len(regexp_extract_all(coalesce(text, ''),
                        '\b\d{3}-\d{3}-\d{4}\b')) AS BIGINT) AS n_phones,
                   regexp_replace(regexp_replace(regexp_replace(coalesce(text, ''),
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                        '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
                        '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g') AS redacted
            FROM documents
        """,
        # split-allowed sequence packing: pack_id = exclusive-prefix-sum of
        # token counts (doc_id order) // budget
        "pack_sequences": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_tokens,
                     coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
              FROM t
            )
            SELECT doc_id, n_tokens,
                   CAST(prev AS BIGINT) // 512 AS pack_id,
                   CAST(prev AS BIGINT) % 512 AS pack_offset
            FROM c
        """,
        # stratified hash sampling: first 16 bits of md5(text) under the
        # per-source threshold (src0 boosted to 50%, default 10%) — hex
        # comparison is numeric because the width is fixed at 4 chars
        "hash_sample": """
            SELECT doc_id, source
            FROM documents
            WHERE substr(md5(coalesce(text, '')), 1, 4) <
                  CASE WHEN source = 'src0' THEN '8000' ELSE '1999' END
        """,
        # Gopher-style repetition signals over 2-grams; docs with < 2
        # tokens have no grams and emit no row on either side
        "repetition_stats": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents
            ),
            g2 AS (
              SELECT doc_id,
                     unnest(list_transform(generate_series(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1])) AS gram
              FROM toks
            ),
            cnt AS (SELECT doc_id, gram, count(*) AS c FROM g2 GROUP BY 1, 2)
            SELECT doc_id,
                   CAST(sum(c) AS BIGINT) AS n_grams,
                   CAST(max(c) AS BIGINT) AS max_gram_count,
                   CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS BIGINT) AS n_dup_gram
            FROM cnt GROUP BY doc_id
        """,
        # rarest term per doc (lowest document frequency, lexicographic
        # tie-break) — integer-exact global-stat annotation
        "doc_rarity": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(coalesce(text, ''), '\S+')) AS term
              FROM documents
            ),
            dt AS (SELECT DISTINCT doc_id, term FROM toks),
            df AS (SELECT term, count(*) AS df FROM dt GROUP BY term)
            SELECT doc_id, term AS rarest_term, CAST(df AS BIGINT) AS term_df
            FROM (
              SELECT d.doc_id, d.term, f.df,
                     row_number() OVER (PARTITION BY d.doc_id
                                        ORDER BY f.df, d.term) AS rn
              FROM dt d JOIN df f USING (term)
            )
            WHERE rn = 1
        """,
        # passage-level duplication stats: 5-token stride-1 windows; a
        # window is "common" when its passage string occurs in >= 2
        # DISTINCT docs (the Ray side compares 64-bit window fingerprints —
        # collision-free at verification scale, see passage_stats docstring)
        "passage_stats": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w
              FROM documents
            ),
            wins AS (
              SELECT doc_id,
                     array_to_string(w[CAST(i AS INT):CAST(i AS INT) + 4], ' ') AS p
              FROM toks, unnest(range(1, len(w) - 5 + 2)) AS t(i)
              WHERE len(w) >= 5
            ),
            dp AS (SELECT DISTINCT doc_id, p FROM wins),
            common AS (SELECT p FROM dp GROUP BY p HAVING count(*) >= 2)
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_windows,
                   CAST(coalesce(sum(CASE WHEN p IN (SELECT p FROM common)
                                          THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_dup_windows
            FROM wins GROUP BY doc_id
        """,
        # passage REMOVAL: tokens covered by any common window are excised,
        # survivors re-join with single spaces; docs with zero survivors
        # (fully duplicated or empty) emit no row on either side
        "passage_dedup": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w
              FROM documents
            ),
            wins AS (
              SELECT doc_id, CAST(i AS BIGINT) AS i,
                     array_to_string(w[CAST(i AS INT):CAST(i AS INT) + 4], ' ') AS p
              FROM toks, unnest(range(1, len(w) - 5 + 2)) AS t(i)
              WHERE len(w) >= 5
            ),
            dp AS (SELECT DISTINCT doc_id, p FROM wins),
            common AS (SELECT p FROM dp GROUP BY p HAVING count(*) >= 2),
            cov AS (
              SELECT DISTINCT doc_id, CAST(j AS BIGINT) AS j
              FROM wins, unnest(range(i, i + 5)) AS u(j)
              WHERE p IN (SELECT p FROM common)
            ),
            tok_pos AS (
              SELECT doc_id, CAST(t.i AS BIGINT) AS pos, w[CAST(t.i AS INT)] AS tok
              FROM toks, unnest(range(1, len(w) + 1)) AS t(i)
            ),
            kept AS (
              SELECT tp.doc_id, tp.pos, tp.tok
              FROM tok_pos tp LEFT JOIN cov c
                ON tp.doc_id = c.doc_id AND tp.pos = c.j
              WHERE c.doc_id IS NULL
            )
            SELECT doc_id,
                   string_agg(tok, ' ' ORDER BY pos) AS clean_text,
                   CAST(count(*) AS BIGINT) AS n_kept_tokens
            FROM kept GROUP BY doc_id
        """,
        # generated from the SAME weight/budget constants as the Ray side
        "mixture_plan": _mixture_sql(),
        # plan → replicated epoch rows (generate_series per copy)
        "mixture_materialize": f"""
            WITH plan AS ({_mixture_sql()})
            SELECT doc_id, source, CAST(i AS BIGINT) AS copy_idx
            FROM plan, unnest(range(0, n_copies)) AS t(i)
        """,
        # cross-corpus exact dedup on the identical 64-bit md5 prefix
        "dedup_against": r"""
            SELECT doc_id, source FROM documents
            WHERE source <> 'src0'
              AND substr(md5(coalesce(text, '')), 1, 16) NOT IN
                  (SELECT substr(md5(coalesce(text, '')), 1, 16)
                   FROM documents WHERE source = 'src0')
        """,
        # corpus-wide deterministic shuffle permutation (md5 hex ordering ==
        # 128-bit value ordering; doc_id tiebreak is vacuous but pinned)
        "shuffle_rank": r"""
            SELECT doc_id,
                   CAST(row_number() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                           doc_id) AS BIGINT) - 1 AS shuffle_pos
            FROM documents
        """,
        # next-pow2 length buckets (float log2 is exact at pow-2 boundaries
        # on both sides)
        "inference_buckets": r"""
            WITH b AS (
              SELECT CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS nt
              FROM documents
            ),
            bb AS (
              SELECT CAST(power(2, ceil(log2(greatest(nt, 1)))) AS BIGINT) AS bucket, nt
              FROM b
            )
            SELECT bucket,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(nt) AS BIGINT) AS sum_tokens,
                   CAST(sum(bucket - nt) AS BIGINT) AS pad_tokens
            FROM bb GROUP BY bucket
        """,
        # per-language exact P25: each doc clears ITS language's threshold
        "quality_gate_by_lang": r"""
            WITH t AS (
              SELECT doc_id, lang,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens
              FROM documents
            ),
            h AS (SELECT lang, n_tokens AS v, count(*) AS c FROM t GROUP BY 1, 2),
            cum AS (
              SELECT lang, v, sum(c) OVER (PARTITION BY lang ORDER BY v) AS cum,
                     sum(c) OVER (PARTITION BY lang) AS total
              FROM h
            ),
            thresh AS (
              SELECT lang, min(v) AS p FROM cum
              WHERE cum >= CAST(ceil(total * 25 / 100.0) AS BIGINT) GROUP BY lang
            )
            SELECT t.doc_id, t.lang, t.n_tokens
            FROM t JOIN thresh USING (lang) WHERE t.n_tokens >= thresh.p
        """,
        # exact P25 threshold: smallest token count whose cumulative doc
        # count reaches ceil(25% of docs) — same walk as the Ray histogram
        "quality_gate_quantile": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens
              FROM documents
            ),
            h AS (SELECT n_tokens AS v, count(*) AS c FROM t GROUP BY 1),
            cum AS (
              SELECT v, sum(c) OVER (ORDER BY v) AS cum,
                     (SELECT count(*) FROM t) AS total
              FROM h
            ),
            thresh AS (
              SELECT min(v) AS p25 FROM cum
              WHERE cum >= CAST(ceil(total * 25 / 100.0) AS BIGINT)
            )
            SELECT doc_id, n_tokens FROM t, thresh WHERE n_tokens >= p25
        """,
        # composed curation: P25 gate ∧ no 5-gram benchmark overlap ∧
        # exact-dedup winner → md5-bucket split (thresholds = split_assign's)
        "curate_corpus": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_tokens,
                     md5(coalesce(text, '')) AS h
              FROM documents
            ),
            hist AS (SELECT n_tokens AS v, count(*) AS c FROM t GROUP BY 1),
            cum AS (
              SELECT v, sum(c) OVER (ORDER BY v) AS cum,
                     (SELECT count(*) FROM t) AS total
              FROM hist
            ),
            thresh AS (
              SELECT min(v) AS p25 FROM cum
              WHERE cum >= CAST(ceil(total * 25 / 100.0) AS BIGINT)
            ),
            toks AS (
              SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents
            ),
            grams AS (
              SELECT doc_id,
                     list_distinct(list_transform(generate_series(1, len(w) - 4),
                       i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                            || w[i+3] || ' ' || w[i+4])) AS g
              FROM toks
            ),
            bench AS (
              SELECT DISTINCT unnest(g) AS gram FROM grams WHERE doc_id % 23 = 0
            ),
            contaminated AS (
              SELECT DISTINCT c.doc_id
              FROM (SELECT doc_id, unnest(g) AS gram FROM grams) c
              JOIN bench b USING (gram)
            ),
            winners AS (SELECT h, min(doc_id) AS w FROM t GROUP BY h)
            SELECT t.doc_id,
                   CASE WHEN substr(h, 1, 4) < 'cccc' THEN 'train'
                        WHEN substr(h, 1, 4) < 'e666' THEN 'val'
                        ELSE 'test' END AS split
            FROM t JOIN winners USING (h), thresh
            WHERE t.n_tokens >= p25
              AND t.doc_id = winners.w
              AND t.doc_id NOT IN (SELECT doc_id FROM contaminated)
        """,
    }
    # the distributed label-propagation variant must equal the union-find result
    sqls["neardup_groups_dist"] = sqls["neardup_groups"]
    # sessionization at another bucket count: the same sessions
    sqls["sessionize_bucketed"] = sqls["sessionize"]
    # at 16 hash tables the LSH top-k equals brute force on this corpus
    sqls["knn_lsh"] = sqls["knn_brute"]
    # PQ-ADC with exact rerank (default width) equals brute force here
    sqls["knn_pq"] = sqls["knn_brute"]
    # IVF at full probe (nprobe=nlist) is exact by construction
    sqls["knn_ivf"] = sqls["knn_brute"]
    # identical output contract for any df_cap
    sqls["doc_rarity_capped"] = sqls["doc_rarity"]
    # CMS estimates are exact at this vocabulary → sketch top-k == exact
    sqls["heavy_hitters"] = sqls["top_terms"]
    # leakage-safe grouped split: every doc buckets by its component
    # REPRESENTATIVE's (min doc_id) md5; singletons by their own
    sqls["split_assign_grouped"] = r"""
        WITH RECURSIVE toks AS (
          SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
        grams AS (
          SELECT doc_id,
                 list_distinct(list_transform(generate_series(1, len(w) - 2),
                               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
          FROM toks),
        p AS (
          SELECT a.doc_id AS a, b.doc_id AS b,
                 len(list_intersect(a.g, b.g)) AS inter,
                 len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
          FROM grams a JOIN grams b ON a.doc_id < b.doc_id),
        pairs AS (SELECT a, b FROM p WHERE inter > 0 AND inter * 1.0 / uni >= 0.2),
        edges AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
        reach(node, label) AS (
          SELECT a, a FROM edges
          UNION
          SELECT e.b, r.label FROM reach r JOIN edges e ON e.a = r.node
        ),
        comp AS (SELECT node AS doc_id, min(label) AS group_id
                 FROM reach GROUP BY node),
        g2 AS (
          SELECT d.doc_id, coalesce(c.group_id, d.doc_id) AS group_id
          FROM documents d LEFT JOIN comp c USING (doc_id)),
        rep AS (
          SELECT g2.doc_id, substr(md5(t.text), 1, 4) AS rh
          FROM g2 JOIN documents t ON g2.group_id = t.doc_id)
        SELECT doc_id,
               CASE WHEN rh < 'cccc' THEN 'train'
                    WHEN rh < 'e666' THEN 'val'
                    ELSE 'test' END AS split
        FROM rep
    """
    # leakage audit: exact-Jaccard near-dup pairs (ngram_jaccard's CTE)
    # whose members fall in different md5-bucket splits
    sqls["split_leakage"] = r"""
        WITH toks AS (SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS w FROM documents),
        grams AS (
          SELECT doc_id,
                 list_distinct(list_transform(generate_series(1, len(w) - 2),
                               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS g
          FROM toks),
        p AS (
          SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                 len(list_intersect(a.g, b.g)) AS inter,
                 len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS uni
          FROM grams a JOIN grams b ON a.doc_id < b.doc_id),
        pairs AS (
          SELECT doc_id_a, doc_id_b FROM p
          WHERE inter > 0 AND inter * 1.0 / uni >= 0.2),
        sp AS (
          SELECT doc_id,
                 CASE WHEN substr(md5(text), 1, 4) < 'cccc' THEN 'train'
                      WHEN substr(md5(text), 1, 4) < 'e666' THEN 'val'
                      ELSE 'test' END AS split
          FROM documents)
        SELECT doc_id_a, doc_id_b, sa.split AS split_a, sb.split AS split_b
        FROM pairs
        JOIN sp sa ON doc_id_a = sa.doc_id
        JOIN sp sb ON doc_id_b = sb.doc_id
        WHERE sa.split <> sb.split
    """
    # Bloom probe: no false negatives ever; no false positives on this
    # probe set at this sizing → equals the exact membership semi-join
    sqls["seen_probe"] = """
        SELECT 'doc:' || CAST(doc_id AS VARCHAR) AS probe, true AS present
        FROM documents WHERE doc_id % 7 = 0
        UNION ALL
        SELECT 'absent-probe-' || CAST(i AS VARCHAR), false
        FROM generate_series(0, 99) t(i)
    """
    # round-4: RAG token-window chunker — every start < n_tokens produces
    # a chunk (generate_series(0, n-1, stride)); tokens = \S+ runs
    sqls["chunk_docs"] = r"""
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS tk
          FROM documents),
        base AS (SELECT doc_id, tk, len(tk) AS n FROM toks WHERE len(tk) > 0),
        starts AS (
          SELECT doc_id, tk, n, unnest(generate_series(0, n - 1, 48)) AS s
          FROM base)
        SELECT doc_id, CAST(s / 48 AS BIGINT) AS chunk_id,
               array_to_string(tk[s + 1 : least(s + 64, n)], ' ') AS chunk_text,
               CAST(least(s + 64, n) - s AS BIGINT) AS n_tokens
        FROM starts ORDER BY doc_id, chunk_id
    """
    # round-4: corpus bigram collocations (adjacent lowercased \S+ tokens)
    sqls["bigram_top"] = r"""
        WITH toks AS (
          SELECT regexp_extract_all(lower(coalesce(text, '')), '\S+') AS tk
          FROM documents),
        g AS (SELECT array_to_string(tk[s : s + 1], ' ') AS bigram
              FROM (SELECT tk, unnest(generate_series(1, len(tk) - 1)) AS s
                    FROM toks))
        SELECT bigram, count(*) AS n FROM g
        GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
    """
    # round-4: per-doc top-3 TF-IDF terms; rank by the IEEE-exact double
    # quotient tf/df (monotone in tf·idf for fixed N), term tie-break
    sqls["tfidf_topk"] = r"""
        WITH t AS (
          SELECT doc_id, unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS term
          FROM documents),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM t GROUP BY doc_id, term),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM t GROUP BY term),
        s AS (SELECT tf.doc_id, tf.term, tf.tf AS tf, df.df AS df,
                     row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.term
                     ) AS rn
              FROM tf JOIN df USING (term))
        SELECT doc_id, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df
        FROM s WHERE rn <= 3 ORDER BY doc_id, term
    """
    # semantic_dedup (SemDeDup): k-means cluster state is not
    # SQL-expressible — rows-only by design; correctness pinned by pytest
    # (n_clusters=1 == exact brute-force min-id rule, determinism,
    # clustered-dropped ⊆ exact-dropped, full row coverage)
    # round-4: LM-coverage quality signal — per-doc rare-bigram counts
    # (integer-exact CCNet-perplexity analogue; rare = corpus count < 2)
    sqls["lm_coverage"] = r"""
        WITH toks AS (
          SELECT doc_id,
                 regexp_extract_all(lower(coalesce(text, '')), '\S+') AS tk
          FROM documents),
        bg AS (SELECT doc_id, tk[s] || ' ' || tk[s + 1] AS bigram
               FROM (SELECT doc_id, tk,
                            unnest(generate_series(1, len(tk) - 1)) AS s
                     FROM toks)),
        cnt AS (SELECT bigram, count(*) AS n FROM bg GROUP BY bigram),
        rare AS (SELECT bg.doc_id,
                        count(*) AS n_transitions,
                        count(*) FILTER (WHERE cnt.n < 2) AS n_rare
                 FROM bg JOIN cnt USING (bigram) GROUP BY bg.doc_id)
        SELECT d.doc_id,
               CAST(coalesce(r.n_transitions, 0) AS BIGINT) AS n_transitions,
               CAST(coalesce(r.n_rare, 0) AS BIGINT) AS n_rare
        FROM documents d LEFT JOIN rare r USING (doc_id)
        ORDER BY d.doc_id
    """
    return sqls
