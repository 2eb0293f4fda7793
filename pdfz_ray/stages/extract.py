"""Core extraction as a vectorized, stateless ``map_batches`` UDF.

This is the Ray-Data-native re-expression of the reference's per-document
pipeline (``extract_file`` + ``process_page``,
reference extractor/src/engine/mod.rs:49-136): a pure function over a
zero-copy Arrow batch of interleaved documents. The doc→pages flat-map, the
page window (with the reference's off-by-one, mod.rs:70-77), the per-page
text join (mod.rs:100-134), and the gap-preserving media enumeration
(mod.rs:105-130) all happen *inside* the batch with numpy/pyarrow kernels —
no Python loop over rows or spans, no global flat_map that could lose
per-doc ordering across shuffle boundaries.

Semantics are pinned by the pure-Python oracle in ``pdfz_ray.oracle``; the
golden tests assert batch-level equality against it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import BAD_PAYLOAD_PREFIX, CORRUPT_SUFFIX
from ..schema import OUTPUT_SCHEMA, SPAN_STRUCT


def _job_arrays(doc_ids: pa.Array, jobs: pa.Table | None):
    """Per-row (start_page, page_count, engine_ok) arrays from the broadcast
    jobs lookup (``jobs.jobs_table_to_lookup``): the lookup filtered to the
    batch's ids (``is_in``, which hashes the batch, not the lookup), one
    ``index_in`` over that subset and one ``take`` per column; a doc
    without a job gets the default job."""
    n = len(doc_ids)
    if jobs is None:
        return (
            np.ones(n, np.int64),
            np.zeros(n, np.int64),
            np.ones(n, bool),
        )
    jobs = jobs.filter(pc.is_in(jobs.column("doc_id"), value_set=doc_ids))
    idx = pc.index_in(doc_ids, value_set=jobs.column("doc_id").combine_chunks())

    def take(name: str, default):
        col = pc.fill_null(jobs.column(name).take(idx), default)
        return col.to_numpy(zero_copy_only=False)

    return take("start_page", 1), take("page_count", 0), take("engine_ok", True)


def _empty_output(
    doc_ids: pa.Array, failed: np.ndarray, emit_payloads: bool = False
) -> pa.Table:
    n = len(doc_ids)
    empty_struct = pa.array([], type=SPAN_STRUCT)
    offsets = pa.array(np.zeros(n + 1, np.int32))
    spans = pa.ListArray.from_arrays(offsets, empty_struct)
    zeros = pa.array(np.zeros(n, np.int64))
    tbl = pa.Table.from_arrays(
        [
            doc_ids,
            spans,
            pa.array(np.where(failed, "failed", "done")),
            zeros,
            zeros,
            zeros,
        ],
        schema=OUTPUT_SCHEMA,
    )
    if emit_payloads:
        empty_payloads = pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, np.int32)), pa.array([], pa.string())
        )
        tbl = tbl.append_column("media_payloads", empty_payloads)
    return tbl


# output span kinds, taken by index (0: text, 1: media)
_KINDS = pa.array(["text", "media"], pa.string())


# memory guard for skewed batches: a batch whose total span count exceeds
# this is processed in row chunks (SURVEY.md §4 skew row — block splitting
# can't split a single row, but it can bound how many wide rows share one
# kernel invocation; a lone monster row still processes alone)
MAX_SPANS_PER_KERNEL = 4_000_000


def extract_batch(
    batch: pa.Table,
    jobs: pa.Table | None = None,
    emit_payloads: bool = False,
) -> pa.Table:
    """documents batch (doc_id, spans) → OUTPUT_SCHEMA batch.

    One output row per input row (duplicates are resolved upstream); failed
    docs (corrupt sentinel, null doc_id, invalid engine) come back with
    empty span lists and status="failed" so lineage flows without aborting
    the pipeline (unlike the reference's worker panic, queue_handler.rs:51).

    With ``emit_payloads`` a ``media_payloads: list<string>`` side column is
    added (payload seed per emitted media span, span order) for OCR:
    ``engines.ocr_task``, which both entry points call on the batch in the
    same extract UDF, or a caller's own ``OcrStage`` actor pool. ``jobs``:
    the lookup table of ``jobs.jobs_table_to_lookup`` (None: every doc gets
    the default job).
    """
    n = batch.num_rows

    # skew guard: chunk span-heavy batches by cumulative span count
    if n > 1:
        lens = pc.fill_null(
            pc.list_value_length(batch.column("spans")), 0
        ).to_numpy(zero_copy_only=False)
        if lens.sum() > MAX_SPANS_PER_KERNEL:
            cum = np.cumsum(lens)
            cuts = [0]
            while cuts[-1] < n:
                lo = cuts[-1]
                base = cum[lo - 1] if lo else 0
                # largest hi with chunk sum <= cap; a single over-cap row
                # still advances by one (processed alone)
                hi = int(
                    np.searchsorted(cum, base + MAX_SPANS_PER_KERNEL, side="right")
                )
                cuts.append(max(lo + 1, min(hi, n)))
            parts = [
                extract_batch(batch.slice(lo, hi - lo), jobs, emit_payloads)
                for lo, hi in zip(cuts[:-1], cuts[1:])
            ]
            return pa.concat_tables(parts)

    doc_ids = batch.column("doc_id").combine_chunks()
    spans_col = batch.column("spans").combine_chunks()

    start, count, engine_ok = _job_arrays(doc_ids, jobs)
    # a null id fails like a corrupt one
    corrupt = pc.fill_null(
        pc.ends_with(doc_ids, pattern=CORRUPT_SUFFIX), True
    ).to_numpy(zero_copy_only=False)
    failed = corrupt | ~engine_ok

    flat = spans_col.flatten()
    if len(flat) == 0:
        return _empty_output(doc_ids, failed, emit_payloads)

    parent = pc.list_parent_indices(spans_col).to_numpy().astype(np.int64)
    offset = flat.field("offset").to_numpy(zero_copy_only=False).astype(np.int64)
    is_text = pc.equal(flat.field("kind"), "text").to_numpy(zero_copy_only=False)
    sp_text = flat.field("text")
    bad = (
        pc.starts_with(sp_text, pattern=BAD_PAYLOAD_PREFIX).to_numpy(
            zero_copy_only=False
        )
        & ~is_text
    )

    # drop spans of failed docs, then stable-sort by (doc, page) so each
    # page's spans are contiguous in original intra-page order (the BTreeMap
    # page ordering, mod.rs:72): one int64 key (an int32 page's range times
    # a batch's docs fits), whose stable sort is near linear on spans that
    # already come in page order
    alive_idx = np.nonzero(~failed[parent])[0]
    if len(alive_idx) == 0:
        return _empty_output(doc_ids, failed, emit_payloads)
    a_off = offset[alive_idx]
    lo = a_off.min()
    key = parent[alive_idx] * (a_off.max() - lo + 1) + (a_off - lo)
    sidx = alive_idx[np.argsort(key, kind="stable")]
    p_s, o_s = parent[sidx], offset[sidx]
    is_text_s, bad_s = is_text[sidx], bad[sidx]
    m = len(sidx)

    # page groups over the sorted spans
    new_page = np.empty(m, bool)
    new_page[0] = True
    new_page[1:] = (p_s[1:] != p_s[:-1]) | (o_s[1:] != o_s[:-1])
    page_gid = np.cumsum(new_page) - 1
    page_starts = np.nonzero(new_page)[0]
    page_parent = p_s[page_starts]
    page_offset = o_s[page_starts]
    G = len(page_starts)
    page_span_counts = np.diff(np.append(page_starts, m))

    # window: keep pages with offset >= start_page-1 (the off-by-one), then
    # the first page_limit kept pages per doc (limit counts *collected*
    # pages, mod.rs:79-83)
    n_pages = np.bincount(page_parent, minlength=n)
    page_limit = np.where(count == 0, n_pages, np.minimum(count, n_pages))
    start_floor = np.maximum(start - 1, 0)
    kept = page_offset >= start_floor[page_parent]
    ck = np.cumsum(kept)
    new_doc_pg = np.empty(G, bool)
    new_doc_pg[0] = True
    new_doc_pg[1:] = page_parent[1:] != page_parent[:-1]
    doc_first = np.nonzero(new_doc_pg)[0]
    before = np.where(doc_first > 0, ck[doc_first - 1], 0)
    doc_pg_counts = np.diff(np.append(doc_first, G))
    kept_rank = ck - 1 - np.repeat(before, doc_pg_counts)
    final_page = kept & (kept_rank < page_limit[page_parent])
    kept_pages = np.nonzero(final_page)[0]  # page gids, ascending (doc, page)

    # per-page text join (" " join; empty page ⇒ "", mod.rs:100-134)
    span_final = final_page[page_gid]
    text_rows = span_final & is_text_s
    text_counts_all = np.bincount(page_gid[text_rows], minlength=G)
    t_offsets = np.zeros(len(kept_pages) + 1, np.int64)
    np.cumsum(text_counts_all[kept_pages], out=t_offsets[1:])
    text_values = sp_text.take(pa.array(sidx[text_rows]))
    text_list = pa.ListArray.from_arrays(
        pa.array(t_offsets, type=pa.int32()), text_values
    )
    page_text = pc.binary_join(text_list, " ")
    page_text = pc.fill_null(page_text, "")

    # media enumeration index within page, counting failed decodes too
    # (gap-preserving names, mod.rs:105-130)
    is_media_s = ~is_text_s
    cm = np.cumsum(is_media_s)
    page_base = np.repeat(cm[page_starts] - is_media_s[page_starts], page_span_counts)
    media_i = cm - 1 - page_base
    media_rows = np.nonzero(is_media_s & span_final & ~bad_s)[0]
    med_parent = p_s[media_rows]
    med_offset = o_s[media_rows]
    med_i = media_i[media_rows]
    med_doc = doc_ids.take(pa.array(med_parent))
    med_ref = pc.binary_join_element_wise(
        med_doc,
        pc.cast(pa.array(med_offset), pa.string()),
        pc.cast(pa.array(med_i), pa.string()),
        "_",
    )
    med_ref = pc.binary_join_element_wise(med_ref, ".png", "")

    # assemble: per kept page its text span, then its media spans in index
    # order. media_rows run in (doc, page, index) order, so the j-th media
    # span of kept page k lands at k + 1 + j and page k's text span at k +
    # (media spans of earlier kept pages): positions, not a sort
    tp, to = page_parent[kept_pages], page_offset[kept_pages]
    nt, nm = len(kept_pages), len(media_rows)
    med_kp = (np.cumsum(final_page) - 1)[page_gid[media_rows]]
    text_pos = np.arange(nt) + np.searchsorted(med_kp, np.arange(nt))
    med_pos = med_kp + 1 + np.arange(nm)
    is_med_out = np.ones(nt + nm, np.int8)
    is_med_out[text_pos] = 0
    # per output position: the index into page_text (text) and into
    # med_ref (media), each past its end ("") at the other kind
    text_src = np.full(nt + nm, nt, np.int64)
    text_src[text_pos] = np.arange(nt)
    ref_src = np.full(nt + nm, nm, np.int64)
    ref_src[med_pos] = np.arange(nm)
    off_out = np.empty(nt + nm, np.int32)
    off_out[text_pos] = to
    off_out[med_pos] = med_offset
    blank = pa.array([""], pa.string())
    kind_arr = _KINDS.take(pa.array(is_med_out))
    text_arr = pa.concat_arrays([page_text, blank]).take(pa.array(text_src))
    ref_arr = pa.concat_arrays([med_ref, blank]).take(pa.array(ref_src))
    struct = pa.StructArray.from_arrays(
        [kind_arr, text_arr, ref_arr, pa.array(off_out)],
        fields=list(SPAN_STRUCT),
    )

    # re-nest per doc (docs with no output get empty lists)
    out_counts = np.bincount(tp, minlength=n) + np.bincount(med_parent, minlength=n)
    list_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(out_counts, out=list_offsets[1:])
    spans_out = pa.ListArray.from_arrays(
        pa.array(list_offsets, type=pa.int32()), struct
    )

    # per-doc lineage metrics (generalizes the Redis progress counters,
    # libs/redis.rs:169-178, into columns)
    pages_done = np.bincount(page_parent[kept_pages], minlength=n)
    bad_kept = np.nonzero(is_media_s & span_final & bad_s)[0]
    decode_failures = np.bincount(p_s[bad_kept], minlength=n)
    empty_mask = pc.equal(page_text, "").to_numpy(zero_copy_only=False)
    empty_pages = np.bincount(tp[empty_mask], minlength=n)

    out = pa.Table.from_arrays(
        [
            doc_ids,
            spans_out,
            pa.array(np.where(failed, "failed", "done")),
            pa.array(pages_done.astype(np.int64)),
            pa.array(decode_failures.astype(np.int64)),
            pa.array(empty_pages.astype(np.int64)),
        ],
        schema=OUTPUT_SCHEMA,
    )
    if emit_payloads:
        # payloads of emitted media spans, already in (doc, page, index)
        # order — exactly the per-doc media span order of the output
        payload_values = sp_text.take(pa.array(sidx[media_rows]))
        pay_counts = np.bincount(med_parent, minlength=n)
        pay_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(pay_counts, out=pay_offsets[1:])
        payloads = pa.ListArray.from_arrays(
            pa.array(pay_offsets, type=pa.int32()), payload_values
        )
        out = out.append_column("media_payloads", payloads)
    return out


def flatten_output(batch: pa.Table) -> pa.Table:
    """OUTPUT_SCHEMA batch → FLAT_OUTPUT_SCHEMA rows (successful docs only).

    Carries (doc_id, seq) explicitly so flat rows survive any shuffle
    (SURVEY.md §7.3 ordering rule)."""
    done = batch.filter(pc.equal(batch.column("status"), "done"))
    spans = done.column("spans").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans)
    parent_np = parent.to_numpy().astype(np.int64) if len(flat) else np.zeros(0, np.int64)
    counts = np.bincount(parent_np, minlength=max(done.num_rows, 1))
    starts = np.zeros(max(done.num_rows, 1), np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    seq = (np.arange(len(parent_np)) - starts[parent_np]).astype(np.int32)
    return pa.Table.from_arrays(
        [
            done.column("doc_id").combine_chunks().take(parent),
            pa.array(seq),
            flat.field("offset"),
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
        ],
        names=["doc_id", "seq", "page_num", "kind", "text", "media_ref"],
    )
