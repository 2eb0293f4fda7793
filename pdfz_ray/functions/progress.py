"""Progress accounting — the G2 quirk surface.

The reference reports per-doc progress as ``page_num * 100 / page_limit``
(integer division) keyed on the *page number*, not the processed-page
count (extractor/src/libs/redis.rs:169-178 via engine/mod.rs:89). With a
page window or offset gaps the final percent exceeds 100 — e.g. pages
{1,3,7} → total=3, last page 7 → 233. This module reproduces that number
exactly (it is observable reference behavior), alongside an honest
``pages_done/pages_total`` pair.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import CORRUPT_SUFFIX
from ..stages.extract import _job_arrays


def doc_progress_batch(batch: pa.Table, jobs: pa.Table | None = None) -> pa.Table:
    """Per-doc final progress percent, reference semantics.

    Output: (doc_id, final_progress, pages_done, pages_total) where
    final_progress = floor(max_processed_page_num * 100 / page_limit);
    failed (corrupt) docs report 0. ``jobs``: the lookup table of
    ``jobs.jobs_table_to_lookup``, resolved like ``extract_batch``'s (None:
    every doc gets the default job).
    """
    n = batch.num_rows
    doc_ids = batch.column("doc_id").combine_chunks()
    spans = batch.column("spans").combine_chunks()
    corrupt = pc.ends_with(doc_ids, pattern=CORRUPT_SUFFIX).to_numpy(
        zero_copy_only=False
    )
    start, count, _ = _job_arrays(doc_ids, jobs)

    flat = spans.flatten()
    last_page = np.zeros(n, np.int64)
    done = np.zeros(n, np.int64)
    total = np.zeros(n, np.int64)
    if len(flat):
        parent = pc.list_parent_indices(spans).to_numpy().astype(np.int64)
        offset = flat.field("offset").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((offset, parent))
        p_s, o_s = parent[order], offset[order]
        new_pg = np.empty(len(p_s), bool)
        new_pg[0] = True
        new_pg[1:] = (p_s[1:] != p_s[:-1]) | (o_s[1:] != o_s[:-1])
        pg_parent = p_s[new_pg]
        pg_offset = o_s[new_pg]
        n_pages = np.bincount(pg_parent, minlength=n)
        page_limit = np.where(count == 0, n_pages, np.minimum(count, n_pages))
        start_floor = np.maximum(start - 1, 0)
        kept = pg_offset >= start_floor[pg_parent]
        # rank kept pages per doc; processed = first page_limit kept pages
        ck = np.cumsum(kept)
        first = np.zeros(len(pg_parent), np.int64)
        newd = np.empty(len(pg_parent), bool)
        newd[0] = True
        newd[1:] = pg_parent[1:] != pg_parent[:-1]
        dstart = np.nonzero(newd)[0]
        before = np.where(dstart > 0, ck[dstart - 1], 0)
        first = np.repeat(before, np.diff(np.append(dstart, len(pg_parent))))
        rank = ck - 1 - first
        proc = kept & (rank < page_limit[pg_parent])
        np.maximum.at(last_page, pg_parent[proc], pg_offset[proc])
        done = np.bincount(pg_parent[proc], minlength=n)
        total = page_limit
    safe_total = np.maximum(total, 1)
    pct = last_page * 100 // safe_total  # the page_num-based quirk
    pct = np.where(corrupt | (total == 0), 0, pct)
    return pa.Table.from_arrays(
        [
            doc_ids,
            pa.array(pct.astype(np.int64)),
            pa.array(np.where(corrupt, 0, done).astype(np.int64)),
            pa.array(np.where(corrupt, 0, total).astype(np.int64)),
        ],
        names=["doc_id", "final_progress", "pages_done", "pages_total"],
    )
