"""Job-parameter handling: normalization, validation, broadcast lookup.

The reference ships job params per document through RabbitMQ
(extractor/src/worker.rs:4-11); here the (small) jobs table is normalized
once on the driver into one Arrow lookup table (``jobs_table_to_lookup``),
broadcast to every extract task via ``ray.put`` (read back zero-copy) and
resolved per batch (``stages.extract._job_arrays``): one ``is_in`` filter
of the lookup to the batch's ids, one ``index_in`` over that subset and
three ``take`` calls — never re-shipped per batch, never shuffled, and no
per-row Python object on either side. The row-loop ``doc_id -> Job`` dict it replaces is the
oracle's (``oracle.jobs_table_to_dict``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .oracle import DEFAULT_ENGINE, VALID_ENGINES


def normalize_model(model: str | None) -> str | None:
    """Append ":latest" when the tag is missing (api/src/server.ts:111-113)."""
    if model and ":" not in model:
        return f"{model}:latest"
    return model


def validate_engine(engine: str) -> bool:
    """Lower-cased membership (engine_handler.rs:24-31). Unknown engines are
    *failed rows* here, not worker panics (queue_handler.rs:51)."""
    return engine.lower() in VALID_ENGINES


def jobs_table_to_lookup(jobs: pa.Table | None) -> pa.Table | None:
    """The broadcastable jobs lookup: one Arrow table with a unique
    ``doc_id`` and its ``start_page`` (int64), ``page_count`` (int64) and
    ``engine_ok`` (bool) columns, or None for no jobs.

    Same semantics as ``oracle.jobs_table_to_dict``: the last row of a
    repeated doc_id wins; a null or 0 ``start_page`` becomes 1, a null
    ``page_count`` 0, a null or ``""`` engine ``DEFAULT_ENGINE``; a missing
    column takes its default. ``engine_ok`` is ``validate_engine`` called
    once per distinct engine string and mapped back, so it matches
    Python's ``str.lower`` exactly (Arrow's ``utf8_lower`` does not, on
    ``İ`` say). ``model`` is not carried: the kernel never reads it.
    """
    if jobs is None or jobs.num_rows == 0:
        return None
    row = pa.array(np.arange(jobs.num_rows))
    last = (
        pa.table({"doc_id": jobs.column("doc_id"), "row": row})
        .group_by("doc_id", use_threads=False)
        .aggregate([("row", "max")])
        .column("row_max")
    )
    if len(last) < jobs.num_rows:
        jobs = jobs.take(last)
    n = jobs.num_rows

    def col(name: str, typ: pa.DataType) -> pa.Array:
        if name in jobs.column_names:
            return jobs.column(name).combine_chunks().cast(typ)
        return pa.nulls(n, typ)

    start = col("start_page", pa.int64())
    start = pc.if_else(pc.fill_null(pc.equal(start, 0), True), 1, start)
    count = pc.fill_null(col("page_count", pa.int64()), 0)
    engine = col("engine", pa.string())
    engine = pc.if_else(pc.fill_null(pc.equal(engine, ""), True), DEFAULT_ENGINE, engine)
    distinct = pc.unique(engine)
    ok = pa.array([validate_engine(e) for e in distinct.to_pylist()], pa.bool_())
    return pa.table({
        "doc_id": col("doc_id", pa.string()),
        "start_page": start,
        "page_count": count,
        "engine_ok": ok.take(pc.index_in(engine, value_set=distinct)),
    })
