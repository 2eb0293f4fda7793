"""Flagship extraction pipeline: read → dedup → extract → OCR → write.

The Ray-Data-native re-expression of the reference's whole system
(SURVEY.md §3.1 trace): the RabbitMQ queue + semaphore + tokio tasks become
the streaming executor's backpressured block scheduling; Redis
status/progress becomes lineage columns + the per-partition manifest; the
per-doc JSON files become one partitioned Parquet dataset.

Each entry point builds its own extract chain; the two share the
per-batch extract UDF (``_extractor``: extract, one metrics flush per
batch, the carried ``path`` column) and the driver-side extraction of
the dedup winners (``_extract_winners``):

- ``run_partitioned``, the job path (``python -m pdfz_ray.job``), plans
  once per run: one dup scan assigns each duplicated doc_id an owner
  partition and gives every file's row count, and one ``ray.put``
  broadcasts the jobs lookup table. It then runs the pending partitions in
  doubling waves (1, 2, 4, … partitions), one execution per wave
  (``_wave_chain``): the wave's files, cut on the driver into groups of
  about ``batch_size`` rows from the scan's row counts
  (``_file_groups``), each run as one fused read → drop-dups → extract →
  OCR → write task, with no ``read_parquet`` planning; the writer splits
  each batch by partition into the partitions' temp dirs and returns the
  manifest counts, and each wave's owned dedup winners are extracted on
  the driver and written beside that output as ``winners.parquet``, so
  they share the partition's atomic commit and never pass through a
  ``Dataset.union``;
- ``build_extract_pipeline`` returns a lazy Dataset: extract → OCR (as
  tasks, or in an actor pool) with the winner rows unioned into the
  stream.

Both plan exact dedup the same way, from the files they read:
``scan_duplicates`` over the input files, then ``_winner_rows`` for the
first copy of each duplicated id. ``build_extract_pipeline`` dedups only
when given ``input_files``; without them it extracts every row.

Scale notes (the 100 TB design points):
- exact dedup never shuffles payloads: a column-pruned id scan finds the
  (rare) duplicated ids, which are broadcast as a set and dropped from the
  stream by one ``is_in`` filter; their winner rows come from a targeted
  pushdown read. The scan is two levels of tasks (one per 32 files, one
  per hash bucket) that count ids exactly, so the driver receives row
  counts and the duplicated ids only — no hash array, no file re-read;
- the jobs table is normalized once on the driver into one Arrow lookup
  table (``jobs_table_to_lookup``), broadcast via ``ray.put`` and read
  back zero-copy per batch, never re-shipped or unpickled into Python
  objects; a batch resolves its rows with one ``index_in``. Each batch
  hashes the whole lookup's doc_ids anew: about 15 ms per 2,048-row batch
  at 10^5 jobs rows and 0.25 s at 10^6, on one core
  (``scripts/stress.py plan``);
- ``build_extract_pipeline``'s OCR stage can run as an actor pool sized
  independently of the parse stage so a slow model can't idle the cheap
  extract tasks (the reference's shared single Ollama is exactly this
  bottleneck, docker-compose.yml:86-98); the job path runs OCR in the
  extract task with a per-worker engine cache;
- a job-path task reads a group of files of at most ``batch_size`` rows
  in total, or one larger file in slices of ``batch_size`` rows, so its
  memory is bounded by the batch, not by the file; the tasks of a wave
  are sized by rows, not bytes, so a group of docs far above the median
  span count is heavier than its neighbours (``skew_threshold`` routes
  such docs to a second stage);
- output is committed per input partition (atomic rename + manifest line)
  as soon as its rows are written, so a resumed run skips finished
  partitions exactly and a crash loses at most one wave.
"""

from __future__ import annotations

import logging
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..jobs import jobs_table_to_lookup
from ..oracle import Job
from ..stages.engines import OcrStage, ocr_task
from ..stages.extract import extract_batch, flatten_output
from ..state.manifest import Manifest

log = logging.getLogger(__name__)


def dedup_within_batch(batch: pa.Table) -> pa.Table:
    """First-wins doc_id dedup inside one batch (vectorized pre-pass)."""
    import pandas as pd

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    dup = pd.Index(ids).duplicated(keep="first")
    if not dup.any():
        return batch
    return batch.filter(pa.array(~dup))


# files per scan group task, and scan groups per hash bucket
_FAN_IN = 32


@ray.remote(num_cpus=1)
def _scan_group(paths: list[str], first: int, n_buckets: int):
    """(row count of each of ``paths``, then one (doc_id, file) table per
    hash bucket). ``file`` is a path's index in the scan's input list
    (``first`` is the first one's); a row's bucket is a process-stable hash
    of its doc_id modulo ``n_buckets``."""
    import pandas as pd
    import pyarrow.parquet as pq

    ids = [pq.ParquetFile(p).read(columns=["doc_id"], use_threads=False) for p in paths]
    rows = [t.num_rows for t in ids]
    tagged = pa.table({
        "doc_id": pa.chunked_array(
            [t.column("doc_id") for t in ids], pa.string()
        ).combine_chunks(),
        "file": np.repeat(np.arange(first, first + len(paths), dtype=np.int32), rows),
    })
    if n_buckets == 1:
        return rows, tagged
    bucket = pd.util.hash_array(
        tagged.column("doc_id").to_numpy(zero_copy_only=False)
    ) % np.uint64(n_buckets)
    order = np.argsort(bucket, kind="stable")
    cuts = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
    tagged = tagged.take(pa.array(order))
    return (rows, *(tagged.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])))


@ray.remote(num_cpus=1)
def _count_bucket(*parts: pa.Table) -> pa.Table:
    """(doc_id, file, rows) of the ids that occur more than once across
    ``parts`` (one hash bucket of every scan group), counted exactly."""
    t = pa.concat_tables(parts)
    per_id = t.group_by("doc_id", use_threads=False).aggregate([("file", "count")])
    dup = per_id.filter(pc.greater(per_id.column("file_count"), 1)).column("doc_id")
    t = t.filter(pc.is_in(t.column("doc_id"), value_set=dup.combine_chunks()))
    return t.group_by(["doc_id", "file"], use_threads=False).aggregate(
        [([], "count_all")]
    )


def scan_duplicates(
    input_files: list[str],
) -> tuple[set, dict[str, dict[str, int]], dict[str, int]]:
    """(dup_ids, per file holding one: {dup id: its rows in that file},
    per file: its row count) via a distributed narrow scan.

    One group task per ``_FAN_IN`` files reads only their doc_id columns,
    tags each row with its file and splits the (doc_id, file) rows into
    hash buckets, about one bucket per ``_FAN_IN`` groups (32 files: one
    group, one bucket). One task per bucket counts its ids exactly and
    returns only those occurring more than once, already counted per file.
    The driver receives each file's row count and those small dup tables:
    no hash array, no id column and no file read reaches it. The bucket
    decides only where an id is counted, so a hash collision changes no
    result. Raw tasks, because this is a two-level reduction of
    column-pruned reads that the Dataset API would express as a global
    shuffle (a Dataset string groupby cost 10× more, measured).
    """
    groups = [input_files[lo : lo + _FAN_IN] for lo in range(0, len(input_files), _FAN_IN)]
    n_buckets = -(-len(groups) // _FAN_IN)
    refs = [
        _scan_group.options(num_returns=1 + n_buckets).remote(g, k * _FAN_IN, n_buckets)
        for k, g in enumerate(groups)
    ]
    dups = ray.get([
        _count_bucket.remote(*(r[1 + b] for r in refs)) for b in range(n_buckets)
    ])
    rows = dict(zip(input_files, (n for r in ray.get([r[0] for r in refs]) for n in r)))
    file_dups: dict[str, dict[str, int]] = {}
    for t in dups:
        cols = (t.column(c).to_pylist() for c in ("doc_id", "file", "count_all"))
        for d, f, c in zip(*cols):
            file_dups.setdefault(input_files[f], {})[d] = c
    dup_ids = {d for held in file_dups.values() for d in held}
    return dup_ids, file_dups, rows


def _winner_rows(input_files: list[str], dup_ids: set) -> pa.Table:
    """One deterministic winner row per duplicated id: the first occurrence
    in (file order, row order) — the J1 'first to arrive' made reproducible.

    A targeted parquet read with predicate pushdown: only row groups
    containing dup ids are materialized.
    """
    import pyarrow.dataset as pads

    tbl = pads.dataset(input_files, format="parquet").to_table(
        filter=pc.field("doc_id").isin(list(dup_ids)), use_threads=True
    )
    return dedup_within_batch(tbl)


def _id_filter(ids: set):
    """A batch → the batch without the rows whose doc_id is in ``ids``:
    one broadcast set (``ray.put`` here, once) and one ``is_in``."""
    ids_ref = ray.put(pa.array(sorted(ids), pa.string()))

    def drop(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch.column("doc_id"), value_set=ray.get(ids_ref)))
        )

    return drop


def _report_metrics(out: pa.Table, metrics: str | None) -> None:
    # one fire-and-forget flush per BATCH (pre-aggregated), never per
    # row/page — SURVEY §4 progress row
    if metrics is not None and out.num_rows:
        from ..state.metrics import metrics_handle

        metrics_handle(metrics).report.remote(
            docs=out.num_rows,
            pages=int(pc.sum(out.column("pages")).as_py() or 0),
            decode_failures=int(pc.sum(out.column("decode_failures")).as_py() or 0),
        )


# a write task's row per partition it wrote: the manifest's lineage counts
_COUNTS = pa.schema(
    (name, pa.int64())
    for name in ("pid", "docs", "docs_failed", "pages", "decode_failures", "empty_pages")
)


def _extractor(jobs_ref: "ray.ObjectRef | None", ocr: bool, metrics: str | None):
    """Extract UDF of both chains. ``jobs_ref`` is ``ray.put`` of the
    Arrow jobs lookup (None for no jobs), made once by the caller and read
    back zero-copy per batch;
    a ``path`` column (each row's source file) rides along. ``metrics``:
    name of a live MetricsActor (state/metrics.py), sent ONE
    fire-and-forget counter call per batch, pollable mid-run via
    ``live_progress`` (the reference polled per-page Redis writes, G2)."""

    def extract(batch: pa.Table) -> pa.Table:
        lookup = ray.get(jobs_ref) if jobs_ref is not None else None
        out = extract_batch(batch, lookup, emit_payloads=ocr)
        _report_metrics(out, metrics)
        if "path" in batch.column_names:
            out = out.append_column("path", batch.column("path"))
        return out

    return extract


def _extract_winners(
    winners: pa.Table, lookup: pa.Table | None, ocr: bool, ocr_engine: str,
    ocr_model: str | None, metrics: str | None,
) -> pa.Table:
    """The dedup winner rows extracted (→ OCR) on the driver; they bypass
    the streamed chain, so their metrics are flushed here."""
    side = extract_batch(winners, lookup, emit_payloads=ocr)
    if ocr:
        side = ocr_task(side, engine=ocr_engine, model=ocr_model)
    _report_metrics(side, metrics)
    return side


def build_extract_pipeline(
    ds: "ray.data.Dataset",
    jobs: pa.Table | dict[str, Job] | None = None,
    *,
    input_files: list[str] | None = None,
    ocr: bool = True,
    ocr_engine: str = "tesseract",
    ocr_model: str | None = None,
    ocr_concurrency=None,
    batch_size: int = 1024,
    metrics: str | None = None,
) -> "ray.data.Dataset":
    """documents Dataset → extraction output Dataset (lazy, streaming):
    extract → OCR, then the dedup winners unioned in.

    Exact dedup runs exactly when ``input_files`` (the files ``ds`` reads,
    in the order that decides which copy arrives first) is given:
    ``scan_duplicates`` finds the duplicated doc_ids, they are dropped from
    the stream, and their winner rows (first occurrence in file order, row
    order) are extracted on the driver and unioned in AFTER the extract
    stage, so the streamed chain stays fused (a pre-extract union costs an
    extra trip of the whole corpus through the object store — measured).
    Without ``input_files`` every row of ``ds`` is extracted.
    ``run_partitioned`` writes the winners as a side file instead of a
    union.

    ``ocr_concurrency``: None (default) runs the engine as *stateless
    tasks* with a per-worker engine cache — right when the engine is cheap
    relative to a CPU reservation (Ray fuses the whole chain into the
    actor pool otherwise, capping pipeline parallelism at the pool size).
    An int/tuple creates a dedicated actor pool — right for heavy models
    that need exclusive resources (GPUs, big weights); size it knowing the
    upstream map fuses in. ``metrics``: see ``_extractor``.
    """
    winners = None
    if input_files is not None:
        dup_ids, file_dups, _ = scan_duplicates(input_files)
        if dup_ids:
            # keep the caller's file order (not lexicographic) so the
            # winner is the true first occurrence in file order
            dup_files = [f for f in input_files if f in file_dups]
            winners = _winner_rows(dup_files, dup_ids)
            # fused into the downstream map chain
            ds = ds.map_batches(_id_filter(dup_ids), batch_format="pyarrow")
    lookup = jobs_table_to_lookup(jobs)
    out = ds.map_batches(
        _extractor(None if lookup is None else ray.put(lookup), ocr, metrics),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if ocr and ocr_concurrency is None:
        out = out.map_batches(
            ocr_task,
            fn_kwargs={"engine": ocr_engine, "model": ocr_model},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    elif ocr:
        out = out.map_batches(
            OcrStage,
            fn_constructor_kwargs={"engine": ocr_engine, "model": ocr_model},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=ocr_concurrency,
            num_cpus=1,
        )
    if winners is None:
        return out
    side = _extract_winners(winners, lookup, ocr, ocr_engine, ocr_model, metrics)
    return out.union(ray.data.from_arrow(side))


def _metrics_of(t: pa.Table) -> dict:
    """Manifest lineage counts of extraction output rows."""
    failed = pc.equal(t.column("status"), "failed").cast(pa.int64())
    return {
        "docs": t.num_rows,
        "docs_failed": int(pc.sum(failed).as_py() or 0),
        "pages": int(pc.sum(t.column("pages")).as_py() or 0),
        "decode_failures": int(pc.sum(t.column("decode_failures")).as_py() or 0),
        "empty_pages": int(pc.sum(t.column("empty_pages")).as_py() or 0),
    }


def _partition_writer(file_pid: dict[str, int], dirs: dict[int, str]):
    """Writer UDF of a wave: splits an extraction batch by partition (its
    ``path`` column through ``file_pid``), writes each part as one parquet
    file into the partition's temp dir (``dirs``), and returns one
    ``_COUNTS`` row per part.

    A file's name is the md5 of the part's source paths and doc_ids, so a
    retried task overwrites the files of its failed attempt instead of
    adding copies, and the counts it returns hold for the files left.
    """
    import hashlib

    import pyarrow.parquet as pq

    paths = pa.array(list(file_pid), pa.string())
    pids = np.array(list(file_pid.values()), np.int64)

    def write(batch: pa.Table) -> pa.Table:
        row_pid = pids[
            pc.index_in(batch.column("path"), value_set=paths).to_numpy()
        ]
        rows = []
        for pid in np.unique(row_pid).tolist():
            part = batch.filter(pa.array(row_pid == pid))
            key = pc.unique(part.column("path")).to_pylist()
            key += part.column("doc_id").to_pylist()
            name = hashlib.md5("\n".join(key).encode()).hexdigest()
            part = part.drop_columns(["path"])
            pq.write_table(part, os.path.join(dirs[pid], f"{name}.parquet"))
            rows.append({"pid": pid, **_metrics_of(part)})
        return pa.Table.from_pylist(rows, schema=_COUNTS)

    return write


# the input columns the extract kernel reads
_READ_COLUMNS = ["doc_id", "spans"]


def _file_groups(
    files: list[str], file_rows: dict[str, int], batch_size: int
) -> list[list[str]]:
    """``files`` cut, in order, into consecutive groups of at most
    ``batch_size`` rows (``file_rows``: each file's row count, from the
    dup scan, so no footer is read); a file of more rows is a group of its
    own."""
    groups: list[list[str]] = []
    rows = 0
    for f in files:
        if groups and rows + file_rows[f] <= batch_size:
            groups[-1].append(f)
            rows += file_rows[f]
        else:
            groups.append([f])
            rows = file_rows[f]
    return groups


def _wave_chain(
    groups: list[list[str]], writer, jobs_ref: "ray.ObjectRef | None", drop, *,
    ocr: bool, ocr_engine: str, ocr_model: str | None, batch_size: int,
    skew_threshold: int | None, monster_batch_size: int, metrics: str | None,
) -> "ray.data.Dataset":
    """A wave's execution: the files of ``groups`` (``_file_groups``) →
    the ``_COUNTS`` rows of what ``writer`` (a ``_partition_writer``)
    wrote.

    The Dataset is ``from_items`` of the groups, one block each, and one
    fused ``map_batches`` UDF, ``read_wave``, which runs one task per
    group: it reads the group's files with pyarrow (``doc_id`` and
    ``spans`` only; a file of more than ``batch_size`` rows, a group of
    its own, in slices of ``batch_size`` rows), adds each row's ``path``
    (the input string ``writer`` keys on), applies ``drop`` (an
    ``_id_filter``, or None) and runs ``write`` on each piece of at most
    ``batch_size`` rows. ``write`` runs extract (``_extractor``) → OCR
    (``ocr_task``, the engine cached per worker) → ``writer``. There is no
    ``read_parquet``: its planning per execution (file stats, footer
    fetch tasks, encoding-ratio sampling tasks) and its unfused read task
    per file cost more than the kernels on a small wave (measured).

    ``skew_threshold`` (size-bucket routing, SURVEY §7.1 M4): the chain
    becomes light stage → streaming re-block → heavy stage. The light
    stage, run by ``read_wave`` on each piece in place of ``write``,
    writes the docs of at most ``skew_threshold`` spans and passes the
    heavier docs on unextracted. The re-block cuts its output into blocks
    of ``monster_batch_size`` rows — a map operator, not an all-to-all
    barrier — so c monsters in one group spread over
    ⌈c / ``monster_batch_size``⌉ heavy tasks (Ray's task granularity is
    the block: ``batch_size`` does not split a block across tasks).
    The heavy stage writes those docs and passes the light stage's count
    rows through: between the stages a row is either a count row (``pid``
    set) or a heavy doc (``pid`` null).
    """
    extract = _extractor(jobs_ref, ocr, metrics)

    def write(docs: pa.Table) -> pa.Table:
        if not docs.num_rows:
            return _COUNTS.empty_table()
        out = extract(docs)
        if ocr:
            out = ocr_task(out, engine=ocr_engine, model=ocr_model)
        return writer(out)

    def light(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.list_value_length(batch.column("spans")), 0)
        big = pc.greater(n, skew_threshold)
        counts = write(batch.filter(pc.invert(big)))
        return pa.concat_tables([batch.filter(big), counts], promote_options="default")

    stage = write if skew_threshold is None else light

    def run(docs: pa.Table) -> pa.Table:
        return stage(docs if drop is None else drop(docs))

    def read_wave(group: pa.Table):
        import pyarrow.parquet as pq

        def tagged(t: pa.Table, path: str) -> pa.Table:
            return t.append_column("path", pa.array([path] * t.num_rows, pa.string()))

        (files,) = group.column("files").to_pylist()
        small = []
        for f in files:
            pf = pq.ParquetFile(f)
            if pf.metadata.num_rows <= batch_size:
                small.append(tagged(pf.read(_READ_COLUMNS, use_threads=False), f))
                continue
            for rb in pf.iter_batches(batch_size, columns=_READ_COLUMNS, use_threads=False):
                yield run(tagged(pa.Table.from_batches([rb]), f))
        if small:
            docs = pa.concat_tables(small)
            for lo in range(0, docs.num_rows, batch_size):
                yield run(docs.slice(lo, batch_size))

    out = ray.data.from_items(
        [{"files": g} for g in groups], override_num_blocks=len(groups)
    ).map_batches(read_wave, batch_format="pyarrow", batch_size=None)
    if skew_threshold is None:
        return out

    def heavy(batch: pa.Table) -> pa.Table:
        is_doc = pc.is_null(batch.column("pid"))
        counts = batch.filter(pc.invert(is_doc)).select(_COUNTS.names)
        docs = batch.filter(is_doc).drop_columns(_COUNTS.names)
        return pa.concat_tables([counts.cast(_COUNTS), write(docs)])

    return (
        out.repartition(target_num_rows_per_block=monster_batch_size)
        .map_batches(heavy, batch_format="pyarrow", batch_size=monster_batch_size)
    )


def _waves(pending: list) -> list[list]:
    """``pending`` cut, in order, into waves of 1, 2, 4, 8, … items."""
    waves, lo = [], 0
    while lo < len(pending):
        waves.append(pending[lo : 2 * lo + 1])
        lo = 2 * lo + 1
    return waves


def run_partitioned(
    input_paths: list[str],
    out_dir: str,
    jobs: pa.Table | dict[str, Job] | None = None,
    *,
    partition_size: int = 8,
    resume: bool = True,
    ocr: bool = True,
    ocr_engine: str = "tesseract",
    ocr_model: str | None = None,
    batch_size: int = 1024,
    skew_threshold: int | None = None,
    monster_batch_size: int = 16,
    metrics: str | None = None,
) -> dict:
    """Checkpoint-resumable run: input files → partitioned parquet output.

    Partition = ``partition_size`` input files, the unit of commit (temp
    dir → rename + manifest append) and of resume: resume skips committed
    partitions (the anti-join of input partitions vs the manifest, SURVEY.md
    §4 resume row), and a run with nothing pending returns before any scan
    or broadcast. A committed partition whose id is past this run's
    chunking (a resume to fewer, larger partitions) is retired first: a
    manifest row withdraws its commit, then its output dir is removed, so
    ``out_dir`` holds each doc once and a later run at the old chunking
    re-runs it.

    The plan is made once per run: one ``scan_duplicates`` (a duplicated
    doc_id is owned by the first partition holding it, which writes its
    winner row; every partition drops it from its stream; and every file's
    row count) and one broadcast of the jobs lookup. Pending partitions
    then run in waves of 1, 2, 4, 8, … partitions, one Ray Data execution
    per wave (``_wave_chain``). The wave's files are cut into groups of at
    most ``batch_size`` rows from the scan's row counts (``_file_groups``;
    no footer is read), and each group is one task: pyarrow read →
    ``is_in`` drop → extract → OCR → ``_partition_writer``, which returns
    the counts of what it wrote (with ``skew_threshold``, the light and
    heavy stages each run extract → OCR → write). The wave's owned winners
    are extracted once on the driver and written as ``winners.parquet``
    into their owners' temp dirs. A partition commits once its docs reach
    the expected count (winners plus input rows less dup-id rows, both
    from the scan), so one holding only duplicates owned elsewhere commits
    at once, empty, and its files are not read. A crash redoes at most
    the running wave, never larger than the work committed before it plus
    one partition.

    Manifest rows: the partition's counts (``docs``, ``docs_failed``,
    ``pages``, ``decode_failures``, ``empty_pages``), ``wave`` (0-based
    index in this run), ``wall_s`` (the wave's wall time up to this
    partition's commit) and ``files_md5``. Each wave logs one DEBUG record
    on the ``pdfz_ray`` logger. OCR runs in the extract task with a
    per-worker engine cache; ``metrics``: see ``_extractor``;
    ``batch_size`` (the most rows per extract call and the target rows per
    read task), ``skew_threshold`` and ``monster_batch_size``: see
    ``_wave_chain``.

    The returned ``output_dirs`` and ``output_files`` are those of this
    run's chunking.
    """
    import glob
    import hashlib

    import pyarrow.parquet as pq

    manifest = Manifest(out_dir)
    chunks = [
        (pid, input_paths[lo : lo + partition_size])
        for pid, lo in enumerate(range(0, len(input_paths), partition_size))
    ]
    # fingerprint each partition's file list: a manifest 'done' entry is
    # honored only if the partition still maps to the same files — resuming
    # with a different --partition-size or input set must not skip pids
    # that now cover different chunks (would duplicate/drop documents); a
    # row without a fingerprint (an older manifest) matches no chunking, so
    # its pid re-runs
    chunk_md5 = {
        pid: hashlib.md5("\n".join(files).encode()).hexdigest()
        for pid, files in chunks
    }
    committed = manifest.completed()
    for pid in sorted(set(committed) - set(chunk_md5)):
        manifest.retire(pid)
        del committed[pid]
    done = set()
    if resume:
        for pid, row in committed.items():
            if row.get("files_md5") == chunk_md5[pid]:
                done.add(pid)
    metrics_actor = None
    if metrics:
        from ..state.metrics import get_metrics_actor

        metrics_actor = get_metrics_actor(metrics)
        ray.get(metrics_actor.set_gauge.remote(partitions_total=len(chunks)))
        if done:
            ray.get(metrics_actor.report.remote(partitions_done=len(done)))
    pending = [(pid, files) for pid, files in chunks if pid not in done]
    if pending:
        _, file_dups, file_rows = scan_duplicates(input_paths)
        owner: dict = {}
        for pid, files in chunks:
            for f in files:
                for d in file_dups.get(f, ()):
                    owner.setdefault(d, pid)
        lookup = jobs_table_to_lookup(jobs)
        jobs_ref = None if lookup is None else ray.put(lookup)
    for k, wave in enumerate(_waves(pending)):
        t0 = time.perf_counter()
        files = [f for _, fs in wave for f in fs]
        tmp = {pid: manifest.begin(pid) for pid, _ in wave}
        drop = set().union(*(file_dups.get(f, ()) for f in files))
        owned = {d for d in drop if owner[d] in tmp}
        counts = {pid: dict.fromkeys(_COUNTS.names[1:], 0) for pid in tmp}
        if owned:
            winners = _winner_rows([f for f in files if f in file_dups], owned)
            side = _extract_winners(winners, lookup, ocr, ocr_engine, ocr_model, metrics)
            by_owner = np.array([owner[d] for d in side.column("doc_id").to_pylist()])
            for pid in np.unique(by_owner).tolist():
                part = side.filter(pa.array(by_owner == pid))
                pq.write_table(part, os.path.join(tmp[pid], "winners.parquet"))
                counts[pid] = _metrics_of(part)
        expected = {
            pid: counts[pid]["docs"] + sum(
                file_rows[f] - sum(file_dups.get(f, {}).values())
                for f in fs
            )
            for pid, fs in wave
        }

        def settle(pid: int) -> None:
            if pid in tmp and counts[pid]["docs"] == expected[pid]:
                del tmp[pid]
                manifest.commit(pid, {
                    **counts[pid],
                    "wave": k,
                    "wall_s": round(time.perf_counter() - t0, 4),
                    "files_md5": chunk_md5[pid],
                })
                if metrics_actor is not None:
                    metrics_actor.report.remote(partitions_done=1)

        for pid, _ in wave:
            settle(pid)
        if tmp:
            # the files of the partitions not settled yet (a settled one's
            # rows are all dropped)
            groups = _file_groups(
                [f for pid, fs in wave if pid in tmp for f in fs], file_rows, batch_size
            )
            out = _wave_chain(
                groups, _partition_writer({f: pid for pid, fs in wave for f in fs}, tmp),
                jobs_ref, _id_filter(drop) if drop else None, ocr=ocr,
                ocr_engine=ocr_engine, ocr_model=ocr_model, batch_size=batch_size,
                skew_threshold=skew_threshold, monster_batch_size=monster_batch_size,
                metrics=metrics,
            )
            # result bundles are pulled on this thread, not on a prefetch
            # thread as in ``iter_batches``: an exception raised while
            # waiting (a signal, say) then shuts the execution down before
            # it propagates, and no thread keeps pulling during teardown
            for bundle in out.iter_internal_ref_bundles():
                for block in ray.get(bundle.block_refs):
                    if not block.num_rows:
                        continue
                    sums = block.group_by("pid", use_threads=False).aggregate(
                        [(name, "sum") for name in _COUNTS.names[1:]]
                    ).to_pydict()
                    for i, pid in enumerate(sums["pid"]):
                        for name in _COUNTS.names[1:]:
                            counts[pid][name] += sums[f"{name}_sum"][i]
                        settle(pid)
        if tmp:
            raise RuntimeError(
                "partitions did not write their planned docs (written/planned): "
                + ", ".join(f"{p}: {counts[p]['docs']}/{expected[p]}" for p in sorted(tmp))
            )
        log.debug(
            "wave %d: partitions %s, %d files, %d dup ids dropped, "
            "%d owned winners, %.3f s",
            k, [pid for pid, _ in wave], len(files), len(drop), len(owned),
            time.perf_counter() - t0,
        )
    dirs = [manifest.partition_dir(pid) for pid, _ in chunks]
    return {
        "out_dir": out_dir,
        "partitions_run": [pid for pid, _ in pending],
        "partitions_skipped": [pid for pid, _ in chunks if pid in done],
        "manifest": manifest.path,
        "output_dirs": dirs,
        "output_files": [
            f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
        ],
    }


# ---------------------------------------------------------------------------
# Ingest: flat text documents → interleaved span documents (the S2 analogue:
# upload/validate/mint-id, api/src/helpers/uploadhelper.ts:16-43). Used by
# entry() to run the flagship over the driver-provided flat documents table.
# ---------------------------------------------------------------------------

WORDS_PER_PAGE = 40
WORDS_PER_SPAN = 15


def interleave_documents(batch: pa.Table) -> pa.Table:
    """Deterministically re-shape flat docs (doc_id:int64, text, ...) into
    the interleaved schema: pages of ~40 words, 1-3 text spans per page,
    a media span every 3rd page (every 9th is a decode failure).

    Vectorized with list-offset arithmetic: the span layout (pages, spans
    per page, media cadence) is flat numpy arrays; span text is gathered
    from one concatenated byte buffer with a single fancy index and the
    utf8/list arrays are assembled directly from offsets — no per-span
    dicts or from_pylist (the round-1 row-loop version sat in the entry()
    hot path)."""
    from ..schema import DOCUMENTS_SCHEMA, SPAN_STRUCT

    ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch.column("text").to_pylist()
    D = len(texts)
    if D == 0:
        return pa.Table.from_pylist([], schema=DOCUMENTS_SCHEMA)

    words_per_doc = [(t or "").split() for t in texts]
    n_words = np.fromiter((len(w) for w in words_per_doc), np.int64, D)
    n_all = int(n_words.sum())
    # word byte offsets straight from the space positions of one giant
    # single-space-joined buffer: words contain no 0x20 (split() ate all
    # whitespace, and 0x20 never occurs inside a multi-byte UTF-8 char),
    # so separators are exactly the spaces — no per-word Arrow array
    # two-level join (per-doc, then across non-empty docs) — one C pass
    # each, no flattened word list materialized
    gbytes = np.frombuffer(
        " ".join(" ".join(ws) for ws in words_per_doc if ws).encode(), np.uint8
    )
    seps = np.nonzero(gbytes == 0x20)[0]
    gstart = np.zeros(n_all + 1, np.int64)
    if n_all:
        gstart[1 : len(seps) + 1] = seps + 1
        gstart[n_all] = len(gbytes) + 1  # sentinel: end "separator" + 1
    gend = gstart[1 : n_all + 1] - 1
    doc_word0 = np.zeros(D, np.int64)
    np.cumsum(n_words[:-1], out=doc_word0[1:])

    # page layout (every doc has ≥1 page even when empty)
    P = np.maximum((n_words + WORDS_PER_PAGE - 1) // WORDS_PER_PAGE, 1)
    n_pages = int(P.sum())
    page_doc = np.repeat(np.arange(D), P)
    page_num = (np.arange(n_pages) - np.repeat(np.cumsum(P) - P, P) + 1)
    is_last = page_num == P[page_doc]
    rem = n_words - (P - 1) * WORDS_PER_PAGE
    pw = np.where(is_last, rem[page_doc], WORDS_PER_PAGE)
    t_spans = np.maximum((pw + WORDS_PER_SPAN - 1) // WORDS_PER_SPAN, 1)
    has_media = (ids_np[page_doc] + page_num) % 3 == 0

    # text spans: word ranges → byte ranges → one gather off the buffer
    n_ts = int(t_spans.sum())
    ts_page = np.repeat(np.arange(n_pages), t_spans)
    s_idx = np.arange(n_ts) - np.repeat(np.cumsum(t_spans) - t_spans, t_spans)
    ts_doc = page_doc[ts_page]
    w_lo = (page_num[ts_page] - 1) * WORDS_PER_PAGE + s_idx * WORDS_PER_SPAN
    page_end = (page_num[ts_page] - 1) * WORDS_PER_PAGE + pw[ts_page]
    w_hi = np.minimum(w_lo + WORDS_PER_SPAN, page_end)
    b_lo = gstart[doc_word0[ts_doc] + w_lo]
    # clip the end-word index so empty spans (w_hi == w_lo, masked by the
    # where) never index past the word table
    gend_safe = gend if len(gend) else np.zeros(1, np.int64)
    end_idx = np.minimum(
        doc_word0[ts_doc] + np.maximum(w_hi, 1) - 1, len(gend_safe) - 1
    )
    b_hi = np.where(w_hi > w_lo, gend_safe[end_idx], b_lo)
    L = b_hi - b_lo
    n_bytes = int(L.sum())
    span_starts = np.cumsum(L) - L
    src = (
        b_lo[np.repeat(np.arange(n_ts), L)]
        + np.arange(n_bytes)
        - np.repeat(span_starts, L)
    )
    data = gbytes[src] if n_bytes else np.zeros(0, np.uint8)
    offs = np.zeros(n_ts + 1, np.int32)
    np.cumsum(L, out=offs[1:])
    text_vals = pa.Array.from_buffers(
        pa.utf8(), n_ts, [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(data.tobytes())]
    )

    # media spans (≤1 per page; payload strings are few, built directly)
    mp = np.nonzero(has_media)[0]
    m_doc, m_page = page_doc[mp], page_num[mp]
    m_ids = ids_np[m_doc]
    bad = (m_ids + m_page) % 9 == 0
    payloads = [
        ("!bad-img-" if b else "img-") + f"{i}-{p}"
        for i, p, b in zip(m_ids.tolist(), m_page.tolist(), bad.tolist())
    ]
    mrefs = [f"in-{i}-{p}" for i, p in zip(m_ids.tolist(), m_page.tolist())]
    n_ms = len(mp)

    # interleave: per doc, per page — text spans in order, then the media
    # span. Output positions are computable directly from page-level span
    # counts (exclusive cumsum), so the permutation is one O(n) scatter —
    # no lexsort.
    page_total = t_spans + has_media.astype(np.int64)
    page_base = np.cumsum(page_total) - page_total
    total = n_ts + n_ms
    perm = np.empty(total, np.int64)
    perm[page_base[ts_page] + s_idx] = np.arange(n_ts)
    perm[page_base[mp] + t_spans[mp]] = n_ts + np.arange(n_ms)
    order = pa.array(perm)
    all_page = np.concatenate([page_num[ts_page], m_page])
    all_med = np.concatenate([np.zeros(n_ts, np.int8), np.ones(n_ms, np.int8)])
    text_col = pa.concat_arrays([text_vals, pa.array(payloads, pa.string())]).take(order)
    ref_col = pa.concat_arrays(
        [pa.nulls(n_ts, pa.string()).fill_null(""), pa.array(mrefs, pa.string())]
    ).take(order)
    kind_col = pa.array(np.where(all_med == 1, "media", "text")[perm])
    off_col = pa.array(all_page[perm].astype(np.int32))
    struct = pa.StructArray.from_arrays(
        [kind_col, text_col, ref_col, off_col],
        fields=list(SPAN_STRUCT),
    )
    spans_per_doc = np.bincount(page_doc, weights=page_total, minlength=D).astype(
        np.int64
    )
    list_offs = np.zeros(D + 1, np.int32)
    np.cumsum(spans_per_doc, out=list_offs[1:])
    spans_col = pa.ListArray.from_arrays(pa.array(list_offs), struct)
    doc_ids = pa.array([f"doc-{int(i):08d}" for i in ids_np], pa.string())
    return pa.Table.from_arrays([doc_ids, spans_col], schema=DOCUMENTS_SCHEMA)
