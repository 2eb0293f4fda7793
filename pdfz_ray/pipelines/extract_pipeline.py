"""Flagship extraction pipeline: read → dedup → extract → OCR → write.

The Ray-Data-native re-expression of the reference's whole system
(SURVEY.md §3.1 trace): the RabbitMQ queue + semaphore + tokio tasks become
the streaming executor's backpressured block scheduling; Redis
status/progress becomes lineage columns + the per-partition manifest; the
per-doc JSON files become one partitioned Parquet dataset.

Exact dedup has one rule, kept in the stream: of each duplicated doc_id
the first copy in (file order, row order) is extracted like any other row,
and every later copy is dropped by its row offset as its file is read.
``scan_duplicates`` picks those offsets from the input files and
``_read_group`` reads a group of files less them. Both entry points run
one chain on input files: one task per group of files (``_group_tasks``)
reads its group in pieces, each from the files of one partition, and runs
the per-batch extract UDF (``_extractor``: extract, OCR of the batch's
media spans in the same call) on each piece:

- ``run_partitioned``, the job path (``python -m pdfz_ray.job``), plans
  once per run: one dup scan gives the offsets to drop and every file's
  row count, and one ``ray.put`` broadcasts the jobs lookup table. It then
  runs the pending partitions in two waves, one Ray Data execution each:
  the first partition alone, then the rest in one execution. A wave's
  files are cut on the driver, from the scan's row counts, into groups of
  about a row target sized by the work, a few per cluster CPU
  (``_task_rows``, ``_file_groups``), each run as one fused
  read → drop → extract → OCR → write task, with no ``read_parquet``
  planning; each group's row carries its files' partition ids and drop
  offsets, so no UDF closes over plan data. The writer writes each piece
  as one file into its partition's temp dir and returns the manifest
  counts, which the driver sums into the manifest and forwards to the
  live metrics actor;
- ``build_extract_pipeline`` on a list of paths is the same chain without
  the writer, every file in partition 0: one dup scan, then one read →
  drop → extract → OCR task per group, cut by the same row target over
  all its files, in pieces of at most ``BATCH_ROWS`` rows, as a lazy
  Dataset. On a caller's documents Dataset (``entry()``'s interleaved
  flat docs) it maps the extract UDF over it as is, without dedup.

Scale notes (the 100 TB design points):
- exact dedup never shuffles payloads and builds nothing per id on the
  driver: a column-pruned id scan of two levels of tasks (one per 32
  files, one per hash bucket) counts ids exactly and returns, per file,
  the row offsets of the later copies (a numpy array each); each read
  task drops its files' offsets with one keep mask, so the first copies
  stream through the same fused task as every other row;
- the jobs table is normalized once on the driver into one Arrow lookup
  table (``jobs_table_to_lookup``), broadcast via ``ray.put`` and read
  back zero-copy per batch, never re-shipped or unpickled into Python
  objects; a batch hashes its own ids, filters the lookup to them
  (``is_in``) and resolves its rows with one ``index_in`` against that
  subset. The filter still scans the whole lookup: about 3-5 ms per
  2,048-row batch at 10^5 jobs rows and 20-45 ms at 10^6, on one core
  (``scripts/stress.py plan``);
- OCR runs in the extract task with a per-worker engine cache, as the
  reference's ``process_page`` OCRs each image in place, so OCR scales
  with the read tasks; a caller with a heavy model can still run
  ``OcrStage`` as its own actor pool over ``extract_batch(...,
  emit_payloads=True)`` output (tests/test_extension.py);
- task size and piece size are separate: an execution's files are cut
  into groups of a row target of its rows over twice the cluster's CPUs
  (at least ``batch_size``, at most ``_MAX_TASK_PIECES`` × ``batch_size``
  rows; a group of several files holds under twice the target), because
  the driver spends 5–17 ms of CPU per Ray Data task (measured), up to
  half of what the kernels of a 2,048-row piece take; a read
  task cuts its group into pieces of at most ``batch_size`` rows, across
  a partition's small files and in slices of a larger file, so its
  memory, kernel calls and written files are bounded by the piece, not by
  the group or the file; a group's partition ids and drop offsets travel in
  its own ``from_items`` row, so what the UDF closes over grows neither
  with the dup count nor with the wave; the tasks of a wave are sized by
  rows, not bytes, so a group of docs far above the median span count is
  heavier than its neighbours;
- the group task's own work is its kernels, so they keep to Arrow and
  numpy: extract computes each output span's position (per kept page its
  text span, then its media spans) instead of sorting, OCR receives its
  payloads through numpy (``to_numpy().tolist()``, not ``to_pylist``),
  and the writer writes each piece whole, dictionary-encoding only the
  columns of few distinct values and keeping statistics only on the
  top-level scalars: the unique ids and texts gain nothing from either
  (``scripts/stress.py kernels`` times the four layers in-process);
- output is committed per input partition (atomic rename + manifest line)
  as soon as its rows are written, so a resumed run skips finished
  partitions exactly and a crash redoes only the uncommitted partitions of
  the running execution; temp dirs belong to one run, so a write task of
  a failed run that outlives its exception writes where no commit looks;
  a run starts at most two executions, whatever its partition count.
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
from ..stages.engines import ocr_task
from ..stages.extract import extract_batch, flatten_output
from ..state.manifest import Manifest, input_identity

log = logging.getLogger(__name__)


# files per scan group task, and scan groups per hash bucket
_FAN_IN = 32


@ray.remote(num_cpus=1)
def _scan_group(paths: list[str], first: int, n_buckets: int):
    """(row count of each of ``paths``, then one (doc_id, pos) table per
    hash bucket). ``pos`` is a row's position: its file's index in the
    scan's input list (``first`` is the first one's) in the high 32 bits,
    its row offset in that file in the low 32, so positions order as
    (file, row); a row's bucket is a process-stable hash of its doc_id
    modulo ``n_buckets``."""
    import pandas as pd
    import pyarrow.parquet as pq

    ids = [pq.ParquetFile(p).read(columns=["doc_id"], use_threads=False) for p in paths]
    rows = [t.num_rows for t in ids]
    n = np.asarray(rows, np.int64)
    file = np.repeat(np.arange(first, first + len(paths), dtype=np.int64), n)
    row = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    tagged = pa.table({
        "doc_id": pa.chunked_array(
            [t.column("doc_id") for t in ids], pa.string()
        ).combine_chunks(),
        "pos": (file << 32) | row,
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
def _count_bucket(*parts: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """(the ids that occur more than once across ``parts`` (one hash
    bucket of every scan group), the positions of every copy of them but
    the first), counted exactly."""
    t = pa.concat_tables(parts)
    per_id = t.group_by("doc_id", use_threads=False).aggregate(
        [("pos", "min"), ("pos", "count")]
    )
    dup_ids = per_id.filter(pc.greater(per_id.column("pos_count"), 1)).column("doc_id")
    # positions are unique, so a row is its id's first copy exactly when
    # its position is the id's least
    first = pc.is_in(t.column("pos"), value_set=per_id.column("pos_min").combine_chunks())
    later = t.filter(pc.invert(first)).column("pos")
    return dup_ids.combine_chunks(), np.asarray(later.to_numpy(), np.int64)


def scan_duplicates(
    paths: list[str],
) -> tuple[pa.Array, dict[str, np.ndarray], dict[str, int]]:
    """(dup_ids, per file holding a later copy of one: the sorted row
    offsets of those copies, per file: its row count) via a distributed
    narrow scan. A copy is later when an earlier copy of its doc_id comes
    before it in (``paths`` order, row order): dropping the offsets
    keeps exactly the first copy of each id.

    One group task per ``_FAN_IN`` files reads only their doc_id columns,
    tags each row with its position and splits the (doc_id, pos) rows into
    hash buckets, about one bucket per ``_FAN_IN`` groups (32 files: one
    group, one bucket). One task per bucket counts its ids exactly and
    returns only those occurring more than once, with the positions of
    their later copies. The driver receives each file's row count, the
    dup ids and those positions as arrays, and only splits the sorted
    positions by file: nothing per id becomes a Python object, and no file
    is read on the driver. The bucket decides only where an id is counted,
    so a hash collision changes no result. Raw tasks, because this is a
    two-level reduction of column-pruned reads that the Dataset API would
    express as a global shuffle (a Dataset string groupby cost 10× more,
    measured).
    """
    groups = [paths[lo : lo + _FAN_IN] for lo in range(0, len(paths), _FAN_IN)]
    n_buckets = -(-len(groups) // _FAN_IN)
    refs = [
        _scan_group.options(num_returns=1 + n_buckets).remote(g, k * _FAN_IN, n_buckets)
        for k, g in enumerate(groups)
    ]
    dups = ray.get([
        _count_bucket.remote(*(r[1 + b] for r in refs)) for b in range(n_buckets)
    ])
    rows = dict(zip(paths, (n for r in ray.get([r[0] for r in refs]) for n in r)))
    dup_ids = pa.chunked_array([d for d, _ in dups], pa.string()).combine_chunks()
    later = np.sort(np.concatenate([p for _, p in dups] or [np.zeros(0, np.int64)]))
    cuts = np.flatnonzero(np.diff(later >> 32)) + 1
    drop = {paths[f[0] >> 32]: f & 0xFFFFFFFF for f in np.split(later, cuts) if len(f)}
    return dup_ids, drop, rows


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


# a write task's row per partition it wrote: the manifest's lineage counts
_COUNTS = pa.schema(
    (name, pa.int64())
    for name in ("pid", "docs", "docs_failed", "pages", "decode_failures", "empty_pages")
)


# the most rows per extract call and per written piece: the batch size of
# ``build_extract_pipeline`` and the default of ``run_partitioned`` and of
# the job CLI's ``--batch-size``
BATCH_ROWS = 2048


def _extractor(jobs: pa.Table | None, ocr: bool, ocr_engine: str, ocr_model: str | None):
    """Extract UDF of both entry points, built once per run. ``jobs`` (None
    for no jobs) is normalized into its Arrow lookup
    (``jobs_table_to_lookup``) and broadcast with one ``ray.put`` here,
    then read back zero-copy per batch. With ``ocr`` the batch's media
    payloads are emitted and OCR'd in the same call by ``ocr_task`` (the
    engine cached per worker). It counts nothing: the job path's lineage
    counts come from its write tasks (``_COUNTS`` rows)."""
    lookup = jobs_table_to_lookup(jobs)
    jobs_ref = None if lookup is None else ray.put(lookup)

    def extract(batch: pa.Table) -> pa.Table:
        lookup = ray.get(jobs_ref) if jobs_ref is not None else None
        out = extract_batch(batch, lookup, emit_payloads=ocr)
        return ocr_task(out, engine=ocr_engine, model=ocr_model) if ocr else out

    return extract


def build_extract_pipeline(
    docs: "list[str] | ray.data.Dataset",
    jobs: pa.Table | None = None,
    *,
    ocr: bool = True,
    ocr_engine: str = "tesseract",
    ocr_model: str | None = None,
) -> "ray.data.Dataset":
    """Documents → extraction output Dataset (lazy, streaming): extract →
    OCR in one UDF (``_extractor``). ``jobs``: the jobs table (None for no
    jobs), broadcast once as its Arrow lookup.

    ``docs`` as a list of parquet paths gets exact dedup: of each
    duplicated doc_id only the first copy in (file order — the order of
    ``docs``, not lexicographic — then row order) is extracted. This is
    the job path's chain without its writer: one ``scan_duplicates``, then
    one task per group of files cut at the row target of all of them
    (``_task_rows``, ``_group_tasks``, every file in partition 0), read in
    pieces of at most ``BATCH_ROWS`` rows. ``docs`` as a Dataset of
    documents (``doc_id``, ``spans``) is extracted as is, in batches of
    ``BATCH_ROWS`` rows.
    Output rows have the extraction schema only. An empty list of paths
    raises ``ValueError``.
    """
    if not isinstance(docs, ray.data.Dataset) and not docs:
        raise ValueError("build_extract_pipeline: docs is an empty list of paths")
    extract = _extractor(jobs, ocr, ocr_engine, ocr_model)
    if isinstance(docs, ray.data.Dataset):
        return docs.map_batches(extract, batch_format="pyarrow", batch_size=BATCH_ROWS)
    _, drop, rows = scan_duplicates(docs)
    target = _task_rows(sum(rows[f] for f in docs), BATCH_ROWS)
    return _group_tasks(
        _file_groups(docs, rows, target), dict.fromkeys(docs, 0), drop, BATCH_ROWS,
        lambda _, piece: extract(piece),
    )


# the output columns a writer dictionary-encodes (few distinct values
# each; a dictionary over the unique ids or texts only costs time and
# bytes), and those it keeps statistics for (the top-level scalars: a
# reader can prune on them, none prunes on a nested leaf)
_DICT_COLUMNS = [
    "spans.list.element.kind", "spans.list.element.offset",
    "status", "pages", "decode_failures", "empty_pages",
]
_STATS_COLUMNS = ["doc_id", "status", "pages", "decode_failures", "empty_pages"]


def _partition_writer(manifest: Manifest):
    """Writer of a run: ``write(pid, part)`` writes ``part``, extraction
    output whose rows all come from partition ``pid``'s files (a piece of
    ``_read_group``), as one parquet file into that partition's temp dir
    of ``manifest``'s run (``Manifest.temp_dir``), and returns its one
    ``_COUNTS`` row. It closes over ``manifest``, whose size is fixed.

    A file's name is the md5 of the piece's doc_ids (a null id keyed as
    ""), so a retried task overwrites the file of its failed attempt
    instead of adding a copy, and the counts it returns hold for the files
    left; two pieces of one partition never share a name, since a
    partition holds each id once. Only the columns of ``_DICT_COLUMNS``
    are dictionary-encoded and only those of ``_STATS_COLUMNS`` get
    statistics.
    """
    import hashlib

    import pyarrow.parquet as pq

    def write(pid: int, part: pa.Table) -> pa.Table:
        ids = pc.fill_null(part.column("doc_id"), "").to_numpy().tolist()
        name = hashlib.md5("\n".join(ids).encode()).hexdigest()
        pq.write_table(
            part, os.path.join(manifest.temp_dir(pid), f"{name}.parquet"),
            use_dictionary=_DICT_COLUMNS, write_statistics=_STATS_COLUMNS,
        )
        return pa.Table.from_pylist([{"pid": pid, **_metrics_of(part)}], schema=_COUNTS)

    return write


# the input columns the extract kernel reads
_READ_COLUMNS = ["doc_id", "spans"]


# the largest row target of a group task, in ``batch_size`` pieces; a
# group of several files holds under twice its target, so this bounds what
# a retry of a task redoes and how long its partitions wait for their
# commit, a single larger file excepted
_MAX_TASK_PIECES = 16


def _task_rows(rows: int, batch_size: int) -> int:
    """The row target of the group tasks of one execution over ``rows``
    input rows: ``rows`` over twice the cluster's CPUs
    (``ray.cluster_resources``), so an execution runs a few tasks per CPU
    and the driver's cost per Ray Data task (5–17 ms of CPU, measured)
    is paid per share of the work, not per ``batch_size`` rows; at least
    ``batch_size`` and at most ``_MAX_TASK_PIECES`` × ``batch_size``
    rows. A group of several files holds under twice the target
    (``_file_groups``)."""
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    return min(max(-(-rows // (2 * cpus)), batch_size), _MAX_TASK_PIECES * batch_size)


def _file_groups(
    files: list[str], file_rows: dict[str, int], target: int
) -> list[list[str]]:
    """``files`` cut, in order, into consecutive groups at the multiples of
    ``target`` rows (``file_rows``: each file's row count, from the dup
    scan, so no footer is read): a file joins the group of the last
    multiple its middle row lies past, so each cut falls at the file
    boundary nearest its multiple, and an empty file joins the group
    before it. Packing whole files greedily up to ``target`` would
    overshoot: three files of 2,000 rows at a target of 3,000 make three
    groups, this cut two. The middle rows of a group's non-empty files lie
    less than ``target`` rows apart, so a group of two or more non-empty
    files holds under twice ``target`` rows, and a file of at least that
    many shares its group with empty files only."""
    groups: list[list[str]] = []
    start = last = 0
    for f in files:
        n = file_rows[f]
        k = (2 * start + n) // (2 * target)
        if groups and (k == last or not n):
            groups[-1].append(f)
        else:
            groups.append([f])
            last = k
        start += n
    return groups


def _read_group(
    files: list[str], pids: list[int], drops: list[np.ndarray], batch_size: int
):
    """The rows of ``files`` (``doc_id`` and ``spans``) less the row offsets
    in ``drops`` (one sorted array per file, in ``files`` order, from
    ``scan_duplicates``), as ``(pid, piece)`` pairs: ``pids`` holds each
    file's partition id, and a piece holds the rows of one run of files of
    equal pid, so no piece holds two partitions' rows; at least one piece
    per run. A run's kept rows are cut, in order and across its files,
    into pieces of ``batch_size`` rows, the last piece holding the rest; a
    file of more than ``batch_size`` rows is read in slices of that many.
    So the kernels, the written files and the task's memory are bounded by
    the piece, however many rows the group holds."""
    import itertools

    import pyarrow.parquet as pq

    def kept(t: pa.Table, offsets: np.ndarray, lo: int) -> pa.Table:
        if len(offsets):
            a, b = np.searchsorted(offsets, [lo, lo + t.num_rows])
            keep = np.ones(t.num_rows, bool)
            keep[offsets[a:b] - lo] = False
            t = t.filter(keep)
        return t

    for pid, run in itertools.groupby(zip(files, pids, drops), key=lambda x: x[1]):
        held: list[pa.Table] = []
        rows, sent = 0, False
        for f, _, offsets in run:
            pf = pq.ParquetFile(f)
            if pf.metadata.num_rows <= batch_size:
                slices = [pf.read(_READ_COLUMNS, use_threads=False)]
            else:
                slices = (
                    pa.Table.from_batches([rb]) for rb in
                    pf.iter_batches(batch_size, columns=_READ_COLUMNS, use_threads=False)
                )
            lo = 0
            for t in slices:
                held.append(kept(t, offsets, lo))
                lo += t.num_rows
                rows += held[-1].num_rows
                if rows >= batch_size:
                    t = pa.concat_tables(held)
                    while t.num_rows >= batch_size:
                        yield pid, t.slice(0, batch_size)
                        t = t.slice(batch_size)
                    held, rows, sent = [t], t.num_rows, True
        if rows or not sent:
            # an empty piece too: a task that yields no table gives Ray a
            # block without a schema
            yield pid, pa.concat_tables(held)


def _group_tasks(
    groups: list[list[str]], pid_of: dict[str, int], drop: dict[str, np.ndarray],
    batch_size: int, fn,
) -> "ray.data.Dataset":
    """One task per group of files (``_file_groups``, cut at the
    execution's row target, ``_task_rows``): ``from_items`` of
    one row per group, one block each, and one ``map_batches`` UDF,
    ``group_task``, that reads its group less its files' dropped row
    offsets (``_read_group``: pieces of at most ``batch_size`` rows, each
    from one partition's files) and yields ``fn(pid, piece)`` of each
    piece. A group's row carries its ``files`` beside their partition ids
    (``pid``, from ``pid_of``) and ``drop`` offsets (from ``drop``, per
    file; empty for a file ``drop`` does not list), so the plan data
    travels with its group and the UDF closes over nothing that grows with
    the data. There is no ``read_parquet``: its planning per execution
    (file stats, footer fetch tasks, encoding-ratio sampling tasks) and its
    unfused read task per file cost more than the kernels on a small wave
    (measured). The UDF takes whole blocks (``batch_size=None``), so Ray
    bundles no two groups into one task."""

    def group_task(group: pa.Table):
        (files,) = group.column("files").to_pylist()
        (pids,) = group.column("pid").to_pylist()
        (drops,) = group.column("drop").to_pylist()
        drops = [np.asarray(d, np.int64) for d in drops]
        for pid, piece in _read_group(files, pids, drops, batch_size):
            yield fn(pid, piece)

    none = np.zeros(0, np.int64)
    rows = [
        {"files": g, "pid": [pid_of[f] for f in g], "drop": [drop.get(f, none) for f in g]}
        for g in groups
    ]
    return ray.data.from_items(rows, override_num_blocks=len(groups)).map_batches(
        group_task, batch_format="pyarrow", batch_size=None
    )


def run_partitioned(
    input_paths: list[str],
    out_dir: str,
    jobs: pa.Table | None = None,
    *,
    partition_size: int = 8,
    resume: bool = True,
    ocr: bool = True,
    ocr_engine: str = "tesseract",
    ocr_model: str | None = None,
    batch_size: int = BATCH_ROWS,
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

    The plan is made once per run: one ``scan_duplicates`` (the row
    offsets of the later copies of each duplicated doc_id, and every
    file's row count) and one broadcast of the jobs lookup. A duplicated
    id is thus written by the partition of its first copy's file, through
    its normal writer. Pending partitions then run in two waves, one Ray
    Data execution each (``_group_tasks``): wave 0 is the first pending
    partition alone, so the first commit comes after one partition's work;
    wave 1 is every other pending partition, so the executor's start-up is
    paid twice per run whatever the partition count. A wave's files are
    cut, from the scan's row counts (no footer is read), into groups at a
    row target of the rows it reads over twice the cluster's CPUs, clamped
    to ``batch_size`` .. ``_MAX_TASK_PIECES`` × ``batch_size``
    (``_task_rows``, ``_file_groups``: a group of several files holds
    under twice the target), and each group is one task:
    pyarrow read less the files' later copies (``_read_group``, the files'
    partition ids and offsets carried in the group's row, in pieces of at
    most ``batch_size`` rows of one partition each) → extract → OCR →
    ``_partition_writer``, which writes each piece as one file and returns
    its counts. A partition commits once its docs reach the expected count
    (its files' rows less their later copies, both from the scan), so the
    partitions of wave 1 still commit one by one as their groups finish,
    and one holding only later copies commits at once, empty, and its
    files are not read. A crash redoes the uncommitted partitions of the
    running execution, and nothing committed. Each run writes into temp dirs of its own
    (``Manifest.temp_dir``), and its ``begin`` removes those of every
    other run. So after an exception raised on the driver while a wave runs
    (a failed commit, say), a task of that execution still running (until
    the caller releases the exception, which shuts the execution down)
    writes into its own run's dir, which no commit renames, or fails on a
    removed one, and a resume in the same process sees none of its writes.

    Manifest rows: the partition's counts (``docs``, ``docs_failed``,
    ``pages``, ``decode_failures``, ``empty_pages``), ``wave`` (0 for the
    first partition run, 1 for the rest), ``wall_s`` (the wave's wall time
    up to this partition's commit) and ``files_md5`` (the fingerprint of
    the (path, size, mtime) of every input file up to the partition's last
    one, which a resume must match). Each wave logs one DEBUG record on
    the ``pdfz_ray`` logger: its partitions, files, later copies dropped,
    group tasks and their row target, and wall time. OCR runs in the
    extract task with a per-worker engine cache. ``metrics``: the name of a live
    ``MetricsActor`` (state/metrics.py), pollable mid-run with
    ``live_progress`` (the reference wrote per-page progress to Redis,
    G2): the ``partitions_total`` gauge, sent with a reset of what an
    earlier run on the same actor counted, and the ``partitions_done`` and
    five lineage counters, sent by the driver as one fire-and-forget call
    per block of count rows it pulls. They add up the same rows as this
    run's manifest rows, once each however often Ray retried a task, plus
    those of a partition that never commits. ``batch_size``: the most rows
    per extract call and per written piece, and the least row target of a
    group task.

    The returned ``output_dirs`` and ``output_files`` are those of this
    run's chunking.
    """
    import glob
    import hashlib

    manifest = Manifest(out_dir)
    chunks = [
        (pid, input_paths[lo : lo + partition_size])
        for pid, lo in enumerate(range(0, len(input_paths), partition_size))
    ]
    # fingerprint each partition by the identity of every input file up to
    # its last one, chained: fp[p] = md5(fp[p-1], identities of p's files).
    # A manifest 'done' entry is honored only if it still matches — a
    # different --partition-size or input set must not skip pids that now
    # cover different chunks, and a file rewritten in place re-runs its
    # partition and every later one, whose first copies it may now hold
    # (would duplicate/drop documents or keep stale ones). Appended files
    # re-run nothing committed. A row without a fingerprint (an older
    # manifest) or with a path-only one matches no chunking, so its pid
    # re-runs
    fp, chunk_md5 = "", {}
    for pid, files in chunks:
        fp = hashlib.md5("\n".join([fp, *map(input_identity, files)]).encode()).hexdigest()
        chunk_md5[pid] = fp
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
        ray.get(metrics_actor.start_run.remote(partitions_total=len(chunks)))
        if done:
            ray.get(metrics_actor.report.remote(partitions_done=len(done)))
    pending = [(pid, files) for pid, files in chunks if pid not in done]
    if pending:
        _, drop, file_rows = scan_duplicates(input_paths)
        extract = _extractor(jobs, ocr, ocr_engine, ocr_model)
        write = _partition_writer(manifest)
        pid_of = {f: pid for pid, fs in chunks for f in fs}

        def task(pid: int, docs: pa.Table) -> pa.Table:
            return write(pid, extract(docs)) if docs.num_rows else _COUNTS.empty_table()

    # wave 0, the first partition alone, keeps the first commit early;
    # wave 1 runs the rest in one execution, so a run pays the executor's
    # start-up at most twice
    for k, wave in enumerate(w for w in (pending[:1], pending[1:]) if w):
        t0 = time.perf_counter()
        files = [f for _, fs in wave for f in fs]
        for pid, _ in wave:
            manifest.begin(pid)
        tmp = {pid for pid, _ in wave}  # the partitions not committed yet
        counts = {pid: dict.fromkeys(_COUNTS.names[1:], 0) for pid in tmp}
        expected = {
            pid: sum(file_rows[f] - len(drop.get(f, ())) for f in fs) for pid, fs in wave
        }

        def settle(pid: int) -> None:
            if pid in tmp and counts[pid]["docs"] == expected[pid]:
                tmp.remove(pid)
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
        groups, target = [], 0
        if tmp:
            # the files of the partitions not settled yet (a settled one's
            # rows are all dropped)
            read = [f for pid, fs in wave if pid in tmp for f in fs]
            target = _task_rows(sum(file_rows[f] for f in read), batch_size)
            groups = _file_groups(read, file_rows, target)
            out = _group_tasks(groups, pid_of, drop, batch_size, task)
            # result bundles are pulled on this thread, not on a prefetch
            # thread as in ``iter_batches``, so no thread keeps pulling
            # during teardown
            for bundle in out.iter_internal_ref_bundles():
                for block in ray.get(bundle.block_refs):
                    if not block.num_rows:
                        continue
                    sums = block.group_by("pid", use_threads=False).aggregate(
                        [(name, "sum") for name in _COUNTS.names[1:]]
                    ).to_pydict()
                    if metrics_actor is not None:
                        metrics_actor.report.remote(**{
                            name: sum(sums[f"{name}_sum"]) for name in _COUNTS.names[1:]
                        })
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
            "wave %d: partitions %s, %d files, %d later copies dropped, "
            "%d group tasks of a %d-row target, %.3f s",
            k, [pid for pid, _ in wave], len(files),
            sum(len(drop.get(f, ())) for f in files), len(groups), target,
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
