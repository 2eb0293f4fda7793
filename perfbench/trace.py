"""Per-layer measurement from outside the program, in two views.

1. ``Tracer``: wrappers installed, only during traced jobs, on the
   driver-side calls that ``run_partitioned`` makes into
   ``pipelines.extract_pipeline``, ``jobs`` and ``state.manifest``. Each
   call becomes a span (name, start, end) held in memory, plus counts read
   off its arguments and result. A target that has been renamed or
   removed is skipped and listed, never fatal.
2. ``inprocess_pass``: the same files and batch size with no Ray, timing
   the parquet read, ``stages.extract.extract_batch``,
   ``stages.engines.ocr_task`` and the parquet write.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import platform
import shutil
import subprocess
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# (module, attribute path, span name)
TARGETS = [
    ("pdfz_ray.pipelines.extract_pipeline", "scan_duplicates", "dedup.scan"),
    ("pdfz_ray.pipelines.extract_pipeline", "_winner_rows", "dedup.winners"),
    ("pdfz_ray.pipelines.extract_pipeline", "jobs_table_to_lookup", "jobs.lookup"),
    ("pdfz_ray.pipelines.extract_pipeline", "build_extract_pipeline", "partition.plan"),
    ("pdfz_ray.state.manifest", "Manifest.completed", "manifest.completed"),
    ("pdfz_ray.state.manifest", "Manifest.begin", "partition.begin"),
    ("pdfz_ray.state.manifest", "Manifest.commit", "manifest.commit"),
]


class Span:
    __slots__ = ("name", "start", "end", "args", "result")

    def __init__(self, name, start, end, args, result):
        self.name, self.start, self.end = name, start, end
        self.args, self.result = args, result

    @property
    def s(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with tracer.active(): ...``; spans of the calls made
    inside are appended to ``tracer.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._patches = []
        for mod_name, path, span in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.skipped.append(f"{mod_name}.{path}")
                continue
            if not callable(orig):
                self.skipped.append(f"{mod_name}.{path}")
                continue
            self._patches.append((owner, attr, orig, self._wrap(orig, span)))

    def _wrap(self, fn, name):
        spans = self.spans

        def traced(*args, **kw):
            t0 = time.perf_counter()
            res = fn(*args, **kw)
            spans.append(Span(name, t0, time.perf_counter(), args, res))
            return res

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def active(self):
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, orig, _wrapped in self._patches:
                setattr(owner, attr, orig)

    def take(self) -> list[Span]:
        out, self.spans[:] = list(self.spans), []
        return out


def _own_s(outer: Span, spans: list[Span]) -> float:
    """``outer``'s time less that of the traced calls made directly inside
    it, so no call is counted under two layers."""
    inner, reach = 0.0, outer.start
    for s in sorted(spans, key=lambda s: s.start):
        if s is not outer and s.start >= reach and s.end <= outer.end:
            inner += s.s
            reach = s.end
    return outer.s - inner


def job_layers(spans: list[Span], later_files: set[str]) -> dict:
    """Per-layer figures of one fresh job from its driver-side spans.

    ``later_files``: input files holding a row that dedup must drop (a
    later occurrence of a doc_id); used for ``dedup.rescan_useful_ratio``.
    """

    def of(name):
        return [s for s in spans if s.name == name]

    scans = of("dedup.scan")
    dup_ids = len(scans[0].result[0]) if scans else 0
    rescanned = set(scans[0].result[1]) if scans else set()
    begins = {s.args[1]: s.start for s in of("partition.begin")}
    commits = of("manifest.commit")
    lookups = of("jobs.lookup")
    return {
        "jobs.lookup_s": sum(s.s for s in lookups),
        "jobs.lookup_calls": len(lookups),
        "jobs.rows": lookups[0].args[0].num_rows if lookups and lookups[0].args[0] is not None else 0,
        "dedup.scan_s": sum(s.s for s in scans),
        "dedup.scan_calls": len(scans),
        "dedup.dup_ids": dup_ids,
        "dedup.rescan_files": len(rescanned),
        "dedup.rescan_useful_ratio": (
            len(rescanned & later_files) / len(rescanned) if rescanned else 0.0
        ),
        "dedup.winners_s": sum(s.s for s in of("dedup.winners")),
        "dedup.winner_rows": sum(s.result.num_rows for s in of("dedup.winners")),
        "manifest.completed_s": sum(s.s for s in of("manifest.completed")),
        "manifest.commit_s": sum(s.s for s in commits),
        "manifest.commits": len(commits),
        "partition.count": len(begins),
        "partition.plan_s": sum(_own_s(s, spans) for s in of("partition.plan")),
        "partition.exec_s": sum(c.end - begins[c.args[1]] for c in commits if c.args[1] in begins),
    }


def inprocess_pass(files: list[str], jobs_path: str, batch_size: int, out_dir: str) -> dict:
    """Read → extract → OCR → write over ``files`` in this process, no Ray."""
    from pdfz_ray.jobs import jobs_table_to_lookup
    from pdfz_ray.stages.engines import ocr_task
    from pdfz_ray.stages.extract import extract_batch

    lookup = jobs_table_to_lookup(pq.read_table(jobs_path))
    os.makedirs(out_dir, exist_ok=True)
    t = dict.fromkeys(("read", "extract", "ocr", "write"), 0.0)
    rows = spans = pages = failed = payloads = 0
    for i, path in enumerate(files):
        t0 = time.perf_counter()
        table = pq.read_table(path)
        t["read"] += time.perf_counter() - t0
        rows += table.num_rows
        spans += pc.sum(pc.list_value_length(table.column("spans"))).as_py() or 0
        outs = []
        for lo in range(0, table.num_rows, batch_size):
            batch = table.slice(lo, batch_size)
            t0 = time.perf_counter()
            out = extract_batch(batch, lookup, emit_payloads=True)
            t1 = time.perf_counter()
            payloads += len(out.column("media_payloads").combine_chunks().flatten())
            out = ocr_task(out)
            t["extract"] += t1 - t0
            t["ocr"] += time.perf_counter() - t1
            outs.append(out)
        out = pa.concat_tables(outs)
        pages += pc.sum(out.column("pages")).as_py() or 0
        failed += pc.sum(pc.equal(out.column("status"), "failed").cast(pa.int64())).as_py() or 0
        t0 = time.perf_counter()
        pq.write_table(out, os.path.join(out_dir, f"{i:03d}.parquet"))
        t["write"] += time.perf_counter() - t0
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "sources.read_s": t["read"],
        "sources.rows": rows,
        "sources.bytes": sum(os.path.getsize(f) for f in files),
        "extract.kernel_s": t["extract"],
        "extract.spans_in": spans,
        "extract.ns_per_span": t["extract"] / spans * 1e9 if spans else 0.0,
        "extract.pages_out": pages,
        "extract.docs_failed": failed,
        "ocr.s": t["ocr"],
        "ocr.payloads": payloads,
        "ocr.us_per_payload": t["ocr"] / payloads * 1e6 if payloads else 0.0,
        "write.s": t["write"],
        "write.bytes": written,
        "ray.inprocess_s": sum(t.values()),
    }


def host_facts() -> dict:
    """Host facts recorded with every traced run."""
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):  # calibration burn: fixed pure-Python work
        acc += i * i % 7
    calib_ms = (time.perf_counter() - t0) * 1e3
    import ray

    return {
        "vcpus": os.cpu_count() or 0,
        "nproc": nproc,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", ""),
        "calib_burn_ms": calib_ms,
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "python": platform.python_version(),
    }
