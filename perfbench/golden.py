"""Correctness gate: every job's committed output against ``pdfz_ray.oracle``.

The golden is built once per (workload, seed), before any timing:
``oracle.extract_corpus`` over every input row in file order (first
occurrence wins, jobs applied), plus the OCR text recomputed here from the
input payloads with its own md5, not through ``stages.engines``.

A job passes when, per ``doc_id``, the span sequence ``(kind, text,
media_ref, offset)``, ``status``, ``pages``, ``decode_failures``,
``empty_pages`` and ``ocr_text`` all equal the golden; no doc is missing,
extra or repeated; and the manifest totals match.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdfz_ray.oracle import DEFAULT_ENGINE, Job, extract_corpus

from .workloads import SPAN_TYPE, Corpus

GOLDEN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("status", pa.string()),
        ("pages", pa.int64()),
        ("decode_failures", pa.int64()),
        ("empty_pages", pa.int64()),
        ("ocr_text", pa.list_(pa.string())),
    ]
)
TOTALS = ("docs", "docs_failed", "pages", "decode_failures", "empty_pages")


def _ocr(payload: str) -> str:
    # the tesseract stand-in: 'tess:' || md5('tesseract|' || payload)[:12]
    return "tess:" + hashlib.md5(f"{DEFAULT_ENGINE}|{payload}".encode()).hexdigest()[:12]


class Golden:
    """Expected output of one corpus, sorted by doc_id."""

    def __init__(self, corpus: Corpus):
        jobs = {
            r["doc_id"]: Job(
                start_page=r["start_page"],
                page_count=r["page_count"],
                engine=r["engine"],
                model=r["model"] or None,
            )
            for r in corpus.jobs.to_pylist()
        }
        rows = [r for t in corpus.files for r in _rows(t)]
        results = extract_corpus(rows, jobs)
        inputs = {}
        for r in rows:
            inputs.setdefault(r["doc_id"], r["spans"])
        spans = [s for res in results for s in res.spans]
        ocr = [_ocr_texts(res.doc_id, res.spans, inputs[res.doc_id]) for res in results]
        t = pa.Table.from_arrays(
            [
                pa.array([r.doc_id for r in results], pa.string()),
                _lists([len(r.spans) for r in results], pa.StructArray.from_arrays(
                    [
                        pa.array([s["kind"] for s in spans], pa.string()),
                        pa.array([s["text"] for s in spans], pa.string()),
                        pa.array([s["media_ref"] for s in spans], pa.string()),
                        pa.array([s["offset"] for s in spans], pa.int32()),
                    ],
                    fields=list(SPAN_TYPE),
                )),
                pa.array([r.status for r in results], pa.string()),
                pa.array([r.pages for r in results], pa.int64()),
                pa.array([r.decode_failures for r in results], pa.int64()),
                pa.array([r.empty_pages for r in results], pa.int64()),
                _lists([len(x) for x in ocr], pa.array([x for o in ocr for x in o], pa.string())),
            ],
            schema=GOLDEN_SCHEMA,
        )
        self.table = _sorted(t)
        self.totals = {
            "docs": t.num_rows,
            "docs_failed": sum(r.status == "failed" for r in results),
            "pages": sum(r.pages for r in results),
            "decode_failures": sum(r.decode_failures for r in results),
            "empty_pages": sum(r.empty_pages for r in results),
        }
        self.ocr_payloads = sum(len(x) for x in ocr)
        self.spans_in = sum(len(r["spans"]) for r in rows)

    def check(self, out_dir: str) -> list[str]:
        """Problems with the committed output in ``out_dir`` ([] = correct)."""
        files = sorted(glob.glob(os.path.join(out_dir, "part-*", "*.parquet")))
        if not files:
            return ["no committed output files"]
        got = pa.concat_tables(
            [pq.read_table(f).select(GOLDEN_SCHEMA.names) for f in files]
        )
        problems = []
        ids = got.column("doc_id")
        if pc.count_distinct(ids).as_py() != got.num_rows:
            problems.append("repeated doc_id in output")
        got = _sorted(got.cast(GOLDEN_SCHEMA))
        if not got.equals(self.table):
            problems.append(_first_difference(got, self.table))
        totals = manifest_totals(out_dir)
        if totals != self.totals:
            problems.append(f"manifest totals {totals} != golden {self.totals}")
        return problems


def _rows(t: pa.Table) -> list[dict]:
    """``t.to_pylist()`` built from flat columns (several times faster for
    nested span lists)."""
    spans = t.column("spans").combine_chunks()
    flat = spans.flatten()
    offs = spans.offsets.to_numpy()
    offs = (offs - offs[0]).tolist()
    dicts = [
        {"kind": k, "text": x, "media_ref": m, "offset": o}
        for k, x, m, o in zip(
            flat.field("kind").to_pylist(),
            flat.field("text").to_pylist(),
            flat.field("media_ref").to_pylist(),
            flat.field("offset").to_pylist(),
        )
    ]
    ids = t.column("doc_id").to_pylist()
    return [
        {"doc_id": d, "spans": dicts[a:b]} for d, a, b in zip(ids, offs[:-1], offs[1:])
    ]


def _lists(lengths: list[int], values: pa.Array) -> pa.ListArray:
    offs = np.zeros(len(lengths) + 1, np.int32)
    np.cumsum(lengths, out=offs[1:])
    return pa.ListArray.from_arrays(pa.array(offs), values)


def _ocr_texts(doc_id: str, out_spans: list[dict], in_spans: list[dict]) -> list[str]:
    """OCR text per emitted media span: the payload of the i-th media span
    of page p, named ``{doc_id}_{p}_{i}.png`` in the output."""
    by_page: dict[int, list[str]] = {}
    for s in in_spans:
        if s["kind"] == "media":
            by_page.setdefault(int(s["offset"]), []).append(s["text"])
    texts = []
    for s in out_spans:
        if s["kind"] == "media":
            page, i = s["media_ref"][len(doc_id) + 1 : -len(".png")].split("_")
            texts.append(_ocr(by_page[int(page)][int(i)]))
    return texts


def _sorted(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, [("doc_id", "ascending")])).combine_chunks()


def _first_difference(got: pa.Table, want: pa.Table) -> str:
    g_ids = set(got.column("doc_id").to_pylist())
    w_ids = set(want.column("doc_id").to_pylist())
    if g_ids != w_ids:
        missing, extra = sorted(w_ids - g_ids), sorted(g_ids - w_ids)
        return f"{len(missing)} docs missing {missing[:3]}, {len(extra)} extra {extra[:3]}"
    for name in GOLDEN_SCHEMA.names[1:]:
        g, w = got.column(name).to_pylist(), want.column(name).to_pylist()
        bad = [i for i, (a, b) in enumerate(zip(g, w)) if a != b]
        if bad:
            ids = [got.column("doc_id")[i].as_py() for i in bad[:3]]
            return f"column {name} differs on {len(bad)} docs, e.g. {ids}"
    return "output differs from golden"


def manifest_totals(out_dir: str) -> dict:
    totals = dict.fromkeys(TOTALS, 0)
    with open(os.path.join(out_dir, "_manifest.jsonl")) as f:
        for line in f:
            row = json.loads(line)
            for k in TOTALS:
                totals[k] += int(row.get(k, 0))
    return totals


def snapshot(out_dir: str) -> dict[str, tuple[int, int]]:
    """(size, mtime_ns) of every file under ``out_dir``: a resubmission
    that changes no file leaves this equal."""
    snap = {}
    for root, _dirs, names in os.walk(out_dir):
        for n in names:
            p = os.path.join(root, n)
            st = os.stat(p)
            snap[os.path.relpath(p, out_dir)] = (st.st_size, st.st_mtime_ns)
    return snap


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(f) for f in glob.glob(os.path.join(out_dir, "part-*", "*"))
    )
