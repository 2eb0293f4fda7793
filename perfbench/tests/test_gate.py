"""Correctness gate: planted faults are caught, and this commit passes.

The fault tests write a committed-output directory in the program's
layout (``part-NNNNN/*.parquet`` plus ``_manifest.jsonl``) straight from
the golden, then break one thing at a time.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from perfbench.golden import TOTALS, Golden
from perfbench.workloads import WORKLOADS, make_corpus

from .helpers import small_run


@pytest.fixture(scope="module")
def golden():
    return Golden(make_corpus(WORKLOADS["partitioned_dups"].scaled(0.02), seed=5))


def commit(out, table: pa.Table, totals: dict) -> str:
    part = os.path.join(out, "part-00000")
    os.makedirs(part)
    pq.write_table(table, os.path.join(part, "0.parquet"))
    with open(os.path.join(out, "_manifest.jsonl"), "w") as f:
        f.write(json.dumps({"partition_id": 0, "status": "done", **totals}) + "\n")
    return str(out)


def edit_row(t: pa.Table, i: int, column: str, fn) -> pa.Table:
    rows = t.to_pylist()
    rows[i][column] = fn(rows[i][column])
    return pa.Table.from_pylist(rows, schema=t.schema)


def media_doc(t: pa.Table) -> int:
    n = pc.list_value_length(t.column("ocr_text")).to_numpy(zero_copy_only=False)
    return int((n >= 2).nonzero()[0][0])


def test_golden_output_passes(golden, tmp_path):
    assert golden.check(commit(tmp_path, golden.table, golden.totals)) == []


def test_dropped_row_is_caught(golden, tmp_path):
    t = golden.table.slice(1)
    assert golden.check(commit(tmp_path, t, golden.totals))


def test_swapped_spans_are_caught(golden, tmp_path):
    i = media_doc(golden.table)
    t = edit_row(golden.table, i, "spans", lambda s: [s[1], s[0], *s[2:]])
    assert golden.check(commit(tmp_path, t, golden.totals))


def test_repeated_doc_is_caught(golden, tmp_path):
    t = pa.concat_tables([golden.table, golden.table.slice(3, 1)])
    problems = golden.check(commit(tmp_path, t, golden.totals))
    assert "repeated doc_id in output" in problems


def test_wrong_media_ref_is_caught(golden, tmp_path):
    i = media_doc(golden.table)

    def rename(spans):
        m = next(s for s in spans if s["kind"] == "media")
        m["media_ref"] = m["media_ref"].replace(".png", "_0.png")
        return spans

    t = edit_row(golden.table, i, "spans", rename)
    assert golden.check(commit(tmp_path, t, golden.totals))


def test_skipped_ocr_is_caught(golden, tmp_path):
    i = media_doc(golden.table)
    t = edit_row(golden.table, i, "ocr_text", lambda o: [""] * len(o))
    assert golden.check(commit(tmp_path, t, golden.totals))


def test_wrong_manifest_totals_are_caught(golden, tmp_path):
    totals = {**golden.totals, "pages": golden.totals["pages"] + 1}
    assert set(totals) == set(TOTALS)
    assert golden.check(commit(tmp_path, golden.table, totals))


@pytest.mark.parametrize("seed", [11, 12])
def test_this_commit_passes(tmp_path, seed):
    res = small_run(tmp_path, "partitioned_dups", seed)[-1]
    assert res["correct"] and res["failed"] == 0
