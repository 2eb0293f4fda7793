"""Golden + property tests: vectorized extract_batch ≡ pure-Python oracle."""

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfz_ray.corpus import make_documents, make_jobs
from pdfz_ray.jobs import jobs_table_to_lookup, validate_engine
from pdfz_ray.oracle import (
    Job,
    extract_corpus,
    extract_doc,
    flatten_results,
    jobs_table_to_dict,
)
from pdfz_ray.schema import DOCUMENTS_SCHEMA
from pdfz_ray.stages.extract import _job_arrays, extract_batch, flatten_output


def _first_wins(tbl: pa.Table) -> pa.Table:
    seen, keep = set(), []
    for i, d in enumerate(tbl.column("doc_id").to_pylist()):
        if d not in seen:
            seen.add(d)
            keep.append(i)
    return tbl.take(pa.array(keep))


def _assert_matches_oracle(tbl: pa.Table, jobs: pa.Table | None = None):
    oracle = {
        r.doc_id: r for r in extract_corpus(tbl.to_pylist(), jobs_table_to_dict(jobs))
    }
    out = extract_batch(_first_wins(tbl), jobs_table_to_lookup(jobs))
    assert out.num_rows == len(oracle)
    for row in out.to_pylist():
        o = oracle[row["doc_id"]]
        assert row["status"] == o.status, row["doc_id"]
        assert row["spans"] == o.spans, row["doc_id"]
        assert row["pages"] == o.pages
        assert row["decode_failures"] == o.decode_failures
        assert row["empty_pages"] == o.empty_pages


def test_golden_corpus_default_jobs():
    _assert_matches_oracle(make_documents(120, monster_spans=300))


def _span(kind: str, text: str, page: int) -> dict:
    return {"kind": kind, "text": text, "media_ref": "", "offset": page}


def test_golden_corpus_with_window_jobs():
    """The generated corpus under its window jobs, then the edges of the
    kernel's computed span order (per kept page: its text span, then its
    media spans), each equal to the oracle: a page of media spans only
    (listed before their page's text), a page whose media spans all fail
    to decode, a doc windowed out entirely between two docs with media, a
    doc of text only, media on the last page a page_count keeps (with the
    next page's media dropped), and a batch of one span."""
    tbl = make_documents(120, monster_spans=300)
    jobs = make_jobs(120)
    assert jobs_table_to_dict(jobs)  # windowed family present
    _assert_matches_oracle(tbl, jobs)

    edges = pa.Table.from_pylist([
        {"doc_id": "media-only", "spans": [
            _span("media", "img-a", 2), _span("text", "two", 2),
            _span("media", "img-b", 1), _span("media", "img-c", 1),
        ]},
        {"doc_id": "out-of-window", "spans": [
            _span("text", "x", 1), _span("media", "img-x", 1), _span("media", "img-y", 3),
        ]},
        {"doc_id": "all-bad", "spans": [
            _span("text", "one", 1), _span("media", "!bad-1", 1), _span("media", "!bad-2", 1),
            _span("media", "img-d", 2),
        ]},
        {"doc_id": "text-only", "spans": [
            _span("text", "b", 2), _span("text", "a", 1), _span("text", "c", 2),
        ]},
        {"doc_id": "last-kept", "spans": [
            _span("media", "img-3", 3), _span("text", "p2", 2), _span("media", "!bad-2", 2),
            _span("media", "img-2", 2), _span("text", "p1", 1), _span("media", "img-1", 1),
        ]},
    ], schema=DOCUMENTS_SCHEMA)
    edge_jobs = pa.table({
        "doc_id": ["out-of-window", "last-kept"],
        "start_page": pa.array([5, 1], pa.int32()),
        "page_count": pa.array([0, 2], pa.int32()),
    })
    _assert_matches_oracle(edges, edge_jobs)
    for kind in ("text", "media"):
        one = pa.Table.from_pylist(
            [{"doc_id": "one", "spans": [_span(kind, "img-1", 4)]}], schema=DOCUMENTS_SCHEMA
        )
        _assert_matches_oracle(one)


def test_null_doc_id_fails_its_row_only():
    """A null doc_id fails its row like a corrupt one (no spans, zero
    counts) instead of raising, and every other row equals the oracle."""
    tbl = make_documents(5)
    ids = tbl.column("doc_id").to_pylist()
    ids[2] = None
    tbl = tbl.set_column(0, "doc_id", pa.array(ids, pa.string()))
    out = extract_batch(tbl).to_pylist()
    assert out[2] == {
        "doc_id": None, "spans": [], "status": "failed",
        "pages": 0, "decode_failures": 0, "empty_pages": 0,
    }
    assert [r["doc_id"] for r in out] == ids
    _assert_matches_oracle(tbl)


def test_lookup_matches_oracle_dict_on_edge_jobs():
    """The Arrow jobs lookup resolves every edge of a jobs table as the
    oracle's row-loop dict does: a repeated doc_id (last row wins), null
    and 0 starts, a null count, "", null, upper- and mixed-case, unknown
    and dotted-capital-I engines, phantom ids and a missing model column;
    and a table without the optional columns gives every doc its
    defaults. A batch id that repeats resolves to its job at every copy,
    and a null one to the default job."""
    tbl = _first_wins(make_documents(60, monster_spans=40))
    ids = tbl.column("doc_id").to_pylist()
    engines = ["", None, "TESSERACT", "Ollama", "paddle", "İollama", "ollama"]
    jobs = pa.table({
        "doc_id": [ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[0],
                   "ghost-1", ids[6], ids[7], "ghost-2"],
        "start_page": pa.array([3, None, 0, 2, 1, 1, 2, 5, 0, None, 1], pa.int32()),
        "page_count": pa.array([1, 2, None, 0, 1, 1, None, 1, 2, None, 0], pa.int32()),
        "engine": engines + ["tesseract", "TESSERACT", "Ollama", None],
    })
    assert jobs_table_to_dict(jobs)[ids[0]].start_page == 2  # last row wins
    repeated = pa.concat_tables([tbl, tbl.take([0, 6, 20, 0])])
    batch_ids = pa.array([ids[0], None, ids[6], "ghost-2", ids[0], None, ids[20]], pa.string())
    for table in (jobs, jobs.select(["doc_id"])):
        by_id = jobs_table_to_dict(table)
        want = {r.doc_id: r for r in extract_corpus(tbl.to_pylist(), by_id)}
        lookup = jobs_table_to_lookup(table)
        assert lookup.num_rows == len(set(table.column("doc_id").to_pylist()))
        start, count, ok = _job_arrays(batch_ids, lookup)
        jobs_of = [by_id.get(d, Job()) for d in batch_ids.to_pylist()]
        assert start.tolist() == [j.start_page for j in jobs_of]
        assert count.tolist() == [j.page_count for j in jobs_of]
        assert ok.tolist() == [validate_engine(j.engine) for j in jobs_of]
        got = extract_batch(repeated, lookup).to_pylist()
        assert len(got) == len(want) + 4 == repeated.num_rows
        for row in got:
            o = want[row["doc_id"]]
            assert (row["status"], row["spans"], row["pages"]) == (o.status, o.spans, o.pages)
            assert (row["decode_failures"], row["empty_pages"]) == (
                o.decode_failures, o.empty_pages
            )
    failed = {r["doc_id"] for r in extract_batch(tbl, jobs_table_to_lookup(jobs)).to_pylist()
              if r["status"] == "failed"}
    assert {ids[4], ids[5]} <= failed  # "paddle" and "İollama" are unknown


def test_flatten_matches_oracle_flat():
    tbl = make_documents(60, monster_spans=100)
    out = extract_batch(_first_wins(tbl))
    got = flatten_output(out).to_pylist()
    want = flatten_results(extract_corpus(tbl.to_pylist()))
    assert got == want


def test_empty_batch():
    tbl = pa.Table.from_pylist([], schema=DOCUMENTS_SCHEMA)
    out = extract_batch(tbl)
    assert out.num_rows == 0
    assert flatten_output(out).num_rows == 0


def test_all_corrupt_batch():
    tbl = pa.Table.from_pylist(
        [
            {"doc_id": "a-corrupt", "spans": [
                {"kind": "text", "text": "x", "media_ref": "", "offset": 1}]},
            {"doc_id": "b-corrupt", "spans": []},
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    out = extract_batch(tbl)
    assert out.column("status").to_pylist() == ["failed", "failed"]
    assert flatten_output(out).num_rows == 0


span_st = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["text", "media"]),
        "text": st.one_of(
            st.text(max_size=8),
            st.just("!bad"),
            st.just("!badder"),
        ),
        "media_ref": st.just(""),
        "offset": st.integers(min_value=1, max_value=6),
    }
)
doc_st = st.lists(span_st, max_size=25)


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(doc_st, min_size=1, max_size=8),
    start=st.integers(0, 8),
    count=st.integers(0, 8),
)
def test_property_random_docs_match_oracle(docs, start, count):
    rows = [{"doc_id": f"h-{i:03d}", "spans": s} for i, s in enumerate(docs)]
    tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
    job = Job(start_page=start, page_count=count)
    jobs = pa.table({
        "doc_id": [r["doc_id"] for r in rows],
        "start_page": [start] * len(rows),
        "page_count": [count] * len(rows),
    })
    out = extract_batch(tbl, jobs_table_to_lookup(jobs))
    for row in out.to_pylist():
        o = extract_doc(row["doc_id"], rows[int(row["doc_id"][2:])]["spans"], job)
        assert row["spans"] == o.spans
        assert row["status"] == o.status
        assert (row["pages"], row["decode_failures"], row["empty_pages"]) == (
            o.pages,
            o.decode_failures,
            o.empty_pages,
        )


def test_batch_split_invariance():
    """Result is identical however the corpus is batched (blocks are an
    execution detail, SURVEY.md §7.3)."""
    tbl = make_documents(44, monster_spans=64)
    tbl = _first_wins(tbl)
    whole = extract_batch(tbl).to_pylist()
    parts = []
    for lo in range(0, tbl.num_rows, 7):
        parts.extend(extract_batch(tbl.slice(lo, 7)).to_pylist())
    assert whole == parts


def test_wide_row_skew_guard(monkeypatch):
    """A span-heavy batch is chunked internally (identical output), and a
    single monster row still processes alone."""
    import pdfz_ray.stages.extract as ex

    tbl = make_documents(33, monster_spans=500)
    tbl = _first_wins(tbl)
    whole = extract_batch(tbl).to_pylist()
    monkeypatch.setattr(ex, "MAX_SPANS_PER_KERNEL", 700)
    chunked = ex.extract_batch(tbl).to_pylist()
    assert whole == chunked

    monster = pa.Table.from_pylist(
        [
            {
                "doc_id": "huge",
                "spans": [
                    {"kind": "text", "text": f"s{i}", "media_ref": "",
                     "offset": i // 9 + 1}
                    for i in range(5000)
                ],
            }
        ],
        schema=DOCUMENTS_SCHEMA,
    )
    out = ex.extract_batch(monster)
    assert out.num_rows == 1
    assert out.column("pages").to_pylist()[0] == 5000 // 9 + 1
