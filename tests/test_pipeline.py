"""End-to-end flagship pipeline tests on Ray: golden equality, dedup,
OCR in the extract task, checkpoint/resume, partition metrics."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdfz_ray.corpus import make_documents, make_jobs
from pdfz_ray.oracle import extract_corpus, flatten_results, jobs_table_to_dict


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    tbl = make_documents(120, monster_spans=200)
    paths = []
    for i in range(4):
        p = str(d / f"docs-{i}.parquet")
        pq.write_table(tbl.slice(i * 33, 33), p)
        paths.append(p)
    return tbl, paths


def _oracle_flat(tbl, jobs=None):
    return flatten_results(extract_corpus(tbl.to_pylist(), jobs))


def test_pipeline_matches_oracle(ray_session, corpus_files):
    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline
    from pdfz_ray.stages.extract import flatten_output

    tbl, paths = corpus_files
    jobs = make_jobs(120)
    out = build_extract_pipeline(paths, jobs)
    flat = out.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted(
        (tuple(r.values()) for r in flat.take_all()),
        key=lambda t: (t[0], t[1]),
    )
    want = sorted(
        (tuple(r.values()) for r in _oracle_flat(tbl, jobs_table_to_dict(jobs))),
        key=lambda t: (t[0], t[1]),
    )
    assert got == want


def test_pipeline_dedup_exact(ray_session, corpus_files):
    """Exact dedup runs exactly when the documents are given as paths:
    one row per distinct doc_id from them, one per input row from a plain
    read passed as a Dataset."""
    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline

    tbl, paths = corpus_files
    n_unique = len(set(tbl.column("doc_id").to_pylist()))
    n_rows = sum(pq.read_metadata(p).num_rows for p in paths)
    assert n_unique < n_rows
    assert build_extract_pipeline(paths, ocr=False).count() == n_unique
    assert build_extract_pipeline(rd.read_parquet(paths), ocr=False).count() == n_rows


def test_scan_duplicates_counts_rows(ray_session, corpus_files):
    """The dup scan returns every file's row count, equal to its parquet
    footer's, with duplicates present and in its no-duplicates return."""
    from pdfz_ray.pipelines.extract_pipeline import scan_duplicates

    _, paths = corpus_files
    for files in (paths, paths[:1]):
        dup_ids, _, rows = scan_duplicates(files)
        assert (len(dup_ids) > 0) == (files == paths)
        assert rows == {f: pq.read_metadata(f).num_rows for f in files}


@pytest.mark.parametrize("fan_in", [32, 2])
def test_scan_duplicates_matches_brute_force_count(
    ray_session, tmp_path, monkeypatch, fan_in
):
    """The dup scan equals a brute-force count over all files, with
    cross-file duplicates, repeats inside one file and an empty file: the
    duplicated ids as one Arrow array, and per file the row offsets of
    every copy but the first in (file, row) order; at fan-in 2 its 9
    files make 5 group tasks and 3 bucket tasks. It launches exactly
    groups + buckets tasks and reads no file on the driver; with no
    duplicate it returns no dup ids and no offsets."""
    import math
    from collections import Counter

    from pdfz_ray.pipelines import extract_pipeline as ep

    tbl = make_documents(120, monster_spans=200)
    parts = [tbl.slice(i * 17, 17) for i in range(7)]
    parts.insert(2, tbl.slice(0, 0))  # an empty file
    parts.append(pa.concat_tables([tbl.slice(3, 2), tbl.slice(3, 1), tbl.slice(40, 1)]))
    paths = []
    for i, t in enumerate(parts):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(t, paths[-1])

    per_file = {p: Counter(t.column("doc_id").to_pylist()) for p, t in zip(paths, parts)}
    total = sum(per_file.values(), Counter())
    want_ids = {d for d, c in total.items() if c > 1}
    seen, want_drop = set(), {}
    for p, t in zip(paths, parts):
        for row, d in enumerate(t.column("doc_id").to_pylist()):
            if d in seen:
                want_drop.setdefault(p, []).append(row)
            seen.add(d)
    assert want_ids and any(c > 1 for c in per_file[paths[-1]].values())

    launched = []

    class Spy:
        def __init__(self, fn, name, **opts):
            self.fn, self.name = fn, name

        def options(self, **opts):
            return Spy(self.fn.options(**opts), self.name)

        def remote(self, *args):
            launched.append(self.name)
            return self.fn.remote(*args)

    reads = []
    real_read = pq.read_table
    monkeypatch.setattr(pq, "read_table", lambda *a, **k: reads.append(a) or real_read(*a, **k))
    monkeypatch.setattr(ep, "_FAN_IN", fan_in)
    monkeypatch.setattr(ep, "_scan_group", Spy(ep._scan_group, "group"))
    monkeypatch.setattr(ep, "_count_bucket", Spy(ep._count_bucket, "bucket"))

    dup_ids, drop, rows = ep.scan_duplicates(paths)
    assert isinstance(dup_ids, pa.Array)
    assert sorted(dup_ids.to_pylist()) == sorted(want_ids)
    assert {p: offsets.tolist() for p, offsets in drop.items()} == want_drop
    assert rows == {p: t.num_rows for p, t in zip(paths, parts)}
    groups = math.ceil(len(paths) / fan_in)
    buckets = math.ceil(groups / fan_in)
    assert (groups, buckets) == ((1, 1) if fan_in == 32 else (5, 3))
    assert sorted(launched) == ["bucket"] * buckets + ["group"] * groups
    assert reads == []

    launched.clear()
    dup_ids, drop, rows = ep.scan_duplicates(paths[:2])
    assert (len(dup_ids), drop, rows) == (0, {}, {p: 17 for p in paths[:2]})
    assert len(launched) == 2


def _check_partitioned_matches_union(corpus_files, tmp_path, **job_kw):
    """run_partitioned (the job path's fused waves; ``job_kw`` go to it
    alone) is row-identical, less ``path``, to build_extract_pipeline over
    the paths at every partition size, with the jobs table, OCR on and
    cross-partition dups; no side file is written, and each duplicated
    id's row sits in the partition of its first copy's file (and, from
    build_extract_pipeline, carries that file's path).
    build_extract_pipeline runs OCR inside its group tasks: its executed
    operators hold no ``ocr_task`` stage."""
    import pyarrow.dataset as pads

    from pdfz_ray.pipelines.extract_pipeline import (
        build_extract_pipeline,
        run_partitioned,
    )

    tbl, paths = corpus_files
    jobs = make_jobs(120)

    def rows(d):
        t = pads.dataset(d, format="parquet").to_table()
        return sorted(t.to_pylist(), key=lambda r: r["doc_id"])

    d_union = str(tmp_path / "out_union")
    union = build_extract_pipeline(paths, jobs, ocr=True)
    union.write_parquet(d_union)
    # OCR ran inside the group task, as on the job path: no OCR operator
    stats = union.stats()
    assert "MapBatches(group_task)" in stats and "ocr_task" not in stats, stats
    want = rows(d_union)
    assert len(want) == len(set(tbl.column("doc_id").to_pylist()))
    path_of = {r["doc_id"]: r.pop("path") for r in want}

    # first file holding each duplicated id (the corpus's dup tail)
    first_file: dict = {}
    seen_twice = set()
    for i, p in enumerate(paths):
        for d in pq.read_table(p, columns=["doc_id"]).column("doc_id").to_pylist():
            if d in first_file:
                seen_twice.add(d)
            first_file.setdefault(d, i)
    assert seen_twice
    assert {d: path_of[d] for d in seen_twice} == {
        d: paths[first_file[d]] for d in seen_twice
    }
    for size in (1, 2, len(paths)):
        out_dir = str(tmp_path / f"out_part{size}")
        res = run_partitioned(
            paths, out_dir, jobs, partition_size=size, ocr=True, **job_kw
        )
        assert rows(out_dir) == want, size
        assert not [
            d for d in res["output_dirs"]
            if os.path.exists(os.path.join(d, "winners.parquet"))
        ], size
        pid_of = {d: pid for pid, d in enumerate(res["output_dirs"])}
        where = {
            d: pid_of[os.path.dirname(f)]
            for f in res["output_files"]
            for d in pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()
        }
        assert {d: where[d] for d in seen_twice} == {
            d: first_file[d] // size for d in seen_twice
        }, size


def test_first_copy_wins_in_caller_file_order(ray_session, tmp_path, monkeypatch):
    """Copies of a doc_id that differ in their spans: both entry points
    keep the earliest copy in (caller file order, row order) — files
    passed as z, a, m, not lexicographically, with a repeat inside a file
    — and equal the oracle over the rows in that order. The job path runs
    at partition sizes 1, 2 and all files, each also with ``batch_size`` 4
    (each id's first copy and its in-file repeat then sit in different
    slices of one file) and with skew routing on top of that. The driver
    makes no parquet read while either entry point runs: the scan reads in
    its tasks, and the first copies stream like every other row."""
    import pyarrow.dataset as pads

    from pdfz_ray.corpus import make_document
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.pipelines.extract_pipeline import (
        build_extract_pipeline,
        run_partitioned,
    )
    from pdfz_ray.schema import DOCUMENTS_SCHEMA
    from pdfz_ray.stages.extract import flatten_output

    def doc(i, doc_id=None):
        d = make_document(i, monster_spans=50)
        return {**d, "doc_id": doc_id or d["doc_id"]}

    # doc-x: twice in z, then a, then m; doc-y: twice in a, then m
    x, y = "doc-x", "doc-y"
    files = {
        "z": [doc(i) for i in range(6)] + [doc(99, x), doc(6), doc(100, x)],
        "a": [doc(102, x), doc(10), doc(109, y), doc(11), doc(110, y)],
        "m": [doc(111, y), doc(113, x), doc(20)],
    }
    copies = [r for rows in files.values() for r in rows if r["doc_id"] in (x, y)]
    flats = [
        str(_oracle_flat(pa.Table.from_pylist([r], schema=DOCUMENTS_SCHEMA)))
        for r in copies
    ]
    # every copy extracts to different non-empty rows: the winner is visible
    assert len(set(flats)) == len(copies) and "[]" not in flats

    def oracle(names):
        rows = [r for n in names for r in files[n]]
        tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
        return sorted(tuple(r.values()) for r in _oracle_flat(tbl))

    order = ["z", "a", "m"]
    paths = []
    for n in order:
        paths.append(str(tmp_path / f"{n}.parquet"))
        tbl = pa.Table.from_pylist(files[n], schema=DOCUMENTS_SCHEMA)
        pq.write_table(tbl, paths[-1])
    want = oracle(order)
    assert want != oracle(sorted(order))
    # with skew_threshold 5, doc-x's first copy is light and doc-y's heavy
    spans = {r["doc_id"]: len(r["spans"]) for r in (files["z"][6], files["a"][2])}
    assert spans[x] <= 5 < spans[y]

    reads = []

    def spy(name, fn):
        def read(*a, **k):
            reads.append(name)
            return fn(*a, **k)

        return read

    monkeypatch.setattr(pq, "read_table", spy("read_table", pq.read_table))
    monkeypatch.setattr(pq, "ParquetFile", spy("ParquetFile", pq.ParquetFile))
    monkeypatch.setattr(pads, "dataset", spy("dataset", pads.dataset))

    def flat(out):
        return sorted(tuple(r.values()) for r in flatten_output(out).to_pylist())

    out = build_extract_pipeline(paths, ocr=False)
    got = out.map_batches(flatten_output, batch_format="pyarrow").take_all()
    assert reads == []
    assert sorted(tuple(r.values()) for r in got) == want
    variants = (
        {},
        {"batch_size": 4},
        {"batch_size": 4, "skew_threshold": 5},
    )
    monkeypatch.setattr(ep, "_MONSTER_BATCH", 2)
    for size in (1, 2, len(paths)):
        for k, kw in enumerate(variants):
            reads.clear()
            res = run_partitioned(
                paths, str(tmp_path / f"out{size}-{k}"), partition_size=size,
                ocr=False, **kw,
            )
            assert reads == [], (size, kw)
            out = pa.concat_tables([pq.read_table(f) for f in res["output_files"]])
            assert flat(out) == want, (size, kw)


def test_run_partitioned_matches_union_topology(ray_session, corpus_files, tmp_path):
    _check_partitioned_matches_union(corpus_files, tmp_path)


def test_run_partitioned_matches_union_topology_skewed(
    ray_session, corpus_files, tmp_path, monkeypatch
):
    """The same check with size-bucket routing (200-span monsters routed)."""
    from pdfz_ray.pipelines import extract_pipeline as ep

    monkeypatch.setattr(ep, "_MONSTER_BATCH", 4)
    _check_partitioned_matches_union(corpus_files, tmp_path, skew_threshold=100)


def test_routed_wave_is_one_linear_chain(ray_session, tmp_path, monkeypatch):
    """12 monsters contiguous in one file: a routed wave reads once, in
    the fused read UDF that leads the chain (no ``ReadParquet``), has no
    union and no all-to-all repartition (the re-block is a streaming map
    operator), spreads the monsters over ⌈12/2⌉ heavy tasks (one file
    each, beside the light docs' file), and its output is oracle-exact."""
    import re

    import ray.data as rd

    from pdfz_ray.corpus import make_document
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.schema import DOCUMENTS_SCHEMA
    from pdfz_ray.stages.extract import flatten_output

    normal = [make_document(i) for i in range(80) if i % 11 != 9]
    monsters = [make_document(i, monster_spans=300) for i in range(9, 140, 11)]
    assert len(monsters) == 12
    tbl = pa.Table.from_pylist(
        normal[:30] + monsters + normal[30:], schema=DOCUMENTS_SCHEMA
    )
    path = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, path)

    chains = []
    real_chain = ep._wave_chain

    def keep_chain(*a, **k):
        chains.append(real_chain(*a, **k))
        return chains[-1]

    monkeypatch.setattr(ep, "_wave_chain", keep_chain)
    monkeypatch.setattr(ep, "_MONSTER_BATCH", 2)
    out_dir = str(tmp_path / "out")
    res = ep.run_partitioned([path], out_dir, skew_threshold=100)

    flat = rd.read_parquet(res["output_files"]).map_batches(
        flatten_output, batch_format="pyarrow"
    )
    got = sorted(tuple(r.values()) for r in flat.take_all())
    want = sorted(tuple(r.values()) for r in _oracle_flat(tbl))
    assert got == want

    (chain,) = chains
    ops = [
        op
        for fused in re.findall(r"^Operator \d+ (.+?):", chain.stats(), re.M)
        for op in fused.split("->")
    ]
    # FromItems is the input buffer of the wave's file groups, not a task
    assert ops[:2] == ["FromItems", "MapBatches(group_task)"], ops
    assert ops.count("MapBatches(group_task)") == 1, ops
    assert not [op for op in ops if "ReadParquet" in op], ops
    assert not [op for op in ops if "Union" in op], ops
    assert [op for op in ops if "Repartition" in op] == ["StreamingRepartition"], ops
    (part_dir,) = res["output_dirs"]
    assert len(os.listdir(part_dir)) >= 12 // 2 + 1


def test_skew_routing_rejects_unsupported_combinations(
    ray_session, corpus_files, tmp_path
):
    """Skew routing is a job-path option, and OCR has one path, in the
    extract task: build_extract_pipeline takes neither option, and
    run_partitioned no OCR pool size."""
    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import (
        build_extract_pipeline,
        run_partitioned,
    )

    _, paths = corpus_files
    with pytest.raises(TypeError, match="skew_threshold"):
        build_extract_pipeline(rd.read_parquet(paths), skew_threshold=100)
    with pytest.raises(TypeError, match="ocr_concurrency"):
        build_extract_pipeline(paths, ocr_concurrency=2)
    with pytest.raises(TypeError, match="ocr_concurrency"):
        run_partitioned(
            paths, str(tmp_path / "out"), skew_threshold=100, ocr_concurrency=2
        )


def test_resume_of_committed_run_skips_planning(
    ray_session, corpus_files, tmp_path, monkeypatch
):
    """A run builds the jobs lookup once, through the module global, and
    broadcasts it as one Arrow table (every other table put is a block of
    a wave's file groups); resubmitting a fully committed run neither
    scans for duplicates nor builds or broadcasts the lookup: it returns
    before any planning."""
    from pdfz_ray.pipelines import extract_pipeline as ep

    _, paths = corpus_files
    jobs = make_jobs(120)
    out_dir = str(tmp_path / "out")
    lookups, puts = [], []
    real_lookup, real_put = ep.jobs_table_to_lookup, ep.ray.put
    monkeypatch.setattr(ep, "jobs_table_to_lookup", lambda t: lookups.append(t) or real_lookup(t))
    monkeypatch.setattr(ep.ray, "put", lambda v, **k: puts.append(v) or real_put(v, **k))
    res1 = ep.run_partitioned(paths, out_dir, jobs, partition_size=2, ocr=False)
    assert res1["partitions_run"] == [0, 1]
    # one lookup per run, from the caller's table, broadcast as one table
    assert lookups == [jobs]
    tables = [v for v in puts if isinstance(v, pa.Table)]
    groups = [t for t in tables if t.column_names == ["files"]]
    assert groups
    assert [t.column_names for t in tables if t.column_names != ["files"]] == [
        ["doc_id", "start_page", "page_count", "engine_ok"]
    ]
    assert not any(isinstance(v, dict) for v in puts)

    def boom(*a, **k):
        raise AssertionError("planning ran on a fully committed resume")

    puts.clear()
    monkeypatch.setattr(ep, "scan_duplicates", boom)
    monkeypatch.setattr(ep, "jobs_table_to_lookup", boom)
    res2 = ep.run_partitioned(paths, out_dir, jobs, partition_size=2, ocr=False)
    assert puts == []
    assert res2["partitions_run"] == []
    assert res2["partitions_skipped"] == [0, 1]
    assert res2["output_files"] == res1["output_files"]


def test_resume_reruns_commit_without_fingerprint(ray_session, corpus_files, tmp_path):
    """A committed manifest row without ``files_md5`` (an older manifest)
    matches no chunking: a resume at another partition size re-runs that
    pid, and the output holds every doc once, oracle-exact."""
    import json

    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.stages.extract import flatten_output

    tbl, paths = corpus_files
    out_dir = str(tmp_path / "out")
    res1 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res1["partitions_run"] == [0, 1, 2, 3]
    with open(res1["manifest"]) as f:
        rows = [json.loads(line) for line in f]
    for row in rows:
        if row["partition_id"] == 0:
            del row["files_md5"]
    with open(res1["manifest"], "w") as f:
        f.writelines(json.dumps(row) + "\n" for row in rows)

    res2 = run_partitioned(paths, out_dir, partition_size=2, ocr=False)
    assert res2["partitions_run"] == [0, 1]
    out = pa.concat_tables([pq.read_table(f) for f in res2["output_files"]])
    ids = out.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids))
    got = sorted(tuple(r.values()) for r in flatten_output(out).to_pylist())
    assert got == sorted(tuple(r.values()) for r in _oracle_flat(tbl))


def test_resume_after_torn_manifest_line(ray_session, corpus_files, tmp_path):
    """A crash mid-append leaves the manifest's last line torn: resume
    skips the partitions committed before it, re-runs only the torn one,
    and repairs the file so the next resume runs nothing. A torn line
    that is not the last still raises."""
    import json

    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.state.manifest import Manifest
    from pdfz_ray.stages.extract import flatten_output

    tbl, paths = corpus_files
    out_dir = str(tmp_path / "out")
    res1 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res1["partitions_run"] == [0, 1, 2, 3]
    man = res1["manifest"]
    text = open(man).read()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    with open(man, "w") as f:
        f.write(text[: text.rindex(last) + len(last) // 2])  # mid-record

    res2 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res2["partitions_skipped"] == [0, 1, 2]
    assert res2["partitions_run"] == [3]
    res3 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res3["partitions_run"] == []
    assert len(open(man).read().splitlines()) == 4

    final = rd.read_parquet(res3["output_files"])
    flat = final.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted(tuple(r.values()) for r in flat.take_all())
    want = sorted(tuple(r.values()) for r in _oracle_flat(tbl))
    assert got == want

    lines = open(man).read().splitlines()
    with open(man, "w") as f:
        f.write("\n".join([lines[0][:10]] + lines[1:]) + "\n")
    with pytest.raises(json.JSONDecodeError):
        Manifest(out_dir).completed()


def test_run_partitioned_and_resume(ray_session, corpus_files, tmp_path):
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.stages.extract import flatten_output

    tbl, paths = corpus_files
    out_dir = str(tmp_path / "out")
    res1 = run_partitioned(paths, out_dir, partition_size=2)
    assert res1["partitions_run"] == [0, 1]
    assert res1["partitions_skipped"] == []

    # resume: nothing to do
    res2 = run_partitioned(paths, out_dir, partition_size=2)
    assert res2["partitions_run"] == []
    assert res2["partitions_skipped"] == [0, 1]

    # simulate a crash: delete one committed partition's manifest line
    man = res1["manifest"]
    lines = open(man).read().strip().splitlines()
    with open(man, "w") as f:
        f.write(lines[0] + "\n")
    res3 = run_partitioned(paths, out_dir, partition_size=2)
    assert res3["partitions_run"] == [1]

    # final output identical to the oracle — including cross-partition
    # duplicate doc_ids (corpus appends dup rows at the table end, so they
    # land in a different partition than their originals)
    import ray.data as rd

    final = rd.read_parquet(res3["output_files"])
    flat = final.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted((tuple(r.values()) for r in flat.take_all()))
    want = sorted((tuple(r.values()) for r in _oracle_flat(tbl)))
    assert got == want

    # manifest lineage metrics are consistent with the oracle's counters
    oracle = extract_corpus(tbl.to_pylist())
    import json

    rows = [json.loads(l) for l in open(man)]
    assert sum(r["docs"] for r in rows) == len(oracle)
    assert sum(r["pages"] for r in rows) == sum(o.pages for o in oracle)
    assert sum(r["decode_failures"] for r in rows) == sum(
        o.decode_failures for o in oracle
    )
    assert sum(r["empty_pages"] for r in rows) == sum(o.empty_pages for o in oracle)
    assert sum(r["docs_failed"] for r in rows) == sum(
        1 for o in oracle if o.status == "failed"
    )


def test_partition_of_only_owned_duplicates(ray_session, tmp_path):
    """A partition whose rows are all duplicates owned by an earlier
    partition commits with zero streamed docs instead of failing, and the
    output still equals the oracle."""
    import json

    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.stages.extract import flatten_output

    first = make_documents(30, monster_spans=50).slice(0, 30)
    paths = [str(tmp_path / "f0.parquet"), str(tmp_path / "f1.parquet")]
    pq.write_table(first, paths[0])
    pq.write_table(first.slice(0, 10), paths[1])  # copies only
    out_dir = str(tmp_path / "out")
    res = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res["partitions_run"] == [0, 1]
    rows = {r["partition_id"]: r for r in map(json.loads, open(res["manifest"]))}
    assert rows[1]["docs"] == 0 and rows[1]["pages"] == 0
    assert rows[0]["docs"] == 30

    flat = rd.read_parquet(res["output_files"]).map_batches(
        flatten_output, batch_format="pyarrow"
    )
    got = sorted(tuple(r.values()) for r in flat.take_all())
    assert got == sorted(tuple(r.values()) for r in _oracle_flat(first))


def test_partition_writer_is_retry_safe(tmp_path):
    """The wave writer splits a batch by partition, one file per partition
    it touches; calling it again on the same batch (a retried task) leaves
    the same files with the same bytes; its count rows equal the counts of
    the written files."""
    import glob
    import pathlib

    from pdfz_ray.pipelines.extract_pipeline import _metrics_of, _partition_writer
    from pdfz_ray.stages.extract import extract_batch

    dirs = {0: str(tmp_path / "t0"), 1: str(tmp_path / "t1")}
    for d in dirs.values():
        os.makedirs(d)
    batch = extract_batch(make_documents(40, monster_spans=50).slice(0, 40))
    sources = ["a.parquet", "b.parquet", "c.parquet"]
    batch = batch.append_column("path", pa.array([sources[i // 14] for i in range(40)]))
    write = _partition_writer({"a.parquet": 0, "b.parquet": 1, "c.parquet": 1}, dirs)

    def files():
        found = sorted(glob.glob(str(tmp_path / "t*" / "*")))
        return {f: pathlib.Path(f).read_bytes() for f in found}

    counts = write(batch)
    first = files()
    assert write(batch).equals(counts)
    assert files() == first
    for pid, d in dirs.items():
        written = glob.glob(os.path.join(d, "*"))
        assert len(written) == 1
        got = pq.read_table(written[0])
        assert "path" not in got.column_names
        row = [r for r in counts.to_pylist() if r["pid"] == pid]
        assert row == [{"pid": pid, **_metrics_of(got)}]
    assert sum(counts.column("docs").to_pylist()) == batch.num_rows


def test_waves_double_and_resume_in_order(ray_session, tmp_path, monkeypatch):
    """Pending partitions run in waves of 1, 2, 4, … partitions, one Ray
    Data execution (one group read) each; the first partition commits
    before the second wave is built; the driver reads no parquet footer
    (expected row counts and the read groups come from the dup scan); a
    resume runs waves over the pending partitions only and reproduces the
    fresh run's output row for row."""
    import json

    import pyarrow.dataset as pads

    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.pipelines.extract_pipeline import _waves, run_partitioned
    from pdfz_ray.state.manifest import Manifest

    assert [len(w) for w in _waves(list(range(16)))] == [1, 2, 4, 8, 1]
    tbl = make_documents(88, monster_spans=50)  # dup tail in the last file
    paths = []
    for i in range(8):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(tbl.slice(i * 12, 12), p)
        paths.append(p)
    out_dir = str(tmp_path / "out")
    reads = []
    real_groups = ep._file_groups

    def read(files, *a, **kw):
        reads.append(([paths.index(f) for f in files], set(Manifest(out_dir).completed())))
        return real_groups(files, *a, **kw)

    monkeypatch.setattr(ep, "_file_groups", read)
    footers = []
    real_footer = pq.read_metadata

    def footer(*a, **kw):
        footers.append(a)
        return real_footer(*a, **kw)

    monkeypatch.setattr(pq, "read_metadata", footer)
    jobs = make_jobs(88)
    res = run_partitioned(paths, out_dir, jobs, partition_size=1, ocr=False)
    assert res["partitions_run"] == list(range(8))
    assert [r[0] for r in reads] == [[0], [1, 2], [3, 4, 5, 6], [7]]
    assert reads[1][1] == {0}
    assert footers == []

    def rows():
        t = pads.dataset(out_dir, format="parquet").to_table()
        return sorted(t.to_pylist(), key=lambda r: r["doc_id"])

    fresh = rows()
    man = res["manifest"]
    kept = [l for l in open(man) if json.loads(l)["partition_id"] in (0, 2, 5)]
    with open(man, "w") as f:
        f.writelines(kept)
    reads.clear()
    res2 = run_partitioned(paths, out_dir, jobs, partition_size=1, ocr=False)
    assert [r[0] for r in reads] == [[1], [3, 4], [6, 7]]
    assert res2["partitions_run"] == [1, 3, 4, 6, 7]
    assert res2["partitions_skipped"] == [0, 2, 5]
    assert rows() == fresh


def test_file_groups_keep_order_and_row_bound():
    """A wave's files are cut, in order, into consecutive groups of at
    most ``batch_size`` rows; a group of more rows holds one file only,
    and each group ends where the next file would not fit."""
    import random

    from pdfz_ray.pipelines.extract_pipeline import _file_groups

    assert _file_groups([], {}, 4) == []
    rows = {"a": 3, "b": 0, "c": 1, "d": 9, "e": 0, "f": 4, "g": 2}
    assert _file_groups(list(rows), rows, 4) == [
        ["a", "b", "c"], ["d"], ["e", "f"], ["g"]
    ]
    rng = random.Random(0)
    for _ in range(300):
        files = [f"f{i}" for i in range(rng.randint(0, 30))]
        rows = {f: rng.choice([0, 1, 5, 100, 600, 2048, 5000]) for f in files}
        batch_size = rng.choice([1, 512, 2048])
        groups = _file_groups(files, rows, batch_size)
        assert [f for g in groups for f in g] == files
        for g in groups:
            assert len(g) == 1 or sum(rows[f] for f in g) <= batch_size, g
        for g, h in zip(groups, groups[1:]):
            assert sum(rows[f] for f in g) + rows[h[0]] > batch_size, (g, h)


def test_large_file_reaches_extract_in_batch_slices(ray_session, tmp_path, monkeypatch):
    """A file of 3× ``batch_size`` rows, a group of its own, reaches the
    extract kernel in slices: every call of the wave's extract UDF (one
    ``extract_batch`` each) gets at most ``batch_size`` rows, and two
    small files share one call; the calls cover every streamed row once
    and the output is oracle-exact."""
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.stages.extract import flatten_output

    tbl = make_documents(200, monster_spans=50)
    assert tbl.num_rows == 218  # rows 200.. copy earlier ids
    cuts = [(0, 150), (150, 20), (170, 30), (200, 18)]
    paths = []
    for i, (lo, n) in enumerate(cuts):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(tbl.slice(lo, n), paths[-1])
    calls = tmp_path / "calls.txt"
    real = ep._extractor

    def spy(*a, **k):
        extract = real(*a, **k)

        def counted(batch):
            with open(calls, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return extract(batch)

        return counted

    monkeypatch.setattr(ep, "_extractor", spy)
    res = ep.run_partitioned(
        paths, str(tmp_path / "out"), partition_size=4, batch_size=50, ocr=False
    )
    sizes = [int(n) for n in calls.read_text().split()]
    # 218 rows less the later copies of the 18 duplicated ids
    assert sum(sizes) == 218 - 18
    assert max(sizes) <= 50 and len(sizes) == 4, sizes
    out = pa.concat_tables([pq.read_table(f) for f in res["output_files"]])
    got = sorted(tuple(r.values()) for r in flatten_output(out).to_pylist())
    assert got == sorted(tuple(r.values()) for r in _oracle_flat(tbl))


def test_empty_file_and_dup_only_wave_commit(ray_session, tmp_path, monkeypatch):
    """A 0-row input file and a wave whose rows are all duplicates owned
    by an earlier partition each commit, with the output oracle-exact: at
    partition size 1 both commit empty without being read (the dup-only
    wave runs no execution); at size 4 one read group holds both."""
    import json

    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.stages.extract import flatten_output

    docs = make_documents(30, monster_spans=50).slice(0, 30)
    parts = [docs.slice(0, 20), docs.slice(0, 0), docs.slice(20, 10), docs.slice(0, 8)]
    paths = []
    for i, t in enumerate(parts):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(t, paths[-1])
    want = sorted(tuple(r.values()) for r in _oracle_flat(pa.concat_tables(parts)))
    read = []
    real_groups = ep._file_groups

    def groups(files, *a, **k):
        read.append([paths.index(f) for f in files])
        return real_groups(files, *a, **k)

    monkeypatch.setattr(ep, "_file_groups", groups)
    for size, reads in ((1, [[0], [2]]), (4, [[0, 1, 2, 3]])):
        read.clear()
        res = ep.run_partitioned(
            paths, str(tmp_path / f"out{size}"), partition_size=size, ocr=False
        )
        assert read == reads, size
        rows = {r["partition_id"]: r for r in map(json.loads, open(res["manifest"]))}
        assert sorted(rows) == res["partitions_run"]
        if size == 1:
            assert rows[1]["docs"] == 0 and rows[3]["docs"] == 0
            assert rows[3]["wave"] == 2
        out = pa.concat_tables([pq.read_table(f) for f in res["output_files"]])
        got = sorted(tuple(r.values()) for r in flatten_output(out).to_pylist())
        assert got == want, size


def test_run_partitioned_plans_no_read_parquet(ray_session, corpus_files, tmp_path, monkeypatch):
    """Neither an unrouted nor a routed run calls ``ray.data.read_parquet``:
    the waves' reads are planned from the dup scan."""
    import ray.data as rd

    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned

    def boom(*a, **k):
        raise AssertionError("run_partitioned planned a read_parquet")

    monkeypatch.setattr(rd, "read_parquet", boom)
    monkeypatch.setattr(ep, "_MONSTER_BATCH", 4)
    _, paths = corpus_files
    for kw in ({}, {"skew_threshold": 100}):
        res = run_partitioned(
            paths, str(tmp_path / f"out{len(kw)}"), partition_size=2, ocr=False, **kw
        )
        assert res["partitions_run"] == [0, 1]


def test_unrouted_wave_is_one_task_per_group(ray_session, corpus_files, tmp_path, monkeypatch):
    """An unrouted wave executes exactly one operator, the fused read UDF,
    with one task per file group."""
    import re

    from pdfz_ray.pipelines import extract_pipeline as ep

    waves = []
    real_groups, real_chain = ep._file_groups, ep._wave_chain

    def groups(*a, **k):
        waves.append([real_groups(*a, **k)])
        return waves[-1][0]

    def chain(*a, **k):
        waves[-1].append(real_chain(*a, **k))
        return waves[-1][1]

    monkeypatch.setattr(ep, "_file_groups", groups)
    monkeypatch.setattr(ep, "_wave_chain", chain)
    _, paths = corpus_files  # 4 files of 33 rows
    ep.run_partitioned(paths, str(tmp_path / "out"), partition_size=4, batch_size=70, ocr=False)
    ((planned, ds),) = waves
    assert planned == [paths[:2], paths[2:]]
    ops = re.findall(r"^Operator \d+ (.+?): (\d+) tasks executed", ds.stats(), re.M)
    # FromItems is the input buffer of the groups, not an executed operator
    assert ops[0][0] == "FromItems", ops
    assert ops[1:] == [("MapBatches(group_task)", str(len(planned)))], ops


def test_paths_pipeline_is_one_task_per_group(ray_session, tmp_path):
    """build_extract_pipeline over paths runs the job path's chain less
    its writer: one executed operator, the fused group task, with one task
    per file group at its own ``_BATCH_ROWS``, not every group bundled
    into one task. The output is exactly deduplicated, and every block,
    that of the group holding only later copies too, has one schema."""
    import re

    import ray

    from pdfz_ray.pipelines import extract_pipeline as ep

    tbl = make_documents(1650, monster_spans=20)
    assert tbl.num_rows == 1800
    paths = []
    # the fourth file repeats the first: all its rows are later copies
    for i, lo in enumerate((0, 600, 1200, 0)):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(tbl.slice(lo, 600), paths[-1])
    rows = {p: 600 for p in paths}
    groups = ep._file_groups(paths, rows, ep._BATCH_ROWS)
    assert len(groups) == 4

    out = ep.build_extract_pipeline(paths, ocr=False).materialize()
    blocks = ray.get(out.to_arrow_refs())
    assert len({b.schema for b in blocks}) == 1, [b.schema for b in blocks]
    ids = pa.concat_tables(blocks).column("doc_id").to_pylist()
    assert len(ids) == len(set(ids)) == 1650
    ops = re.findall(r"^Operator \d+ (.+?): (\d+) tasks executed", out.stats(), re.M)
    # FromItems is the input buffer of the groups, not an executed operator
    assert ops[0][0] == "FromItems", ops
    assert ops[1:] == [("MapBatches(group_task)", str(len(groups)))], ops


def test_job_cli_rejects_sizes_below_one(tmp_path, monkeypatch, capsys):
    """``--partition-size``, ``--batch-size``, ``--num-cpus``, ``--shards``
    and ``--budget`` below 1 are usage errors (exit code 2) before Ray
    starts."""
    import ray

    from pdfz_ray import job

    def boom(*a, **k):
        raise AssertionError("ray.init ran")

    monkeypatch.setattr(ray, "init", boom)
    src = str(tmp_path / "in.parquet")
    pq.write_table(make_documents(4), src)
    for flag in ("--partition-size", "--batch-size", "--num-cpus", "--shards", "--budget"):
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as err:
                job.main(["--input", src, "--out", str(tmp_path / "out"), flag, value])
            assert err.value.code == 2
            assert f"argument {flag}: must be at least 1" in capsys.readouterr().err


def test_wave_plan_is_logged(ray_session, corpus_files, tmp_path, caplog):
    """One DEBUG record per wave on the ``pdfz_ray`` logger, which the
    package leaves silent (no handler, no level); each manifest row names
    its wave, and the records' dropped later copies add up to the
    corpus's."""
    import json
    import logging
    import re

    from pdfz_ray.pipelines.extract_pipeline import run_partitioned

    pkg = logging.getLogger("pdfz_ray")
    assert pkg.handlers == [] and pkg.level == logging.NOTSET
    tbl, paths = corpus_files
    caplog.set_level(logging.DEBUG, logger="pdfz_ray")
    res = run_partitioned(paths, str(tmp_path / "out"), partition_size=1, ocr=False)
    msgs = [r.getMessage() for r in caplog.records if r.name.startswith("pdfz_ray")]
    assert len(msgs) == 3
    assert msgs[0].startswith("wave 0: partitions [0], 1 files, ")
    assert msgs[1].startswith("wave 1: partitions [1, 2], 2 files, ")
    assert msgs[2].startswith("wave 2: partitions [3], 1 files, ")
    assert all("later copies dropped" in m and "winners" not in m for m in msgs)
    dropped = [int(re.search(r"(\d+) later copies dropped", m).group(1)) for m in msgs]
    assert sum(dropped) == tbl.num_rows - len(set(tbl.column("doc_id").to_pylist()))
    waves = {
        r["partition_id"]: r["wave"] for r in map(json.loads, open(res["manifest"]))
    }
    assert waves == {0: 0, 1: 1, 2: 1, 3: 2}


def test_resume_rejects_changed_chunking(ray_session, corpus_files, tmp_path):
    """A manifest 'done' pid is honored only when it still maps to the same
    file chunk — resuming with a different partition_size re-runs instead of
    silently skipping pids that now cover different files (ADVICE r1). A
    move to fewer, larger partitions retires the committed pids it no
    longer has: their output leaves ``out_dir``, which then holds each doc
    once, and a move back to the finer chunking runs them again."""
    import glob

    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.stages.extract import flatten_output

    tbl, paths = corpus_files
    out_dir = str(tmp_path / "out_chunk")
    res1 = run_partitioned(paths, out_dir, partition_size=2, ocr=False)
    assert res1["partitions_run"] == [0, 1]

    # same chunking resumes cleanly ...
    res2 = run_partitioned(paths, out_dir, partition_size=2, ocr=False)
    assert res2["partitions_skipped"] == [0, 1]

    # ... but a different partition_size invalidates every committed pid
    res3 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res3["partitions_skipped"] == []
    assert res3["partitions_run"] == [0, 1, 2, 3]

    want = sorted(tuple(r.values()) for r in _oracle_flat(tbl))

    def check_out_dir():
        """Every parquet file under ``out_dir``: each doc once, oracle-exact."""
        files = glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)
        out = pa.concat_tables([pq.read_table(f) for f in files])
        ids = out.column("doc_id").to_pylist()
        assert len(ids) == len(set(ids))
        assert sorted(tuple(r.values()) for r in flatten_output(out).to_pylist()) == want

    # back to partition_size=2: pids 2 and 3 are no longer partitions of
    # this run, so they are retired
    res4 = run_partitioned(paths, out_dir, partition_size=2, ocr=False)
    assert res4["partitions_run"] == [0, 1]
    assert [os.path.basename(d) for d in res4["output_dirs"]] == [
        "part-00000", "part-00001"
    ]
    out = rd.read_parquet(res4["output_files"])
    ids = [r["doc_id"] for r in out.select_columns(["doc_id"]).take_all()]
    assert len(ids) == len(set(ids))
    flat = out.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted(tuple(r.values()) for r in flat.take_all())
    assert got == want
    check_out_dir()

    # and back to partition_size=1: the retired pids 2 and 3 run again
    # (their files match once more, but their commits were withdrawn)
    res5 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res5["partitions_run"] == [0, 1, 2, 3]
    check_out_dir()


def test_live_metrics_mid_run(ray_session, tmp_path):
    """G2 live path: the counters that the driver forwards from the write
    tasks' count rows to the named metrics actor are pollable WHILE
    run_partitioned is in flight, increase monotonically, and equal the
    manifest's lineage sums once it returns: the driver sent every report
    before returning, and an actor runs one caller's calls in order."""
    import json
    import threading
    import time

    from pdfz_ray.corpus import make_documents
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.state.metrics import get_metrics_actor, live_progress

    tbl = make_documents(1600)
    d = tmp_path / "in"
    d.mkdir()
    per = (tbl.num_rows + 7) // 8
    paths = []
    for i in range(8):
        p = str(d / f"f{i}.parquet")
        pq.write_table(tbl.slice(i * per, per), p)
        paths.append(p)

    name = "pdfz_metrics_test"
    # hold the handle for the test's lifetime — a named non-detached actor
    # is collected once its last handle drops
    actor = get_metrics_actor(name)  # noqa: F841
    res: dict = {}

    def go():
        res["r"] = run_partitioned(
            paths, str(tmp_path / "out"), partition_size=1, ocr=False,
            metrics=name,
        )

    th = threading.Thread(target=go)
    th.start()
    seen = []
    while th.is_alive():
        s = live_progress(name)
        if s.get("docs"):
            seen.append(s["docs"])
        time.sleep(0.05)
    th.join()
    final = live_progress(name)

    assert final["partitions_total"] == 8
    assert final["partitions_done"] == 8
    assert seen == sorted(seen), "mid-run counters must be monotone"
    assert seen and seen[0] < final["docs"], "no mid-run snapshot observed"
    rows = [json.loads(line) for line in open(res["r"]["manifest"])]
    for name in ("docs", "docs_failed", "pages", "decode_failures", "empty_pages"):
        assert final[name] == sum(r[name] for r in rows), name


def test_worker_killed_mid_wave(ray_session, tmp_path, monkeypatch):
    """A worker that dies right after its write task wrote (the first
    writer call of the run, across processes, ``os._exit``s after a 1 s
    sleep) is retried by Ray: the output equals the oracle with no doc
    missing, extra or repeated, in as many files as a run without the
    kill (the retry overwrites the dead attempt's content-named files),
    and the live counters equal the manifest sums, since they come only
    from the count rows the driver received."""
    import json
    import time

    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.stages.extract import flatten_output
    from pdfz_ray.state.metrics import get_metrics_actor, live_progress

    tbl = make_documents(400)
    d = tmp_path / "in"
    d.mkdir()
    paths = []
    for i in range(4):
        paths.append(str(d / f"f{i}.parquet"))
        pq.write_table(tbl.slice(i * 100, 100), paths[-1])
    kw = dict(partition_size=1, batch_size=64, ocr=False)
    clean = ep.run_partitioned(paths, str(tmp_path / "clean"), **kw)

    marker = str(tmp_path / "killed")
    real = ep._partition_writer

    def killing_writer(file_pid, dirs):
        write = real(file_pid, dirs)

        def once(batch):
            out = write(batch)
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return out
            time.sleep(1)
            os._exit(1)

        return once

    monkeypatch.setattr(ep, "_partition_writer", killing_writer)
    name = "pdfz_metrics_kill"
    actor = get_metrics_actor(name)  # noqa: F841  (held: see test_live_metrics_mid_run)
    res = ep.run_partitioned(paths, str(tmp_path / "out"), metrics=name, **kw)
    assert os.path.exists(marker), "no worker was killed"
    out = pa.concat_tables(pq.read_table(f) for f in res["output_files"])
    ids = out.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids)) == len(set(tbl.column("doc_id").to_pylist()))
    got = sorted(tuple(r.values()) for r in flatten_output(out).to_pylist())
    assert got == sorted(tuple(r.values()) for r in _oracle_flat(tbl))
    assert len(res["output_files"]) == len(clean["output_files"])
    rows = [json.loads(line) for line in open(res["manifest"])]
    final = live_progress(name)
    for key in ("docs", "docs_failed", "pages", "decode_failures", "empty_pages"):
        assert final[key] == sum(r[key] for r in rows), (key, final, rows)


def test_build_extract_pipeline_rejects_empty_paths(ray_session):
    """An empty path list is a usage error naming it, raised before any
    Ray call (not Ray's own ``parallelism`` error from ``from_items``)."""
    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline

    with pytest.raises(ValueError, match="empty list of paths"):
        build_extract_pipeline([], ocr=False)


def test_skew_bucketed_pipeline_correct(ray_session, tmp_path, monkeypatch):
    """Size-bucket routing (SURVEY §7.1 M4): the job path's light stage →
    streaming re-block → heavy stage is byte-identical to the oracle, with
    a threshold between the median (≈8) and the monster (1500) spans."""
    import ray.data as rd

    from pdfz_ray.corpus import make_document
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.schema import DOCUMENTS_SCHEMA
    from pdfz_ray.stages.extract import flatten_output

    normal = [make_document(i) for i in range(550) if i % 11 != 9]
    monsters = [
        make_document(i, monster_spans=1500) for i in range(550) if i % 11 == 9
    ][:5]
    skew_tbl = pa.Table.from_pylist(normal + monsters, schema=DOCUMENTS_SCHEMA)

    per = (skew_tbl.num_rows + 3) // 4
    paths = []
    for i in range(4):
        paths.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(skew_tbl.slice(i * per, per), paths[-1])
    monkeypatch.setattr(ep, "_MONSTER_BATCH", 4)
    res = run_partitioned(
        paths, str(tmp_path / "out"), ocr=False, skew_threshold=100, batch_size=256
    )
    flat = rd.read_parquet(res["output_files"]).map_batches(
        flatten_output, batch_format="pyarrow"
    )
    got = sorted(tuple(r.values()) for r in flat.take_all())
    want = sorted(tuple(r.values()) for r in _oracle_flat(skew_tbl))
    assert got == want


def test_skew_throughput_holds(ray_session, tmp_path, monkeypatch):
    """A parquet corpus where ~1% of docs hold ≥100× the median spans
    (clustered at the end, worst case for row-based blocking) keeps ≥0.8
    of the uniform corpus's spans/sec — Ray's byte-based read blocking
    cost-balances blocks because extract cost is ∝ bytes; the routed
    (skew_threshold) path must hold the same bar. Each leg is a timed
    ``run_partitioned`` job."""
    import tempfile
    import time

    import pyarrow.compute as pc

    from pdfz_ray.corpus import make_document
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.schema import DOCUMENTS_SCHEMA

    normal = [make_document(i) for i in range(1100) if i % 11 != 9]
    mspans = [
        {"kind": "text", "text": f"w{k % 17} x y", "media_ref": "", "offset": k // 8 + 1}
        for k in range(100_000)
    ]
    monsters = [{"doc_id": f"doc-m{j:03d}", "spans": mspans} for j in range(10)]
    uni_tbl = pa.Table.from_pylist(normal, schema=DOCUMENTS_SCHEMA)
    skew_tbl = pa.Table.from_pylist(normal + monsters, schema=DOCUMENTS_SCHEMA)

    def write(tbl, name, nfiles=8):
        d = tmp_path / name
        d.mkdir()
        per = (tbl.num_rows + nfiles - 1) // nfiles
        paths = []
        for i in range(nfiles):
            p = str(d / f"f{i}.parquet")
            pq.write_table(tbl.slice(i * per, per), p)
            paths.append(p)
        return paths

    up, sp = write(uni_tbl, "uni"), write(skew_tbl, "skew")
    spans = lambda t: int(pc.sum(pc.list_value_length(t.column("spans"))).as_py())  # noqa: E731
    su, ss = spans(uni_tbl), spans(skew_tbl)

    def run(paths, **kw):
        out_dir = tempfile.mkdtemp(dir=tmp_path)
        t0 = time.perf_counter()
        run_partitioned(paths, out_dir, ocr=False, **kw)
        return time.perf_counter() - t0

    run(up)  # warm the worker pool
    tu = run(up)
    ts = run(sp)
    monkeypatch.setattr(ep, "_MONSTER_BATCH", 2)
    tr = run(sp, skew_threshold=1000)
    plain_ratio = (ss / ts) / (su / tu)
    routed_ratio = (ss / tr) / (su / tu)
    assert plain_ratio >= 0.8, f"plain skew ratio {plain_ratio:.2f}"
    assert routed_ratio >= 0.8, f"routed skew ratio {routed_ratio:.2f}"


def _interleave_row_loop_ref(ids, texts):
    """Row-loop reference for interleave_documents (the round-1 impl) —
    pins the vectorized offset-arithmetic version bit-for-bit."""
    from pdfz_ray.pipelines.extract_pipeline import WORDS_PER_PAGE, WORDS_PER_SPAN
    from pdfz_ray.schema import DOCUMENTS_SCHEMA

    rows = []
    for i, txt in zip(ids, texts):
        words = (txt or "").split()
        spans = []
        page = 0
        for lo in range(0, max(len(words), 1), WORDS_PER_PAGE):
            page += 1
            pw = words[lo : lo + WORDS_PER_PAGE]
            for s in range(0, max(len(pw), 1), WORDS_PER_SPAN):
                spans.append(
                    {"kind": "text", "text": " ".join(pw[s : s + WORDS_PER_SPAN]),
                     "media_ref": "", "offset": page}
                )
            if (int(i) + page) % 3 == 0:
                bad = (int(i) + page) % 9 == 0
                spans.append(
                    {"kind": "media",
                     "text": f"{'!bad-' if bad else ''}img-{int(i)}-{page}",
                     "media_ref": f"in-{int(i)}-{page}", "offset": page}
                )
        rows.append({"doc_id": f"doc-{int(i):08d}", "spans": spans})
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def test_interleave_vectorized_matches_row_loop():
    from pdfz_ray.pipelines.extract_pipeline import interleave_documents

    words = lambda n: " ".join(f"w{j}" for j in range(n))  # noqa: E731
    cases = ["", words(1), words(15), words(40), words(41), words(80),
             words(123), "Ünïcödé " * 30, words(600), ""]
    ids = list(range(len(cases)))
    batch = pa.Table.from_pydict(
        {"doc_id": pa.array(ids, pa.int64()), "text": cases}
    )
    got = interleave_documents(batch)
    want = _interleave_row_loop_ref(ids, cases)
    assert got.schema.equals(want.schema)
    assert got.to_pylist() == want.to_pylist()

    real = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    got = interleave_documents(real)
    want = _interleave_row_loop_ref(
        real.column("doc_id").to_pylist(), real.column("text").to_pylist()
    )
    assert got.to_pylist() == want.to_pylist()


def test_interleave_ingest(ray_session):
    import ray.data as rd

    from pdfz_ray.pipelines.extract_pipeline import (
        build_extract_pipeline,
        interleave_documents,
    )

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    docs = ds.map_batches(interleave_documents, batch_format="pyarrow")
    out = build_extract_pipeline(docs, ocr=False)
    n_in = ds.count()
    assert out.count() == n_in
    sample = out.take(3)
    for row in sample:
        assert row["status"] == "done"
        assert row["spans"][0]["kind"] == "text"


def test_pipeline_survives_transient_task_failures(ray_session, tmp_path):
    """Ray's at-least-once task retries + the manifest's atomic commits =
    exactly-once OUTPUT: a stage that crashes on its first N invocations
    (worker-crash simulation via a shared poison counter) still yields
    byte-identical results."""
    import ray

    tbl, paths = None, None
    tbl = make_documents(120, monster_spans=200)
    src = tmp_path / "flaky_in"
    src.mkdir()
    paths = []
    for i in range(4):
        p = str(src / f"docs-{i}.parquet")
        pq.write_table(tbl.slice(i * 33, 33), p)
        paths.append(p)

    @ray.remote
    class Poison:
        def __init__(self, n):
            self.left = n

        def take(self) -> bool:
            if self.left > 0:
                self.left -= 1
                return True
            return False

    poison = Poison.remote(3)

    def flaky(batch):
        if ray.get(poison.take.remote()):
            raise RuntimeError("injected transient failure")
        return batch

    from pdfz_ray.pipelines.extract_pipeline import build_extract_pipeline
    from pdfz_ray.stages.extract import flatten_output

    # retry_exceptions opts application errors into Ray's task retries
    # (system/worker failures retry by default)
    out = build_extract_pipeline(paths, ocr=False).map_batches(
        flaky, batch_format="pyarrow", retry_exceptions=True, max_retries=4
    )
    flat = out.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted(tuple(r.values()) for r in flat.take_all())
    want = sorted(tuple(r.values()) for r in _oracle_flat(tbl))
    assert got == want


def test_incremental_append_runs_only_new_partitions(ray_session, tmp_path):
    """Incremental ingestion: appending partition-aligned input files to a
    completed run processes ONLY the new partitions (old files_md5 still
    match), and the combined output equals a from-scratch oracle run."""
    from pdfz_ray.pipelines.extract_pipeline import run_partitioned
    from pdfz_ray.stages.extract import flatten_output

    tbl = make_documents(88)  # 8 rows of dup tail → exercises dedup too
    d = tmp_path / "inc"
    d.mkdir()
    paths = []
    for i in range(4):
        p = str(d / f"f{i}.parquet")
        pq.write_table(tbl.slice(i * 24, 24), p)
        paths.append(p)

    out_dir = str(tmp_path / "inc_out")
    res1 = run_partitioned(paths[:2], out_dir, partition_size=1, ocr=False)
    assert res1["partitions_run"] == [0, 1]

    # append two more files; alignment keeps pid 0/1 chunk hashes stable.
    # The dup tail lives in the appended files: the first copies are in
    # the (already committed) original partitions, so the new partitions
    # drop their later copies and first-wins still holds.
    res2 = run_partitioned(paths, out_dir, partition_size=1, ocr=False)
    assert res2["partitions_skipped"] == [0, 1]
    assert res2["partitions_run"] == [2, 3]

    import ray.data as rd

    final = rd.read_parquet(res2["output_files"])
    flat = final.map_batches(flatten_output, batch_format="pyarrow")
    got = sorted(tuple(r.values()) for r in flat.take_all())
    want = sorted(tuple(r.values()) for r in _oracle_flat(tbl))
    assert got == want


def test_write_training_shards_resumable(ray_session, tmp_path):
    """Shard writer: shard union == the curated train split, packing is
    valid per shard, resume skips committed shards, and a parameter
    change invalidates the manifest entries."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    import ray.data as rd
    from pdfz_ray.functions.curation import curate_corpus
    from pdfz_ray.pipelines.curation_pipeline import write_training_shards

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(50)]
    rows = []
    for i in range(120):
        toks = rng.choice(words, size=int(rng.integers(3, 30))).tolist()
        rows.append({"doc_id": i, "text": " ".join(toks)})
    rows[30]["text"] = rows[7]["text"]  # exact duplicate → 30 loses to 7
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)

    out = str(tmp_path / "shards")
    res = write_training_shards(src, out, n_shards=3, budget=64)
    assert sorted(res["ran"]) == [0, 1, 2] and res["skipped"] == []

    shard_tbl = pds.dataset(out, format="parquet").to_table()
    got_ids = sorted(shard_tbl.column("doc_id").to_pylist())
    cur = curate_corpus(
        rd.read_parquet(src, columns=["doc_id", "text"])
    ).to_pandas()
    want_ids = sorted(cur[cur["split"] == "train"]["doc_id"])
    assert got_ids == want_ids
    assert len(got_ids) == len(set(got_ids))  # exactly once across shards
    # packing validity: offsets under budget; per-doc (pack_id, offset)
    # consistent with a doc_id-ordered serial scan within each shard
    df = shard_tbl.to_pandas()
    assert (df["pack_offset"] < 64).all()
    import json

    man = [json.loads(l) for l in open(res["manifest"])]
    assert len(man) == 3
    for m in man:
        sh = df[(df["doc_id"] >= m["doc_lo"]) & (df["doc_id"] < m["doc_hi"])]
        sh = sh.sort_values("doc_id").reset_index(drop=True)
        prev = np.concatenate(([0], np.cumsum(sh["n_tokens"].to_numpy()[:-1])))
        assert (sh["pack_id"].to_numpy() == prev // 64).all()
        assert (sh["pack_offset"].to_numpy() == prev % 64).all()
        assert m["n_docs"] == len(sh)

    # resume: nothing re-runs
    res2 = write_training_shards(src, out, n_shards=3, budget=64)
    assert res2["ran"] == [] and sorted(res2["skipped"]) == [0, 1, 2]

    # changed parameters invalidate the fingerprint → full re-run
    res3 = write_training_shards(src, out, n_shards=3, budget=32)
    assert sorted(res3["ran"]) == [0, 1, 2]

    # an input file rewritten IN PLACE (same path, different content)
    # invalidates the fingerprint too — resume must not keep stale shards
    rows[5]["text"] = "totally new content for doc five"
    pq.write_table(pa.Table.from_pylist(rows), src)
    os.utime(src, (os.path.getatime(src), os.path.getmtime(src) + 2))
    res4 = write_training_shards(src, out, n_shards=3, budget=32)
    assert sorted(res4["ran"]) == [0, 1, 2]


def test_write_training_shards_empty_shard(ray_session, tmp_path):
    """A shard range with zero survivors commits as an empty shard (the
    100k-doc stress surfaced a crash reading the empty dataset's schema)."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfz_ray.pipelines.curation_pipeline import write_training_shards

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    # all docs in [0, 50); ids 1000/1001 park the top of the id space so
    # the upper shard ranges contain no documents at all
    rows = [
        {
            "doc_id": i,
            "text": " ".join(rng.choice(words, size=int(rng.integers(5, 25)))),
        }
        for i in range(50)
    ]
    rows.append({"doc_id": 1000, "text": "lone top doc " + " ".join(words[:9])})
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = str(tmp_path / "shards")
    res = write_training_shards(src, out, n_shards=4, budget=64)
    assert sorted(res["ran"]) == [0, 1, 2, 3]
    man = [json.loads(l) for l in open(res["manifest"])]
    assert len(man) == 4
    assert any(m["n_docs"] == 0 for m in man)  # empty shard committed
    res2 = write_training_shards(src, out, n_shards=4, budget=64)
    assert res2["ran"] == [] and len(res2["skipped"]) == 4


def test_write_training_shards_zero_survivor_corpus(ray_session, tmp_path):
    """A corpus where NO document survives curation (here: every doc is
    benchmark-contaminated because all texts share grams with the
    doc_id%23==0 slice) must commit all shards as empty instead of
    crashing on the schema-less empty bucket-totals frame (found by the
    1M-doc stress, whose sequential replica ids swept every text into
    the bench slice)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfz_ray.pipelines.curation_pipeline import write_training_shards

    # one shared text → doc 0 is in the bench slice → every doc shares
    # all its grams with the benchmark → all contaminated
    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [{"doc_id": i, "text": text} for i in range(30)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    out = str(tmp_path / "shards")
    res = write_training_shards(src, out, n_shards=3, budget=64)
    assert sorted(res["ran"]) == [0, 1, 2]
    man = [json.loads(l) for l in open(res["manifest"])]
    assert len(man) == 3 and all(m["n_docs"] == 0 for m in man)
    res2 = write_training_shards(src, out, n_shards=3, budget=64)
    assert res2["ran"] == [] and len(res2["skipped"]) == 3
