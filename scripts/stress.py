"""Scale-tier stress runs behind the BASELINE.md tables.

Each subcommand replicates the driver sf0.1 tables to a larger tier with
unique ids, runs one operator family, and prints a JSON line of wall
times. Run from /root/repo (workers import pdfz_ray via the driver cwd):

    python scripts/stress.py neardup     # 100k-doc dup-heavy near-dup ops
    python scripts/stress.py curation1m  # 1M-doc curation family + shards
    python scripts/stress.py rarity      # doc_rarity w/ 10^6-term vocab
    python scripts/stress.py plan        # job-path plan: dup scan + jobs lookup
    python scripts/stress.py waves       # group tasks of both entry points: rows/file × batch size
    python scripts/stress.py kernels     # a group task's layers in-process, no Ray
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
STRESS_ROOT = "/tmp/pdfz_ray_stress"


def replicate_documents(
    replicas: int, out_name: str, n_parts: int = 8, preserve_modulus: int = 0
) -> str:
    """sf0.1 documents × replicas with unique doc_ids (same text → every
    doc is a `replicas`-deep exact-dup group: the adversarial profile).

    ``preserve_modulus=m``: replica offsets are multiples of a
    ceil(n/m)*m stride so doc_id % m is preserved — needed by the
    curation tier, whose benchmark slice is doc_id % 23 == 0: sequential
    offsets would sweep EVERY text into the bench slice and contaminate
    the whole corpus (zero survivors — a real edge, but covered by a
    pytest, not the throughput stress)."""
    d = os.path.join(STRESS_ROOT, out_name)
    marker = os.path.join(d, "_DONE")
    if os.path.exists(marker):
        return d
    os.makedirs(d, exist_ok=True)
    base = pq.read_table(f"{SF_DIR}/documents.parquet")
    n = base.num_rows
    stride = n if preserve_modulus <= 0 else -(-n // preserve_modulus) * preserve_modulus
    # split range(replicas) across parts without dropping the remainder
    # (replicas // n_parts per part silently under-replicated: 20 asked /
    # 8 parts gave 16 — the "100k" corpus was 80k docs)
    splits = np.array_split(np.arange(replicas), min(n_parts, replicas))
    for p, ks in enumerate(splits):
        parts = [
            base.set_column(0, "doc_id", pc.add(base.column("doc_id"), int(k) * stride))
            for k in ks
        ]
        if parts:
            pq.write_table(pa.concat_tables(parts), os.path.join(d, f"part-{p:03d}.parquet"))
    with open(marker, "w") as f:
        f.write("ok\n")
    return d


def timed(timings: dict, name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    timings[name] = round(time.perf_counter() - t0, 2)
    return out


def init_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def neardup():
    """100k-doc adversarial corpus (every text a 20-deep dup group):
    minhash/simhash with the round-3 exact-dedup-first + vectorized
    buckets + distributed pairs (VERDICT r2 next-round #3/#4: simhash
    < 20 s with identical output; minhash not worse than 55.8 s)."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.dedup import (
        exact_dedup_docs,
        minhash_lsh_pairs,
        neardup_dedup_corpus,
        simhash_pairs,
    )

    d = replicate_documents(20, "docs-100k")

    def docs():
        return rd.read_parquet(d, columns=["doc_id", "text"])

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    out["exact_groups"] = timed(t, "exact_dedup", lambda: exact_dedup_docs(docs()).count())
    mh = timed(t, "minhash_lsh", lambda: minhash_lsh_pairs(docs(), threshold=0.2))
    out["minhash_pairs"] = mh.num_rows
    sh = timed(t, "simhash", lambda: simhash_pairs(docs(), max_hamming=3))
    out["simhash_pairs"] = sh.num_rows
    out["neardup_survivors"] = timed(
        t, "neardup_dedup_corpus", lambda: neardup_dedup_corpus(docs(), threshold=0.2).count()
    )
    ray.shutdown()
    print(json.dumps({"stress": "neardup-100k", "timings": t, "outputs": out}))


def curation1m():
    """1M-doc tier for the curation family + training-shard writer
    (VERDICT r2 next-round #8: confirm per-shard startup amortizes)."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.curation import (
        curate_corpus,
        decontaminate,
        pack_sequences,
        pii_redact_batch,
    )
    from pdfz_ray.pipelines.curation_pipeline import write_training_shards

    d = replicate_documents(200, "docs-1m", n_parts=32, preserve_modulus=23)

    def docs():
        return rd.read_parquet(d, columns=["doc_id", "text"])

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    out["decontaminate"] = timed(t, "decontaminate", lambda: decontaminate(docs()).count())
    out["pack_sequences"] = timed(t, "pack_sequences", lambda: pack_sequences(docs()).count())
    out["pii_redact"] = timed(
        t,
        "pii_redact",
        lambda: docs().map_batches(pii_redact_batch, batch_format="pyarrow").count(),
    )
    out["curate_corpus"] = timed(t, "curate_corpus", lambda: curate_corpus(docs(), n=5).count())
    shard_dir = os.path.join(STRESS_ROOT, "shards-1m")
    import shutil

    shutil.rmtree(shard_dir, ignore_errors=True)
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    res = timed(
        t,
        "write_training_shards",
        lambda: write_training_shards(paths, shard_dir, n_shards=32, budget=512),
    )
    out["shards_ran"] = len(res["ran"])
    res2 = timed(
        t,
        "write_training_shards_resume",
        lambda: write_training_shards(paths, shard_dir, n_shards=32, budget=512),
    )
    out["shards_rerun_on_resume"] = len(res2["ran"])
    ray.shutdown()
    print(json.dumps({"stress": "curation-1m", "timings": t, "outputs": out}))


def rarity():
    """doc_rarity with a synthetic 10^6-term vocabulary: df_cap keeps the
    broadcast at the df<=cap tail while output stays identical to the
    uncapped run (VERDICT r2 next-round #6 done-criterion)."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.curation import doc_rarity

    d = os.path.join(STRESS_ROOT, "docs-bigvocab")
    marker = os.path.join(d, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(d, exist_ok=True)
        rng = np.random.default_rng(42)
        n_docs, vocab, toks_per_doc = 50_000, 1_000_000, 40
        for p in range(8):
            lo = p * (n_docs // 8)
            ids = np.arange(lo, lo + n_docs // 8, dtype=np.int64)
            # Zipf-ish mix: half the tokens from a hot head, half uniform
            # over the full vocab → a long df=1 tail plus common terms
            head = rng.integers(0, 5_000, (len(ids), toks_per_doc // 2))
            tail = rng.integers(0, vocab, (len(ids), toks_per_doc // 2))
            words = np.concatenate([head, tail], axis=1)
            texts = [" ".join(f"w{w}" for w in row) for row in words]
            pq.write_table(
                pa.Table.from_arrays(
                    [pa.array(ids), pa.array(texts, pa.string())],
                    names=["doc_id", "text"],
                ),
                os.path.join(d, f"part-{p:03d}.parquet"),
            )
        with open(marker, "w") as f:
            f.write("ok\n")

    def docs():
        return rd.read_parquet(d)

    t: dict[str, float] = {}
    full = timed(t, "uncapped", lambda: doc_rarity(docs()).to_pandas())
    capped = timed(t, "df_cap_4", lambda: doc_rarity(docs(), df_cap=4).to_pandas())
    key = lambda df: df.sort_values("doc_id").reset_index(drop=True)  # noqa: E731
    same = key(full).equals(key(capped))
    # broadcast bound: count terms at df<=4 vs total vocab
    import duckdb

    con = duckdb.connect()
    stats = con.execute(
        f"""WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
             FROM read_parquet('{d}/*.parquet')),
           dt AS (SELECT DISTINCT doc_id, term FROM toks),
           df AS (SELECT term, count(*) AS df FROM dt GROUP BY term)
           SELECT count(*) AS vocab,
                  sum(CASE WHEN df <= 4 THEN 1 ELSE 0 END) AS under_cap
           FROM df"""
    ).fetchone()
    ray.shutdown()
    print(
        json.dumps(
            {
                "stress": "rarity-bigvocab",
                "timings": t,
                "identical_output": bool(same),
                "rows": len(full),
                "vocab_terms": int(stats[0]),
                "broadcast_terms_at_cap4": int(stats[1]),
            }
        )
    )


def round3():
    """Round-3 operator tier: the passage family on the 1M-doc 200-deep
    dup corpus (adversarial: EVERY window is common, the broadcast set is
    the full distinct-window inventory of the base corpus and the removal
    pass excises nearly all tokens), the global shuffle rank at 10M rows,
    and the HTML main-content stage over a 200k-page corpus."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.curation import (
        passage_dedup_corpus,
        passage_stats,
        shuffle_rank,
    )
    from pdfz_ray.stages.html import main_content_batch, make_html_corpus

    d = replicate_documents(200, "docs-1m", n_parts=32, preserve_modulus=23)

    def docs():
        return rd.read_parquet(d, columns=["doc_id", "text"])

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    out["passage_stats"] = timed(
        t, "passage_stats_1m", lambda: passage_stats(docs()).count()
    )
    out["passage_dedup_survivors"] = timed(
        t, "passage_dedup_1m", lambda: passage_dedup_corpus(docs()).count()
    )
    out["shuffle_rank"] = timed(
        t,
        "shuffle_rank_10m",
        lambda: shuffle_rank(
            rd.range(10_000_000).map_batches(
                lambda b: pa.Table.from_arrays([b.column("id")], names=["doc_id"]),
                batch_format="pyarrow",
            ),
            bucket_hex_digits=3,
        ).count(),
    )

    # 200k-page HTML corpus: generate once from the sf0.1 documents table,
    # replicate 4x with distinct ids
    hd = os.path.join(STRESS_ROOT, "html-200k")
    marker = os.path.join(hd, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(hd, exist_ok=True)
        base = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
        pages = make_html_corpus(base)
        n = base.num_rows
        for k in range(4):
            pq.write_table(
                pages.set_column(
                    0, "doc_id", pc.add(pages.column("doc_id"), k * n)
                ),
                os.path.join(hd, f"part-{k:02d}.parquet"),
            )
        with open(marker, "w") as f:
            f.write("ok\n")
    out["html_pages"] = timed(
        t,
        "html_main_content_200k",
        lambda: rd.read_parquet(hd)
        .map_batches(main_content_batch, batch_format="pyarrow")
        .count(),
    )
    ray.shutdown()
    print(json.dumps({"stress": "round3", "timings": t, "outputs": out}))


def passage_sharded():
    """Passage family forced onto the sharded common-set path (r3
    next-round #9): the 1M-doc 200-deep dup corpus has a ~240k-hash
    common set; broadcast_limit=10k pushes both operators through the
    hash-partitioned merge instead of the driver broadcast."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.curation import passage_dedup_corpus, passage_stats

    d = replicate_documents(200, "docs-1m", n_parts=32, preserve_modulus=23)

    def docs():
        return rd.read_parquet(d, columns=["doc_id", "text"])

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    out["stats_rows"] = timed(
        t,
        "passage_stats_1m_sharded",
        lambda: passage_stats(docs(), broadcast_limit=10_000).count(),
    )
    out["dedup_rows"] = timed(
        t,
        "passage_dedup_1m_sharded",
        lambda: passage_dedup_corpus(docs(), broadcast_limit=10_000).count(),
    )
    ray.shutdown()
    print(json.dumps({"stress": "passage-sharded-1m", "timings": t, "outputs": out}))


def windows1m():
    """1M-event tier for the bucketed window family (VERDICT r3
    next-round #4): sf0.1 events × 10 with unique event_ids and the SAME
    user population, so every user's history is 10× deeper — the shape
    that killed the per-user map_groups granularity. All three ops run
    through the bounded ``user_id % B`` shuffle key with fully
    vectorized per-bucket kernels."""
    ray = init_ray()

    from pdfz_ray.functions.windows import (
        asof_join_events,
        asof_join_events_ds,
        running_event_counts,
        running_event_counts_ds,
        sessionize_bucketed,
        sessionize_bucketed_ds,
    )

    d = os.path.join(STRESS_ROOT, "events-1m")
    marker = os.path.join(d, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(d, exist_ok=True)
        base = pq.read_table(f"{SF_DIR}/events.parquet")
        n = base.num_rows
        i = base.column_names.index("event_id")
        parts = [
            base.set_column(i, "event_id", pc.add(base.column("event_id"), k * n))
            for k in range(10)
        ]
        pq.write_table(pa.concat_tables(parts), os.path.join(d, "events.parquet"))
        with open(marker, "w") as f:
            f.write("ok\n")

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    # untimed session warmup: the first timed op otherwise pays worker
    # spin-up + module import (~4 s on this host) and gets misattributed
    running_event_counts_ds(d).count()
    # production (non-collecting) variants first: Dataset consumed with
    # count() — the operator cost WITHOUT the driver collect (VERDICT r4
    # next-round #6: the r4 1M running-counts number carried ~7.7 s of
    # driver-side to_pandas that belongs to the query boundary, not the
    # operator)
    out["running_rows"] = timed(
        t, "running_event_counts_1m_ds", lambda: running_event_counts_ds(d).count()
    )
    out["asof_rows"] = timed(
        t, "asof_join_1m_ds", lambda: asof_join_events_ds(d).count()
    )
    out["sessions"] = timed(
        t, "sessionize_bucketed_1m_ds", lambda: sessionize_bucketed_ds(d).count()
    )
    # collecting wrappers, for the operator+collect comparison line
    timed(t, "running_event_counts_1m", lambda: len(running_event_counts(d)))
    timed(t, "asof_join_1m", lambda: len(asof_join_events(d)))
    timed(t, "sessionize_bucketed_1m", lambda: len(sessionize_bucketed(d)))
    ray.shutdown()
    print(json.dumps({"stress": "windows-1m", "timings": t, "outputs": out}))


def prep1m():
    """Round-4 prep-operator tier: 1M-doc chunking / bigram / TF-IDF and
    SemDeDup over 128k vectors (64× replicated sf0.1 embeddings — every
    vector a 64-deep exact-dup group, the adversarial profile; 64 clusters
    keeps Σ|cluster|² matmuls ~2k-row, the paper's n/1e4 shape)."""
    ray = init_ray()
    import ray.data as rd

    from pdfz_ray.functions.dedup import semantic_dedup
    from pdfz_ray.functions.prep import bigram_top, chunk_documents, tfidf_topk

    d = replicate_documents(200, "docs-1m")

    # embeddings × 64 with unique vec_ids (same replicate pattern)
    e_dir = os.path.join(STRESS_ROOT, "emb-128k")
    marker = os.path.join(e_dir, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(e_dir, exist_ok=True)
        base = pq.read_table(f"{SF_DIR}/embeddings.parquet")
        n = base.num_rows
        vid = base.schema.get_field_index("vec_id")
        for p, ks in enumerate(np.array_split(np.arange(64), 8)):
            parts = [
                base.set_column(
                    vid, "vec_id", pc.add(base.column("vec_id"), int(k) * n)
                )
                for k in ks
            ]
            pq.write_table(
                pa.concat_tables(parts), os.path.join(e_dir, f"part-{p:03d}.parquet")
            )
        with open(marker, "w") as f:
            f.write("ok\n")

    t: dict[str, float] = {}
    out: dict[str, int] = {}
    out["chunks"] = timed(
        t,
        "chunk_1m",
        lambda: chunk_documents(rd.read_parquet(d, columns=["doc_id", "text"])).count(),
    )
    out["bigrams"] = timed(
        t, "bigram_1m", lambda: bigram_top(SF_DIR, k=20, docs_path=d)
    ).shape[0]
    out["tfidf_rows"] = timed(
        t, "tfidf_1m", lambda: len(tfidf_topk(SF_DIR, k=3, docs_path=d))
    )
    from pdfz_ray.functions.prep import lm_coverage

    out["lm_rows"] = timed(
        t, "lm_coverage_1m", lambda: len(lm_coverage(SF_DIR, docs_path=d))
    )
    sd = timed(
        t,
        "semantic_128k",
        lambda: semantic_dedup(
            rd.read_parquet(e_dir), n_clusters=64, threshold=0.45
        ),
    )
    out["semantic_rows"] = sd.num_rows
    out["semantic_dropped"] = int(
        pc.sum(pc.cast(sd.column("dropped"), pa.int64())).as_py()
    )
    # round-5 cluster-size cap (VERDICT r4 next-round #5): force the
    # degenerate one-giant-cluster profile (n_clusters=1 over 128k
    # vectors, every one a 64-deep exact-dup) with a small cap so the LSH
    # sub-shard + survivor paths carry the whole tier — the uncapped
    # equivalent is a 128k x 128k matmul
    sd_cap = timed(
        t,
        "semantic_128k_one_cluster_cap8k",
        lambda: semantic_dedup(
            rd.read_parquet(e_dir),
            n_clusters=1,
            threshold=0.45,
            cluster_cap=8192,
        ),
    )
    out["semantic_capped_dropped"] = int(
        pc.sum(pc.cast(sd_cap.column("dropped"), pa.int64())).as_py()
    )
    ray.shutdown()
    print(json.dumps({"stress": "prep-1m", "timings": t, "outputs": out}))


def plan():
    """The job path's per-run plan across dup rate × jobs-table size: one
    JSON line per point with the ``scan_duplicates`` wall and the driver's
    CPU inside it (``time.process_time``, which does not grow with the
    number of dup ids) over a fresh 32-file corpus, checked against a
    brute-force count (the dup ids, and per file the row offsets of every
    copy but the first in (file, row) order), the jobs lookup build on the
    driver, and the in-task ``ray.get`` of the broadcast lookup and
    ``_job_arrays`` for one 2,048-row batch (median of 3). Corpus files
    live in a temp dir (``TMPDIR``), removed after each point.
    """
    import tempfile
    from collections import Counter

    from pdfz_ray.jobs import jobs_table_to_lookup
    from pdfz_ray.pipelines.extract_pipeline import scan_duplicates

    ray = init_ray()

    @ray.remote(num_cpus=1)
    def in_task(refs: list, doc_ids: pa.Array) -> tuple[float, float]:
        from pdfz_ray.stages.extract import _job_arrays

        t0 = time.perf_counter()
        lookup = ray.get(refs[0])
        t1 = time.perf_counter()
        _job_arrays(doc_ids, lookup)
        return (t1 - t0) * 1e3, (time.perf_counter() - t1) * 1e3

    docs, files, batch = 100_000, 32, 2048
    rng = np.random.default_rng(0)
    for dup_rate in (0.0001, 0.01, 0.5):
        n_dup = int(round(dup_rate / (1 - dup_rate) * docs))
        idx = np.concatenate([np.arange(docs), rng.integers(0, docs, n_dup)])
        ids = np.char.add("doc-", np.char.zfill(idx[rng.permutation(len(idx))].astype(str), 8))
        for jobs_rows in (10**3, 10**5, 10**6):
            jobs = pa.table({
                "doc_id": np.char.add("doc-", np.char.zfill(
                    rng.permutation(jobs_rows).astype(str), 8)),
                "start_page": rng.integers(0, 4, jobs_rows).astype(np.int32),
                "page_count": rng.integers(0, 3, jobs_rows).astype(np.int32),
                "engine": rng.choice(["tesseract", "Ollama", "", "paddle"], jobs_rows),
            })
            with tempfile.TemporaryDirectory(prefix="pdfz_plan_") as d:
                paths = []
                for i, chunk in enumerate(np.array_split(ids, files)):
                    paths.append(os.path.join(d, f"in-{i:03d}.parquet"))
                    pq.write_table(pa.table({"doc_id": chunk}), paths[-1])
                t0, c0 = time.perf_counter(), time.process_time()
                dup_ids, drop, _ = scan_duplicates(paths)
                scan_s = time.perf_counter() - t0
                scan_cpu_s = time.process_time() - c0
            want = {k for k, c in Counter(ids.tolist()).items() if c > 1}
            seen, want_drop = set(), {}
            for p, chunk in zip(paths, np.array_split(ids, files)):
                for row, k in enumerate(chunk.tolist()):
                    if k in seen:
                        want_drop.setdefault(p, []).append(row)
                    seen.add(k)
            exact = (
                len(dup_ids) == len(want)
                and set(dup_ids.to_pylist()) == want
                and {p: o.tolist() for p, o in drop.items()} == want_drop
            )
            t0 = time.perf_counter()
            lookup = jobs_table_to_lookup(jobs)
            build_s = time.perf_counter() - t0
            refs = [ray.put(lookup)]
            sample = pa.array(ids[:batch])
            runs = ray.get([in_task.remote(refs, sample) for _ in range(3)])
            get_ms, arrays_ms = (float(np.median(x)) for x in zip(*runs))
            del refs
            print(json.dumps({
                "stress": "plan", "dup_rate": dup_rate, "jobs_rows": jobs_rows,
                "rows": len(ids), "dup_ids": len(dup_ids), "scan_exact": exact,
                "scan_s": round(scan_s, 4), "scan_driver_cpu_s": round(scan_cpu_s, 4),
                "lookup_build_s": round(build_s, 4),
                "task_get_ms": round(get_ms, 2), "task_job_arrays_ms": round(arrays_ms, 2),
            }), flush=True)
    ray.shutdown()


def waves():
    """The group tasks of both entry points across rows per file (100,
    2k, 50k) on one Ray CPU: many tiny files packed into one task, and one
    large file read in slices. The job path runs at ``batch_size`` 512 and
    2048; on one CPU an execution's row target is half its rows (at least
    ``batch_size``, at most 16 × ``batch_size``), so it runs at most two
    group tasks until that clamp binds. One JSON line per point: read
    tasks per wave (the ``_file_groups`` of each wave),
    ``driver_cpu_per_task_ms`` (the job's driver CPU below over its group
    tasks: it holds the per-job planning too, so it rises as the tasks get
    fewer and is not what one task costs), the spans each group task reads (max,
    median and max/median over the run's groups: the balance of the plan,
    which no host changes), Ray Data executions per run (the
    ``_group_tasks`` calls of ``run_partitioned``: at most two, the first
    partition alone and then the rest), and the medians over 3 fresh jobs, after one warm-up job,
    of the driver's CPU per job (``RUSAGE_SELF``, so Ray Data's executor
    threads count) and of ``first_commit_s`` (job start to the first
    manifest commit); the last job's output is checked against the oracle.
    Each line also carries one ``build_extract_pipeline(paths)`` run over
    the same corpus: its file groups, the tasks its group-task operator
    executed (from ``stats()``; equal to the groups unless Ray bundles
    groups into one task), and whether its rows match the oracle.

    One more corpus, 8 files of 1,000 rows at ``partition_size`` 2, packs
    16 monster docs of 2,900 spans (the benchmark's ``skewed_monsters``
    shape: 2 per file on average) into the head of its last file. A wave
    has one chain, with no stage that re-blocks such docs, so that file's
    group is one task whatever the CPU count: its max/median spans per
    group is the imbalance a span-budget cut of the groups would remove.

    A last line runs one corpus of 32 files of 500 rows (the shape of the
    benchmark's ``bulk_lowdup``) at ``partition_size`` 2 (16 partitions)
    and 32 (one), ``batch_size`` 2048, and gives each one's executions per
    run, driver CPU, first commit and job wall, and the ratios of size 2
    to size 32: fine partitions should cost little more than coarse ones.
    Each corpus is written once into a temp dir (``TMPDIR``) and removed
    after its points.

    The driver's cost of one task is the fall in driver CPU per job over
    the fall in tasks between two cuts of one corpus. This command run on
    this cut and on the earlier one at ``batch_size`` rows (one run each,
    1 CPU, the same corpora) gave 4.5–10.4 ms per task on the seven points
    whose task count fell by 4 or more: at ``batch_size`` 512 the 200 ×
    100-row corpus went from 40 tasks and 0.428 s of driver CPU per job to
    4 tasks and 0.140 s (8.0 ms per task), and the 32 × 500-row corpus at
    ``partition_size`` 32 from 8 tasks and 0.118 s to 2 tasks and 0.056 s
    (10.3 ms). The kernels of 2,048 rows take about 31 ms (``kernels``
    below, ``bulk_lowdup``: 246 ms over 16,080 rows), so a task cut at
    2,048 rows paid the driver 0.15–0.34 of its kernel time, and a task of
    about 8,000 rows at the row target pays it under 0.1. The rest of a
    job's driver CPU, 0.04–0.11 s on these corpora, is spent once per
    job (dup scan, broadcast, two executions' start-up, commits)."""
    import re
    import resource
    import tempfile

    import pyarrow.dataset as pads

    from pdfz_ray.corpus import make_document, make_documents, make_jobs
    from pdfz_ray.oracle import extract_corpus, flatten_results, jobs_table_to_dict
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.schema import DOCUMENTS_SCHEMA
    from pdfz_ray.stages.extract import flatten_output
    from pdfz_ray.state.manifest import Manifest

    os.environ.setdefault("RAY_GRAFT_CPUS", "1")
    ray = init_ray()
    planned: list[list[list[str]]] = []
    chains: list[int] = []
    file_spans: dict[str, int] = {}
    real_groups, real_chain = ep._file_groups, ep._group_tasks

    def counted(*a, **k):
        groups = real_groups(*a, **k)
        planned.append(groups)
        return groups

    def chain(*a, **k):
        chains.append(1)
        return real_chain(*a, **k)

    ep._file_groups, ep._group_tasks = counted, chain

    def corpus(d, rows, n_files, packed=0):
        # make_documents appends one copy of every 11th doc
        tbl = make_documents(rows * n_files * 11 // 12, monster_spans=50)
        tbl = tbl.slice(0, rows * n_files - packed)
        if packed:
            # monster family ids (i % 11 == 9) past every corpus's own
            big = [
                make_document(11_000_009 + 11 * j, monster_spans=2_900) for j in range(packed)
            ]
            head = rows * (n_files - 1)
            tbl = pa.concat_tables([
                tbl.slice(0, head),
                pa.Table.from_pylist(big, schema=DOCUMENTS_SCHEMA),
                tbl.slice(head),
            ])
        jobs = make_jobs(tbl.num_rows)
        want = sorted(
            tuple(r.values())
            for r in flatten_results(extract_corpus(tbl.to_pylist(), jobs_table_to_dict(jobs)))
        )
        paths = []
        for i in range(n_files):
            paths.append(os.path.join(d, f"in-{i:04d}.parquet"))
            part = tbl.slice(i * rows, rows)
            pq.write_table(part, paths[-1])
            file_spans[paths[-1]] = int(pc.sum(pc.list_value_length(part.column("spans"))).as_py())
        return paths, jobs, want

    def jobs_run(d, paths, jobs, want, partition_size, batch_size):
        """Medians of 3 timed jobs after a warm-up one, and the last job's
        executions, tasks per wave, spans per group task and oracle
        check."""
        cpu, first, wall = [], [], []
        for run in range(4):
            out = os.path.join(d, f"out-{partition_size}-{batch_size}-{run}")
            planned.clear()
            chains.clear()
            t0, r0 = time.time(), resource.getrusage(resource.RUSAGE_SELF)
            ep.run_partitioned(
                paths, out, jobs, partition_size=partition_size,
                batch_size=batch_size, ocr=True,
            )
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if run:  # run 0 warms the workers
                wall.append(time.time() - t0)
                cpu.append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
                commits = [r["committed_at"] for r in Manifest(out).completed().values()]
                first.append(min(commits) - t0)
        got = flatten_output(pads.dataset(out, format="parquet").to_table())
        spans = [sum(file_spans[f] for f in g) for groups in planned for g in groups]
        return {
            "executions": len(chains),
            "tasks_per_wave": [len(groups) for groups in planned],
            "driver_cpu_per_task_ms": round(1e3 * float(np.median(cpu)) / len(spans), 1),
            "group_spans": {
                "max": max(spans),
                "median": float(np.median(spans)),
                "max_to_median": round(max(spans) / float(np.median(spans)), 2),
            },
            "driver_cpu_s": round(float(np.median(cpu)), 3),
            "first_commit_s": round(float(np.median(first)), 3),
            "wall_s": round(float(np.median(wall)), 3),
            "oracle_exact": sorted(tuple(r.values()) for r in got.to_pylist()) == want,
        }

    # (rows per file, files, files per partition, packed monsters): ~4
    # partitions each
    for rows, n_files, partition_size, packed in (
        (100, 200, 50, 0), (2_000, 10, 3, 0), (50_000, 1, 1, 0), (1_000, 8, 2, 16)
    ):
        with tempfile.TemporaryDirectory(prefix="pdfz_waves_") as d:
            paths, jobs, want = corpus(d, rows, n_files, packed)
            planned.clear()
            lib = ep.build_extract_pipeline(paths, jobs, ocr=True).materialize()
            lib_got = flatten_output(pa.concat_tables(ray.get(lib.to_arrow_refs())))
            (lib_tasks,) = [
                int(n) for op, n in re.findall(
                    r"^Operator \d+ (.+?): (\d+) tasks executed", lib.stats(), re.M
                ) if "group_task" in op
            ]
            library = {
                "groups": len(planned[0]), "tasks": lib_tasks,
                "oracle_exact": sorted(tuple(r.values()) for r in lib_got.to_pylist()) == want,
            }
            for batch_size in (512, 2048):
                print(json.dumps({
                    "stress": "waves", "rows_per_file": rows, "files": n_files,
                    "packed_monsters": packed,
                    "partition_size": partition_size, "batch_size": batch_size,
                    **jobs_run(d, paths, jobs, want, partition_size, batch_size),
                    "library": library,
                }), flush=True)

    with tempfile.TemporaryDirectory(prefix="pdfz_waves_") as d:
        paths, jobs, want = corpus(d, 500, 32)
        sizes = {size: jobs_run(d, paths, jobs, want, size, 2048) for size in (2, 32)}
        print(json.dumps({
            "stress": "waves", "rows_per_file": 500, "files": 32, "batch_size": 2048,
            "partition_size": {str(size): r for size, r in sizes.items()},
            "ratio_2_to_32": {
                k: round(sizes[2][k] / sizes[32][k], 3)
                for k in ("driver_cpu_s", "first_commit_s", "wall_s")
            },
        }), flush=True)
    ray.shutdown()


def kernels():
    """The layers of the job path's group task, timed in-process with no
    Ray: ``_read_group`` (read less the later copies), ``extract_batch``
    (with payloads, the jobs lookup), ``ocr_task`` and the job's own
    writer, ``_partition_writer``. Inputs are the three perfbench corpora
    (``perfbench.workloads.make_corpus``) at seed 5, cut into file groups
    at a row target of ``batch_size`` 2048 (the least a job uses) with
    each workload's partition size, each group read in pieces of at most
    ``batch_size`` rows of one partition each; the later
    copies to drop are found here in (file, row) order, as
    ``scan_duplicates`` finds them. One JSON line per workload: the median
    ms over 7 passes of each layer (summed over the pass's pieces) and the
    bytes the writer left (its file names are the same every pass, so a
    pass overwrites the last). Corpus and output live in a temp dir
    (``TMPDIR``), removed after each workload."""
    import shutil
    import tempfile

    from perfbench.workloads import WORKLOADS, make_corpus
    from pdfz_ray.jobs import jobs_table_to_lookup
    from pdfz_ray.pipelines import extract_pipeline as ep
    from pdfz_ray.stages.engines import ocr_task
    from pdfz_ray.stages.extract import extract_batch
    from pdfz_ray.state.manifest import Manifest

    batch_size, seed, passes = 2048, 5, 7
    layers = ("read", "extract", "ocr", "write")
    for name, w in WORKLOADS.items():
        corpus = make_corpus(w, seed)
        lookup = jobs_table_to_lookup(corpus.jobs)
        d = tempfile.mkdtemp(prefix="pdfz_kernels_")
        try:
            paths, rows, drop, seen = [], {}, {}, set()
            for i, t in enumerate(corpus.files):
                paths.append(os.path.join(d, f"in-{i:03d}.parquet"))
                pq.write_table(t, paths[-1])
                rows[paths[-1]] = t.num_rows
                later = []
                for row, k in enumerate(t.column("doc_id").to_pylist()):
                    if k in seen:
                        later.append(row)
                    seen.add(k)
                drop[paths[-1]] = np.asarray(later, np.int64)
            pid_of = {p: i // w.partition_size for i, p in enumerate(paths)}
            out_dir = os.path.join(d, "out")
            manifest = Manifest(out_dir)
            dirs = [manifest.begin(pid) for pid in sorted(set(pid_of.values()))]
            writer = ep._partition_writer(manifest)
            groups = ep._file_groups(paths, rows, batch_size)
            runs = {k: [] for k in layers}
            for _ in range(passes):
                t = dict.fromkeys(layers, 0.0)
                for g in groups:
                    pieces = ep._read_group(
                        g, [pid_of[f] for f in g], [drop[f] for f in g], batch_size
                    )
                    while True:
                        t0 = time.perf_counter()
                        piece = next(pieces, None)
                        t["read"] += time.perf_counter() - t0
                        if piece is None:
                            break
                        pid, docs = piece
                        t0 = time.perf_counter()
                        out = extract_batch(docs, lookup, emit_payloads=True)
                        t1 = time.perf_counter()
                        out = ocr_task(out)
                        t2 = time.perf_counter()
                        if docs.num_rows:
                            writer(pid, out)
                        t["extract"] += t1 - t0
                        t["ocr"] += t2 - t1
                        t["write"] += time.perf_counter() - t2
                for k in layers:
                    runs[k].append(t[k] * 1e3)
            written = sum(
                os.path.getsize(os.path.join(o, f)) for o in dirs for f in os.listdir(o)
            )
            print(json.dumps({
                "stress": "kernels", "workload": name, "seed": seed,
                "batch_size": batch_size, "groups": len(groups), "passes": passes,
                **{f"{k}_ms": round(float(np.median(runs[k])), 1) for k in layers},
                "out_bytes": written,
            }), flush=True)
        finally:
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    {
        "neardup": neardup,
        "curation1m": curation1m,
        "rarity": rarity,
        "round3": round3,
        "windows1m": windows1m,
        "passage_sharded": passage_sharded,
        "prep1m": prep1m,
        "plan": plan,
        "waves": waves,
        "kernels": kernels,
    }[sys.argv[1]]()
