"""Benchmark workloads: a seeded synthetic corpus per workload.

Every workload is an extract job with OCR on and batch size 2048; only the
corpus and the CLI flags differ. ``make_corpus(workload, seed)`` is a pure
function of its arguments: the same seed gives byte-identical parquet
inputs and jobs table.

The corpus is built column-wise with numpy and Arrow (no per-span Python
objects), so generating it stays a small share of a run.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
DOCS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_TYPE))])
JOBS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("start_page", pa.int32()),
        ("page_count", pa.int32()),
        ("engine", pa.string()),
        ("model", pa.string()),
    ]
)

BATCH_SIZE = 2048

_VOCAB = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua enim minim veniam "
    "quis nostrud exercitation ullamco laboris nisi aliquip ex ea commodo"
).split()
_UNICODE = [
    "héllo wörld",
    "naïve café\nnew line",
    "日本語のテキスト",
    "пример текста",
    "emoji ✨ and\ttab",
    "  leading and trailing  ",
    "",
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int  # distinct regular documents
    files: int
    dup_rate: float  # duplicate rows as a share of all regular rows
    job_share: float  # share of doc_ids that carry a jobs-table row
    partition_size: int
    monsters_per_file: int = 0
    monster_spans: int = 0
    skew_threshold: int | None = None

    def cli_args(self, inputs: str, jobs: str, out: str) -> list[str]:
        """The arguments a user passes to ``python -m pdfz_ray.job``."""
        args = [
            "--input", inputs,
            "--out", out,
            "--jobs", jobs,
            "--partition-size", str(self.partition_size),
            "--batch-size", str(BATCH_SIZE),
            "--num-cpus", "1",
        ]
        if self.skew_threshold is not None:
            args += ["--skew-threshold", str(self.skew_threshold)]
        return args

    def scaled(self, scale: float) -> "Workload":
        """The same workload with ``scale`` times the documents (self-tests)."""
        return replace(
            self,
            docs=max(64, int(self.docs * scale)),
            monster_spans=max(200, int(self.monster_spans * scale))
            if self.monster_spans
            else 0,
        )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "bulk_lowdup",
            "design point: 0.5% scattered dups, 2 coarse partitions; Ray Data "
            "execution around the kernels takes ~2/3 of a job, "
            "read/extract/OCR/write ~1/3",
            docs=16_000,
            files=32,
            dup_rate=0.005,
            job_share=0.01,
            partition_size=16,
        ),
        Workload(
            "partitioned_dups",
            "16 partitions, 8% scattered cross-partition dups, jobs window half "
            "the ids; per-partition plans, dedup and commits dominate",
            docs=16_000,
            files=32,
            dup_rate=0.08,
            job_share=0.5,
            partition_size=2,
        ),
        Workload(
            "skewed_monsters",
            "2 docs per file hold ~200x the median span count and ~40% of "
            "spans, routed by a fixed --skew-threshold",
            docs=16_000,
            files=32,
            dup_rate=0.005,
            job_share=0.01,
            partition_size=16,
            monsters_per_file=2,
            monster_spans=2_900,
            skew_threshold=400,
        ),
    ]
}


def _phrase_pool(rng: np.random.Generator, n: int = 2048) -> pa.Array:
    words = np.array(_VOCAB)
    lens = rng.integers(1, 13, n)
    pool = [" ".join(words[rng.integers(0, len(words), k)]) for k in lens]
    pool[: len(_UNICODE)] = _UNICODE
    return pa.array(pool, pa.string())


def _documents(
    rng: np.random.Generator,
    doc_ids: list[str],
    pool: pa.Array,
    media_tag: str,
    pages: tuple[int, int],
) -> pa.Table:
    """One row per id with interleaved text/media spans.

    Pages have gaps (absent page numbers); each page holds 0-7 text spans
    and 0-2 media spans in random intra-page order; ~10% of media payloads
    are undecodable (``!bad`` prefix) and some text spans are empty.
    """
    n = len(doc_ids)
    n_pages = rng.integers(pages[0], pages[1] + 1, n)
    g = int(n_pages.sum())
    gaps = rng.choice(np.array([1, 1, 1, 2]), g)
    cum = np.cumsum(gaps)
    first = np.cumsum(n_pages) - n_pages
    page_off = cum - np.repeat(cum[first] - gaps[first], n_pages)
    n_text = rng.integers(0, 8, g)
    n_media = rng.choice(np.array([0, 0, 1, 1, 1, 2]), g)
    per_page = n_text + n_media
    s = int(per_page.sum())
    span_page = np.repeat(np.arange(g), per_page)
    rank = np.arange(s) - np.repeat(np.cumsum(per_page) - per_page, per_page)
    is_media = rank >= np.repeat(n_text, per_page)
    order = np.lexsort((rng.random(s), span_page))
    span_page, is_media = span_page[order], is_media[order]

    n_m = int(is_media.sum())
    text_idx = rng.integers(0, len(pool), s - n_m)
    bad = rng.random(n_m) < 0.1
    k = pc.cast(pa.array(np.arange(n_m)), pa.string())
    prefix = pa.array(np.where(bad, f"!bad-{media_tag}-", f"img-{media_tag}-"))
    payload = pc.binary_join_element_wise(prefix, k, "")
    mref = pc.binary_join_element_wise(pa.array([f"in-{media_tag}-"] * n_m, pa.string()), k, "")

    # texts first, then media; one take puts every span in its slot
    slot = np.empty(s, np.int64)
    slot[~is_media] = np.arange(s - n_m)
    slot[is_media] = (s - n_m) + np.arange(n_m)
    take = pa.array(slot)
    kind = pa.array(np.where(is_media, "media", "text"))
    text = pa.concat_arrays([pool.take(pa.array(text_idx)), payload]).take(take)
    ref = pa.concat_arrays([pa.array([""] * (s - n_m), pa.string()), mref]).take(take)
    offset = pa.array(page_off[span_page].astype(np.int32))
    spans = pa.StructArray.from_arrays([kind, text, ref, offset], fields=list(SPAN_TYPE))
    per_doc = np.bincount(np.repeat(np.arange(n), n_pages), weights=per_page, minlength=n)
    offs = np.zeros(n + 1, np.int32)
    np.cumsum(per_doc.astype(np.int64), out=offs[1:])
    lists = pa.ListArray.from_arrays(pa.array(offs), spans)
    return pa.Table.from_arrays([pa.array(doc_ids, pa.string()), lists], schema=DOCS_SCHEMA)


def _jobs(rng: np.random.Generator, ids: np.ndarray, share: float) -> pa.Table:
    n = max(1, int(len(ids) * share))
    chosen = rng.choice(ids, n, replace=False)
    phantom = [f"doc-ghost-{i}" for i in range(4)]  # jobs for absent docs
    m = n + len(phantom)
    engines = rng.choice(
        np.array(["tesseract"] * 16 + ["Tesseract", "ollama", "paddle"]), m
    )
    return pa.Table.from_arrays(
        [
            pa.array(list(chosen) + phantom, pa.string()),
            pa.array(rng.choice(np.array([1, 1, 2, 3, 5]), m).astype(np.int32)),
            pa.array(rng.choice(np.array([0, 0, 1, 2, 4, 99]), m).astype(np.int32)),
            pa.array(engines, pa.string()),
            pa.array(np.where(engines == "ollama", "llava", ""), pa.string()),
        ],
        schema=JOBS_SCHEMA,
    )


@dataclass
class Corpus:
    files: list[pa.Table]  # in file order
    jobs: pa.Table
    dup_rows: int
    monsters: int


def make_corpus(w: Workload, seed: int) -> Corpus:
    """Regular docs, duplicate rows scattered through the whole row order
    (a re-ingested copy whose content changed, so which row wins matters),
    then ``monsters_per_file`` huge docs at random places in each file."""
    entropy = [seed % (1 << 63), zlib.crc32(w.name.encode()), w.docs]  # any int seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    pool = _phrase_pool(rng)
    corrupt = rng.random(w.docs) < 0.005
    ids = np.array(
        [f"doc-{i:07d}" + ("-corrupt" if c else "") for i, c in enumerate(corrupt)]
    )
    base = _documents(rng, list(ids), pool, f"{seed}a", (1, 7))
    n_dup = int(round(w.dup_rate / (1 - w.dup_rate) * w.docs))
    dup_ids = rng.choice(ids, n_dup, replace=False)
    dups = _documents(rng, list(dup_ids), pool, f"{seed}b", (1, 7))
    # a dup row lands anywhere, before or after its first copy
    keys = np.concatenate([np.arange(w.docs, dtype=float), rng.uniform(-0.5, w.docs, n_dup)])
    order = np.argsort(keys, kind="stable")
    rows = pa.concat_tables([base, dups])
    chunks = np.array_split(order, w.files)
    n_mon = w.monsters_per_file * w.files
    monsters = None
    if n_mon:
        spans_per_page = 4.33  # mean of the page layout in _documents
        pages = int(w.monster_spans / spans_per_page)
        monsters = _documents(
            rng, [f"mon-{i:05d}" for i in range(n_mon)], pool, f"{seed}m", (pages, pages)
        )
    files = []
    for f, chunk in enumerate(chunks):
        t = rows.take(pa.array(chunk))
        if monsters is not None:
            m = monsters.slice(f * w.monsters_per_file, w.monsters_per_file)
            t = pa.concat_tables([t, m])
            pos = np.concatenate(
                [np.arange(len(chunk), dtype=float), rng.uniform(0, len(chunk), m.num_rows)]
            )
            t = t.take(pa.array(np.argsort(pos, kind="stable")))
        files.append(t.combine_chunks())
    return Corpus(files, _jobs(rng, ids, w.job_share), n_dup, n_mon)


def write_corpus(c: Corpus, root: str) -> tuple[str, str]:
    """Write inputs as ``in-NNN.parquet`` plus ``jobs.parquet``; returns
    (input glob, jobs path) as a user would pass them to the CLI."""
    os.makedirs(root, exist_ok=True)
    for i, t in enumerate(c.files):
        pq.write_table(t, os.path.join(root, f"in-{i:03d}.parquet"))
    jobs = os.path.join(root, "jobs.parquet")
    pq.write_table(c.jobs, jobs)
    return os.path.join(root, "in-*.parquet"), jobs
