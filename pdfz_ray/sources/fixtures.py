"""On-disk deterministic fixtures for the interleaved extraction tables.

The driver's testdata has no interleaved-span table, so the extraction
queries synthesize one (seed=42, content a pure function of (sf, row)) and
write it under ``/tmp/pdfz_ray_fixtures/{sf}/`` the first time it is
needed. The DuckDB oracle SQL reads the *same parquet file*, so Ray and
SQL compute over identical input. A golden flat output (from the pure
oracle) is also written for non-SQL-expressible comparisons.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..corpus import make_documents, make_jobs, make_media
from ..oracle import extract_corpus, flatten_results
from ..schema import FLAT_OUTPUT_SCHEMA

FIXTURE_ROOT = "/tmp/pdfz_ray_fixtures"

# docs per scale factor (duplicate family adds ~9% rows on top)
SF_DOCS = {"sf0.001": 200, "sf0.01": 1000, "sf0.1": 4000}
DEFAULT_DOCS = 1000
MONSTER_SPANS = 800


def sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir)) or "sf0.01"


def fixture_dir(sf_dir: str) -> str:
    return os.path.join(FIXTURE_ROOT, sf_name(sf_dir))


def ensure_fixtures(sf_dir: str) -> dict[str, str]:
    """Idempotently materialize the fixture parquet set for this sf."""
    d = fixture_dir(sf_dir)
    paths = {
        "documents_spans": os.path.join(d, "documents_spans.parquet"),
        "jobs": os.path.join(d, "jobs.parquet"),
        "media": os.path.join(d, "media.parquet"),
        "golden_flat": os.path.join(d, "golden_flat.parquet"),
        "golden_text": os.path.join(d, "golden_text.parquet"),
        "golden_audio": os.path.join(d, "golden_audio.parquet"),
        "html_docs": os.path.join(d, "html_docs.parquet"),
        "golden_html": os.path.join(d, "golden_html.parquet"),
        "golden_resize": os.path.join(d, "golden_resize.parquet"),
    }
    # v8: html corpus now escapes doc text (advisor r3 — text containing
    # <, & or > must not produce malformed markup); bumping regenerates
    # stale caches
    marker = os.path.join(d, "_DONE_v8")
    if os.path.exists(marker):
        return paths
    os.makedirs(d, exist_ok=True)
    n = SF_DOCS.get(sf_name(sf_dir), DEFAULT_DOCS)
    docs = make_documents(n, monster_spans=MONSTER_SPANS)
    pq.write_table(docs, paths["documents_spans"])
    pq.write_table(make_jobs(n), paths["jobs"])
    pq.write_table(make_media(max(n // 2, 50)), paths["media"])
    golden = flatten_results(extract_corpus(docs.to_pylist()))
    pq.write_table(
        pa.Table.from_pylist(golden, schema=FLAT_OUTPUT_SCHEMA), paths["golden_flat"]
    )
    docs_pq = os.path.join(sf_dir, "documents.parquet")
    if os.path.exists(docs_pq):
        _write_text_goldens(docs_pq, paths["golden_text"])
        _write_html_goldens(docs_pq, paths["html_docs"], paths["golden_html"])
    _write_audio_goldens(paths["media"], paths["golden_audio"])
    _write_resize_goldens(paths["media"], paths["golden_resize"])
    with open(marker, "w") as f:
        f.write("ok\n")
    return paths


def _write_audio_goldens(media_pq: str, out_path: str, window: int = 1024) -> None:
    """PCM-s16le feature reference computed with a plain-Python byte loop
    (int.from_bytes two's-complement) — independent of the numpy
    AudioEnergyStage it differentially checks."""
    t = pq.read_table(media_pq, columns=["media_ref", "payload"])
    rows = []
    for ref, payload in zip(
        t.column("media_ref").to_pylist(), t.column("payload").to_pylist()
    ):
        p = payload or b""
        p = p[: len(p) - (len(p) % 2)]
        energy = 0
        peak = 0
        n = len(p) // 2
        for i in range(n):
            s = int.from_bytes(p[2 * i : 2 * i + 2], "little", signed=True)
            energy += s * s
            peak = max(peak, abs(s))
        rows.append(
            {
                "media_ref": ref,
                "n_samples": n,
                "n_windows": -(-n // window),
                "energy": energy,
                "peak": peak,
            }
        )
    pq.write_table(pa.Table.from_pylist(rows), out_path)


def _write_text_goldens(docs_pq: str, out_path: str) -> None:
    """Golden content keys over the driver's flat documents table, computed
    by the pure-Python *reference* implementations (byte loops / per-doc
    signing) — the vectorized operators are differentially checked against
    this file via oracle_sql(). Independent code path, same semantics."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.dedup import SimHasher
    from ..oracle import rolling64_ref, winnow_fingerprints

    t = pq.read_table(docs_pq, columns=["doc_id", "text"])
    texts = t.column("text").to_pylist()
    low = pc.utf8_lower(t.column("text"))
    norm = pc.replace_substring_regex(
        low, pattern=r"\s+", replacement=" "
    ).to_pylist()
    rolling = [rolling64_ref(s or "") for s in norm]
    wfs = [winnow_fingerprints(s) for s in texts]
    xors = [int(np.bitwise_xor.reduce(np.array(f, np.int64))) if f else 0 for f in wfs]
    sh = SimHasher()
    sims = np.array([sh.simhash(s) for s in texts], np.uint64).view(np.int64)

    # feature-hash embedder reference: per-token loop (independent of the
    # vectorized HashEmbedder), projected to exact-integer features —
    # argmax index (first-max tie rule, like np.argmax) and positive count
    def embed_ints(text: str, dim: int = 64) -> tuple[int, int]:
        import pandas as pd

        acc = [0.0] * dim
        for tok in (text or "").lower().split():
            hv = int(pd.util.hash_array(np.asarray([tok], dtype=object))[0])
            sign = 1.0 if (hv >> 32) & 1 else -1.0
            acc[hv % dim] += sign
        best = 0
        for i in range(1, dim):
            if acc[i] > acc[best]:
                best = i
        return best, sum(1 for v in acc if v > 0)

    emb = [embed_ints(s) for s in texts]
    golden = pa.Table.from_pydict(
        {
            "doc_id": t.column("doc_id"),
            "rolling64": pa.array(rolling, pa.int64()),
            "n_fingerprints": pa.array([len(f) for f in wfs], pa.int64()),
            "fp_xor64": pa.array(xors, pa.int64()),
            "simhash": pa.array(sims),
            "embed_argmax": pa.array([a for a, _ in emb], pa.int64()),
            "embed_npos": pa.array([n for _, n in emb], pa.int64()),
        }
    )
    pq.write_table(golden, out_path)


def _write_html_goldens(docs_pq: str, html_path: str, golden_path: str) -> None:
    """Synthetic HTML pages over the driver documents table plus the
    main-content golden computed by the REGEX-STACK reference
    (``oracle.main_content_ref``) — the html.parser-based operator is
    differentially checked against this file via oracle_sql()."""
    import hashlib

    from ..oracle import main_content_ref
    from ..stages.html import make_html_corpus

    docs = pq.read_table(docs_pq, columns=["doc_id", "text"])
    pages = make_html_corpus(docs)
    pq.write_table(pages, html_path)
    refs = [main_content_ref(h) for h in pages.column("html").to_pylist()]
    golden = pa.Table.from_pydict(
        {
            "doc_id": pages.column("doc_id"),
            "n_blocks": pa.array([r["n_blocks"] for r in refs], pa.int64()),
            "n_kept": pa.array([r["n_kept"] for r in refs], pa.int64()),
            "main_chars": pa.array([r["main_chars"] for r in refs], pa.int64()),
            "main_md5": pa.array(
                [hashlib.md5(r["main_text"].encode()).hexdigest() for r in refs],
                pa.string(),
            ),
            # the reference-extracted text itself: downstream composed
            # queries (tokenize-over-main-content) oracle against it in SQL
            "main_text": pa.array([r["main_text"] for r in refs], pa.string()),
        }
    )
    pq.write_table(golden, golden_path)


def _write_resize_goldens(
    media_pq: str, out_path: str, tw: int = 16, th: int = 16
) -> None:
    """Nearest-neighbor resize reference computed with nested pure-Python
    pixel loops (independent of the vectorized gather in
    ``media.ImageResizeStage``). Raw codecs only; compressed codecs emit
    the unsupported row the stage must reproduce."""
    import hashlib

    t = pq.read_table(media_pq)
    rows = []
    for ref, payload, w, h, codec in zip(
        t.column("media_ref").to_pylist(),
        t.column("payload").to_pylist(),
        t.column("width").to_pylist(),
        t.column("height").to_pylist(),
        t.column("codec").to_pylist(),
    ):
        ch = 3 if codec == "raw-rgb" else (1 if codec == "raw-gray" else 0)
        buf = payload or b""
        if ch == 0:
            rows.append(
                {"media_ref": ref, "ok": False, "out_width": 0, "out_height": 0,
                 "out_md5": "", "error": "Unsupported filter/color space"}
            )
            continue
        if w <= 0 or h <= 0 or len(buf) != w * h * ch:
            rows.append(
                {"media_ref": ref, "ok": False, "out_width": 0, "out_height": 0,
                 "out_md5": "", "error": "size mismatch"}
            )
            continue
        out = bytearray()
        for y in range(th):
            sy = (y * h) // th
            for x in range(tw):
                sx = (x * w) // tw
                base = (sy * w + sx) * ch
                out += buf[base : base + ch]
        rows.append(
            {"media_ref": ref, "ok": True, "out_width": tw, "out_height": th,
             "out_md5": hashlib.md5(bytes(out)).hexdigest(), "error": ""}
        )
    pq.write_table(pa.Table.from_pylist(rows), out_path)
