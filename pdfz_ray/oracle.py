"""Pure-Python single-process reference oracle (the executable spec).

Implements the reference's extraction semantics exactly, including its
quirks (SURVEY.md §2), with zero Ray/Arrow dependencies, so golden outputs
exist before any distributed code runs:

- off-by-one page window: keep pages with ``page_num >= start_page - 1``
  (reference extractor/src/engine/mod.rs:70-77 — 1-based page_num compared
  against 0-based start, so ``start_page=2`` still includes page 1);
- ``page_limit = page_count or n_pages`` capped at ``n_pages``; stop after
  collecting that many pages (extractor/src/engine/mod.rs:62-83);
- per-page text = that page's text-span payloads joined with a single
  space; no text spans ⇒ "" (the silent-empty path,
  extractor/src/engine/mod.rs:100-103,134);
- one media span per *successfully decoded* media input, named
  ``{doc_id}_{page}_{i}.png`` where ``i`` enumerates ALL media spans of the
  page including failed ones — gaps preserved
  (extractor/src/engine/mod.rs:105-130);
- OCR text never enters the output record (collected then discarded,
  extractor/src/engine/mod.rs:132-135, types/engine_handler.rs:13-17);
- ``-corrupt`` doc_id sentinel ⇒ failed doc, no spans (Document::load error
  path, extractor/src/engine/mod.rs:58 + mod.rs:38-44); a null doc_id
  fails the same way;
- duplicate doc_id ⇒ first row wins (in-flight dedup,
  api/src/server.ts:90-103);
- unknown engine ⇒ failed row (vs the reference's worker panic,
  extractor/src/controllers/queue_handler.rs:51 — SURVEY.md M10 maps this
  to a failed row, not a crash).
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_ENGINE = "tesseract"
VALID_ENGINES = {"tesseract", "ollama"}
BAD_PAYLOAD_PREFIX = "!bad"
CORRUPT_SUFFIX = "-corrupt"


@dataclass(frozen=True)
class Job:
    """One extraction job (FIXTURES.md §2; defaults api/src/server.ts:83)."""

    start_page: int = 1
    page_count: int = 0
    engine: str = DEFAULT_ENGINE
    model: str | None = None

    def normalized_model(self) -> str | None:
        # ":latest" appended when untagged (api/src/server.ts:111-113)
        if self.model and ":" not in self.model:
            return f"{self.model}:latest"
        return self.model


DEFAULT_JOB = Job()


@dataclass
class DocResult:
    doc_id: str | None
    status: str  # "done" | "failed"
    spans: list[dict] = field(default_factory=list)
    pages: int = 0
    decode_failures: int = 0
    empty_pages: int = 0


def extract_doc(doc_id: str | None, spans: list[dict], job: Job = DEFAULT_JOB) -> DocResult:
    """Extract one document. ``spans`` is the interleaved input span list."""
    if doc_id is None or doc_id.endswith(CORRUPT_SUFFIX):
        return DocResult(doc_id, "failed")
    if job.engine.lower() not in VALID_ENGINES:
        return DocResult(doc_id, "failed")

    # group by page, preserving intra-page array order (BTreeMap analogue:
    # pages sorted ascending, extractor/src/engine/mod.rs:72)
    by_page: dict[int, list[dict]] = {}
    for s in spans:
        by_page.setdefault(int(s["offset"]), []).append(s)
    pages = sorted(by_page)

    n_pages = len(pages)
    page_limit = n_pages if job.page_count == 0 else min(job.page_count, n_pages)
    start_floor = max(job.start_page - 1, 0)  # the off-by-one, saturating

    out: list[dict] = []
    res = DocResult(doc_id, "done")
    collected = 0
    for p in pages:
        if p < start_floor:
            continue
        if collected >= page_limit:
            break
        collected += 1
        page_spans = by_page[p]
        texts = [s["text"] for s in page_spans if s["kind"] == "text"]
        page_text = " ".join(texts)
        if page_text == "":
            res.empty_pages += 1
        out.append({"kind": "text", "text": page_text, "media_ref": "", "offset": p})
        i = -1
        for s in page_spans:
            if s["kind"] != "media":
                continue
            i += 1  # index advances even when decode fails → name gaps
            if s["text"].startswith(BAD_PAYLOAD_PREFIX):
                res.decode_failures += 1
                continue
            out.append(
                {
                    "kind": "media",
                    "text": "",  # OCR text discarded (M3)
                    "media_ref": f"{doc_id}_{p}_{i}.png",
                    "offset": p,
                }
            )
    res.spans = out
    res.pages = collected
    return res


def extract_corpus(
    rows: list[dict], jobs: dict[str, Job] | None = None
) -> list[DocResult]:
    """Oracle over a corpus: first-wins dedup by doc_id, then per-doc extract."""
    jobs = jobs or {}
    seen: set[str] = set()
    results: list[DocResult] = []
    for row in rows:
        doc_id = row["doc_id"]
        if doc_id in seen:
            continue
        seen.add(doc_id)
        job = jobs.get(doc_id, DEFAULT_JOB)
        results.append(extract_doc(doc_id, row["spans"], job))
    return results


def jobs_table_to_dict(jobs) -> dict[str, Job]:
    """The reference ``doc_id -> Job`` lookup of a jobs table (anything with
    ``to_pylist``), one row at a time; ``jobs.jobs_table_to_lookup`` is its
    columnar twin. The last row of a repeated doc_id wins; a null or 0
    start_page is 1, a null page_count 0, a null or "" engine
    ``DEFAULT_ENGINE``, and a missing column its default."""
    out: dict[str, Job] = {}
    if jobs is None:
        return out
    for row in jobs.to_pylist():
        out[row["doc_id"]] = Job(
            start_page=int(row.get("start_page") or 1),
            page_count=int(row.get("page_count") or 0),
            engine=row.get("engine") or DEFAULT_ENGINE,
            model=row.get("model") or None,
        )
    return out


def flatten_results(results: list[DocResult]) -> list[dict]:
    """Flattened golden rows (FIXTURES.md §3) for successful docs."""
    flat: list[dict] = []
    for r in results:
        if r.status != "done":
            continue
        for seq, s in enumerate(r.spans):
            flat.append(
                {
                    "doc_id": r.doc_id,
                    "seq": seq,
                    "page_num": s["offset"],
                    "kind": s["kind"],
                    "text": s["text"],
                    "media_ref": s["media_ref"],
                }
            )
    return flat


# ---------------------------------------------------------------------------
# Content-hash references: byte loops that generate the text golden fixtures
# (sources/fixtures.py); the vectorized kernels in functions/text.py import
# POLY_BASE from here and must agree with them bit-for-bit
# ---------------------------------------------------------------------------

# polynomial-hash base of the 64-bit content keys (arithmetic mod 2^64)
POLY_BASE = 1_000_003
_U64 = 0xFFFFFFFFFFFFFFFF


def rolling64_ref(t: str, base: int = POLY_BASE) -> int:
    """Byte-loop reference for the 64-bit polynomial hash
    (h = Σ byte_i · B^(n−1−i) mod 2^64, returned as signed int64); the
    vectorized ``functions.text.poly64_array`` must agree bit-for-bit."""
    h = 0
    for ch in t.encode():
        h = (h * base + ch) & _U64
    return h - (1 << 64) if h >= (1 << 63) else h


def winnow_fingerprints(text: str, k: int = 5, w: int = 4) -> list[int]:
    """Winnowing reference (Schleimer, Wilkerson, Aiken 2003): polynomial
    hashes of byte k-grams of the lower-cased text, one minimum per
    sliding window of w hashes (rightmost min on ties) — guarantees any
    match of length >= w + k - 1 bytes shares a fingerprint. The
    vectorized ``functions.text.winnow_doc`` must agree."""
    b = (text or "").lower().encode()
    n = len(b)
    if n < k:
        return []
    hashes = []
    for i in range(n - k + 1):
        h = 0
        for byte in b[i : i + k]:
            h = (h * POLY_BASE + byte) & _U64
        hashes.append(h - (1 << 64) if h >= (1 << 63) else h)
    fps: list[int] = []
    last = -1
    for i in range(max(len(hashes) - w + 1, 1)):
        win = hashes[i : i + w]
        m = min(win)
        # rightmost occurrence of the min in the window
        j = i + len(win) - 1 - win[::-1].index(m)
        if j != last:
            fps.append(hashes[j])
            last = j
    return fps


# ---------------------------------------------------------------------------
# HTML main-content reference (independent implementation of the block
# model in pdfz_ray/stages/html.py — regex token stream + explicit stack,
# no html.parser; the two are differentially checked via the golden
# fixture oracle)
# ---------------------------------------------------------------------------

import re as _re

_TAG_RE = _re.compile(r"<!--.*?-->|<[^>]+>", _re.S)
_WS_RE = _re.compile(r"\s+")
_DROP = frozenset(
    "script style nav header footer aside form noscript template svg".split()
)
_BLOCK = frozenset("p h1 h2 h3 h4 h5 h6 li td blockquote pre".split())
_VOID_SPACE = frozenset("br hr img".split())
_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&#39;": "'"}


def _unescape(s: str) -> str:
    for k, v in _ENTITIES.items():
        s = s.replace(k, v)
    return s


def main_content_ref(html: str, min_chars: int = 30) -> dict:
    """Pure-Python reference for ``extract_main_content``: walks the raw
    markup with a tag regex and an explicit stack. Same block model —
    drop-subtree tags, nearest-block-ancestor text ownership, anchor
    density < 1/3, min length, newline join."""
    drop = 0
    anchor = 0
    blocks: list[tuple[list, list]] = []
    out: list[tuple[str, str]] = []
    pos = 0
    html = html or ""
    for m in _TAG_RE.finditer(html):
        text = html[pos : m.start()]
        pos = m.end()
        if text and not drop and blocks:
            t = _unescape(text)
            blocks[-1][0].append(t)
            if anchor:
                blocks[-1][1].append(t)
        tok = m.group(0)
        if tok.startswith("<!--"):
            continue
        body = tok[1:-1].strip()
        closing = body.startswith("/")
        name = body.lstrip("/").split()[0].rstrip("/").lower() if body.lstrip("/") else ""
        if name in _DROP:
            drop = max(0, drop - 1) if closing else drop + 1
            continue
        if drop:
            continue
        if not closing and name in _VOID_SPACE:
            if blocks:
                blocks[-1][0].append(" ")
                if anchor:
                    blocks[-1][1].append(" ")
            continue
        if name == "a":
            anchor = max(0, anchor - 1) if closing else anchor + 1
            continue
        if name in _BLOCK:
            if closing:
                if blocks:
                    texts, anchors = blocks.pop()
                    out.append(("".join(texts), "".join(anchors)))
            else:
                blocks.append(([], []))
    tail = html[pos:]
    if tail and not drop and blocks:
        t = _unescape(tail)
        blocks[-1][0].append(t)
        if anchor:
            blocks[-1][1].append(t)
    while blocks:
        texts, anchors = blocks.pop()
        out.append(("".join(texts), "".join(anchors)))

    def norm(s: str) -> str:
        return _WS_RE.sub(" ", s).strip()

    kept = []
    for raw_t, raw_a in out:
        t = norm(raw_t)
        if len(t) >= min_chars and len(norm(raw_a)) * 3 < len(t):
            kept.append(t)
    main = "\n".join(kept)
    return {
        "n_blocks": len(out),
        "n_kept": len(kept),
        "main_chars": len(main),
        "main_text": main,
    }
