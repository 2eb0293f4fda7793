"""Text-analysis operators over the flat ``documents`` table.

All hot paths are vectorized (pyarrow.compute / pandas string kernels)
inside ``map_batches``; regexes are compiled once per actor where a class
UDF is used. Each operator has a ``queries()`` entry; the SQL-checkable
ones keep integer/string outputs so DuckDB value-hashes match exactly.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import POLY_BASE

# fixed stopword list shared with the SQL oracles (keep in sync!)
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on", "for", "data")
PUNCT_RE = r"[.,;:!?]"
TOKEN_RE = r"\S+"


def split_tokens(text) -> tuple[pa.Array, np.ndarray]:
    """The ``\\S+`` tokens of a utf8 column in order, and the row each came
    from: one RE2 split on ``\\s+`` with its empty pieces dropped, which is
    DuckDB's ``regexp_extract_all(text, '\\S+')`` (ASCII whitespace only:
    NBSP, U+3000 and VT stay inside tokens). A null, empty or
    all-whitespace row has no tokens."""
    toks = pc.split_pattern_regex(text, pattern=r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    parent = pc.list_parent_indices(toks).to_numpy().astype(np.int64)
    keep = pc.not_equal(flat, "")
    return flat.filter(keep), parent[keep.to_numpy(zero_copy_only=False)]


def count_tokens(text) -> pa.Array:
    """int64 ``\\S+`` token count per row; a null row stays null, so a
    caller whose SQL twin coalesces passes filled text."""
    return pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64())


# the 64-bit content keys are polynomial hashes mod 2^64 in base
# ``POLY_BASE``, shared with their reference loops in the oracle: numpy
# uint64 wraparound IS the modulus, which is what makes the kernels
# vectorizable (the round-1 mod-(2^61-1) variant forced a per-byte Python
# loop, the classic row-at-a-time scale-killer)


def _utf8_view(arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (byte buffer, int64 absolute offsets) view of a utf8 array
    (nulls must be filled by the caller)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    raw_off = np.frombuffer(arr.buffers()[1], np.int32)
    off = raw_off[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    buf = arr.buffers()[2]
    data = (
        np.frombuffer(buf, np.uint8) if buf is not None else np.zeros(0, np.uint8)
    )
    return data, off


def _pow_table(n: int, base: int = POLY_BASE) -> np.ndarray:
    """[B^0, B^1, ..., B^n] mod 2^64."""
    p = np.empty(n + 1, np.uint64)
    p[0] = 1
    if n:
        np.multiply.accumulate(np.full(n, base, np.uint64), out=p[1:])
    return p


def poly64_array(arr, base: int = POLY_BASE) -> np.ndarray:
    """Vectorized whole-string polynomial hash of every element of a utf8
    array → uint64[n]. One multiply + one segmented wrap-sum over the
    array's raw byte buffer — no Python per row, no per-byte loop. Agrees
    bit-for-bit with the reference loop ``oracle.rolling64_ref``."""
    data, off = _utf8_view(arr)
    lens = off[1:] - off[:-1]
    n = len(lens)
    out = np.zeros(n, np.uint64)
    if n == 0 or int(lens.max()) == 0:
        return out
    pows = _pow_table(int(lens.max()), base)
    lo, hi = int(off[0]), int(off[-1])
    # exponent of each byte = (its doc's end − 1 − absolute index); int32
    # index math + in-place ops keep the per-byte temporaries at 2×, not 6×
    exp = np.repeat((off[1:] - lo - 1).astype(np.int32), lens)
    exp -= np.arange(hi - lo, dtype=np.int32)
    terms = pows[exp]
    terms *= data[lo:hi]
    # reduceat over NON-EMPTY segment starts only: an empty segment's start
    # equals the next start, and a trailing empty one would have to be
    # clipped — corrupting the previous segment's end. Non-empty starts are
    # strictly increasing and partition `terms` exactly.
    nz = lens > 0
    out[nz] = np.add.reduceat(terms, (off[:-1] - lo)[nz])
    return out


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """Integer quality counters per doc (SQL-exact; no floats)."""
    text = batch.column("text")
    n_chars = pc.utf8_length(text)
    n_punct = pc.count_substring_regex(text, PUNCT_RE)
    flat, parent = split_tokens(pc.utf8_lower(text))
    is_stop = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    n_stop = np.bincount(parent[is_stop], minlength=batch.num_rows)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pc.cast(n_chars, pa.int64()),
            count_tokens(text),
            pa.array(n_stop.astype(np.int64)),
            pc.cast(n_punct, pa.int64()),
        ],
        names=["doc_id", "n_chars", "n_tokens", "n_stopwords", "n_punct"],
    )


def quality_filter_batch(
    batch: pa.Table, min_tokens: int = 20, max_stop_ratio_pct: int = 40
) -> pa.Table:
    """Quality gate with integer thresholds (deterministic, SQL-exact):
    keep docs with >= min_tokens tokens and stopword percentage (integer
    division, *100 // n_tokens) below the cap."""
    stats = text_stats_batch(batch)
    n_tok = stats.column("n_tokens").to_numpy()
    n_stop = stats.column("n_stopwords").to_numpy()
    pct = np.where(n_tok > 0, n_stop * 100 // np.maximum(n_tok, 1), 100)
    keep = (n_tok >= min_tokens) & (pct < max_stop_ratio_pct)
    return stats.filter(pa.array(keep))


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Document fingerprint: md5 of whitespace-collapsed lower-cased text
    (SQL-exact via DuckDB md5()), plus a 64-bit polynomial content key
    (vectorized mod-2^64 hash; checked against the golden fixture of
    ``oracle.rolling64_ref``)."""
    low = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
    norm = pc.replace_substring_regex(low, pattern=r"\s+", replacement=" ")
    norm_arr = norm.combine_chunks() if isinstance(norm, pa.ChunkedArray) else norm
    md5s = [hashlib.md5((t or "").encode()).hexdigest() for t in norm_arr.to_pylist()]
    rolling = poly64_array(norm_arr).view(np.int64)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pa.array(md5s, pa.string()),
            pa.array(rolling),
        ],
        names=["doc_id", "fingerprint", "rolling64"],
    )


class LangIdStage:
    """Heuristic language ID: stopword-profile scoring + char-class evidence.

    Compiled profiles live in the actor (``__init__`` once per actor). The
    score is deterministic (tie → alphabetical language), so the output is
    stable across runs; the check is rows-only (a heuristic has no SQL
    twin).
    """

    PROFILES = {
        "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
        "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit"},
        "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"},
        "es": {"el", "la", "los", "y", "es", "un", "una", "de", "que", "por"},
    }

    def __init__(self):
        self._tok = re.compile(r"[a-zA-ZÀ-ÿ]+")
        self._cjk = re.compile(r"[一-鿿]")

    def _score(self, text: str) -> str:
        if text and self._cjk.search(text):
            return "zh"
        words = [w.lower() for w in self._tok.findall(text or "")]
        if not words:
            return "unknown"
        best = ("unknown", 0)
        for lang in sorted(self.PROFILES):
            hits = sum(1 for w in words if w in self.PROFILES[lang])
            if hits > best[1]:
                best = (lang, hits)
        return best[0] if best[1] > 0 else "unknown"

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self._score(t) for t in batch.column("text").to_pylist()]
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(preds, pa.string())],
            names=["doc_id", "lang_pred"],
        )


def normalize_batch(batch: pa.Table) -> pa.Table:
    """Text normalization for dedup/training prep: NFC unicode normalize,
    lowercase, collapse whitespace, strip. Matches DuckDB
    ``trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'))``
    so the op is SQL-checkable byte-for-byte."""
    import unicodedata

    texts = batch.column("text").to_pylist()
    nfc = pa.array(
        [unicodedata.normalize("NFC", t or "") for t in texts], pa.string()
    )
    # collapse/trim via the same RE2 \s as the oracle (ASCII whitespace);
    # Python str.split() would also eat NBSP/U+2028 and diverge byte-wise
    low = pc.utf8_lower(nfc)
    collapsed = pc.replace_substring_regex(low, pattern=r"\s+", replacement=" ")
    norm = pc.replace_substring_regex(collapsed, pattern=r"^ | $", replacement="")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), norm],
        names=["doc_id", "norm_text"],
    )


class HashEmbedder:
    """Deterministic text → embedding stand-in (feature-hashing bag of
    words into ``dim`` buckets, L2-normalized float32). The plumbing —
    batched vectorized embedding into a fixed-size-list column — is the
    real shape a model embedder drops into; only the kernel is fake."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        out = np.zeros((len(texts), self.dim), np.float32)
        for i, t in enumerate(texts):
            toks = (t or "").lower().split()
            if not toks:
                continue
            h = pd.util.hash_array(np.asarray(toks, object))
            idx = (h % np.uint64(self.dim)).astype(np.int64)
            sign = np.where((h >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
            np.add.at(out[i], idx, sign)
            n = np.linalg.norm(out[i])
            if n > 0:
                out[i] /= n
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.FixedSizeListArray.from_arrays(
                    pa.array(out.ravel(), pa.float32()), self.dim
                ),
            ],
            names=["doc_id", "embedding"],
        )


def winnow_doc(b: np.ndarray, k: int, w: int, pows_k: np.ndarray) -> np.ndarray:
    """Vectorized winnowing of one document's byte view → int64 fingerprint
    positions-deduped array. ``pows_k`` = [B^(k−1) ... B^0]. Agrees with
    the reference loop ``oracle.winnow_fingerprints`` that generates the
    golden fixtures."""
    n = len(b)
    if n < k:
        return np.zeros(0, np.int64)
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    kg = (win * pows_k).sum(axis=1, dtype=np.uint64).view(np.int64)
    m = len(kg)
    if m < w:
        # single short window — rightmost minimum
        j = m - 1 - int(np.argmin(kg[::-1]))
        return kg[[j]]
    winh = np.lib.stride_tricks.sliding_window_view(kg, w)
    # rightmost min per window: argmin of the reversed window is the FIRST
    # min there, i.e. the LAST in the original orientation
    jpos = np.arange(m - w + 1) + (w - 1 - np.argmin(winh[:, ::-1], axis=1))
    keep = np.empty(len(jpos), bool)
    keep[0] = True
    keep[1:] = jpos[1:] != jpos[:-1]
    return kg[jpos[keep]]


def winnow_batch(batch: pa.Table, k: int = 5, w: int = 4) -> pa.Table:
    """(doc_id, n_fingerprints, fp_xor64, fingerprints) per doc — the
    winnowed fingerprint set for plagiarism-style containment detection.
    fp_xor64 (order-independent XOR of the set) is the SQL-checkable
    content key. Hot path is numpy over zero-copy byte views."""
    low = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
    low = low.combine_chunks() if isinstance(low, pa.ChunkedArray) else low
    data, off = _utf8_view(low)
    pows_k = _pow_table(k - 1)[::-1].copy()
    fps = [
        winnow_doc(data[off[i] : off[i + 1]], k, w, pows_k)
        for i in range(len(low))
    ]
    xors = np.array(
        [int(np.bitwise_xor.reduce(f)) if len(f) else 0 for f in fps], np.int64
    )
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pa.array([len(f) for f in fps], pa.int64()),
            pa.array(xors),
            pa.array([f.tolist() for f in fps], pa.list_(pa.int64())),
        ],
        names=["doc_id", "n_fingerprints", "fp_xor64", "fingerprints"],
    )


SPLIT_NAMES = ("train", "val", "test")


def split_assign_batch(
    batch: pa.Table,
    train_pct: int = 80,
    val_pct: int = 10,
    hash_col: str | None = None,
) -> pa.Table:
    """Deterministic train/val/test assignment by content hash — the
    leakage-safe split for training-data pipelines (same text → same split
    on every run, machine, and cluster size; near-dup aware splits compose
    this with a dedup group_id). Bucket = first 16 bits of md5(text);
    SQL-exact via lexicographic comparison of the first 4 hex chars.
    ``hash_col`` names a precomputed md5-hex column (the shared
    ``curation.with_content_hash`` pass) so a composed pipeline hashes
    each doc once."""
    bounds = (
        (train_pct * 65536) // 100,
        ((train_pct + val_pct) * 65536) // 100,
    )
    if hash_col is not None:
        buckets = np.array(
            [int(h[:4], 16) for h in batch.column(hash_col).to_pylist()],
            np.int64,
        )
    else:
        texts = batch.column("text").to_pylist()
        buckets = np.array(
            [
                int(hashlib.md5((t or "").encode()).hexdigest()[:4], 16)
                for t in texts
            ],
            np.int64,
        )
    split = np.where(
        buckets < bounds[0], "train", np.where(buckets < bounds[1], "val", "test")
    )
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(split), pa.array(buckets)],
        names=["doc_id", "split", "bucket"],
    )


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Whitespace token count + a BPE-ish subword count (regex pieces:
    word chunks of <=4 chars, digits, punctuation singles)."""
    text = batch.column("text")
    bpe = pc.count_substring_regex(text, r"[A-Za-z]{1,4}|[0-9]+|[^A-Za-z0-9\s]")
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            count_tokens(text),
            pc.cast(bpe, pa.int64()),
        ],
        names=["doc_id", "n_tokens", "n_subwords"],
    )
