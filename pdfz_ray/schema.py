"""Arrow schemas for the interleaved-documents data model.

Mirrors BASELINE.json ``input_hint`` and FIXTURES.md. The reference's data
model is file-per-document (reference: extractor/src/engine/mod.rs:58,
extractor/src/helper/file_helper.rs:55-77); here one document is one row of
a columnar table with an interleaved span list.
"""

from __future__ import annotations

import pyarrow as pa

# One interleaved span: kind is "text" | "media".
#   text      — payload for kind="text"; for kind="media" it is the synthetic
#               decode/OCR seed ("" = decodable, "!bad" prefix = decode
#               failure; mirrors the unsupported-filter error path,
#               reference extractor/src/engine/mod.rs:163,207)
#   media_ref — input-side media identifier ("" for text spans)
#   offset    — 1-based page number (BTreeMap page keys,
#               reference extractor/src/engine/mod.rs:72)
SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

SPAN_LIST = pa.list_(SPAN_STRUCT)

# Input table: one row per document.
DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPAN_LIST),
    ]
)

# Job parameters (FIXTURES.md §2; defaults mirror api/src/server.ts:83).
JOBS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("start_page", pa.int32()),
        ("page_count", pa.int32()),
        ("engine", pa.string()),
        ("model", pa.string()),
    ]
)

# Nested output (the span-sequence-equality surface) + per-doc lineage.
OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPAN_LIST),
        ("status", pa.string()),  # "done" | "failed"
        ("pages", pa.int64()),
        ("decode_failures", pa.int64()),
        ("empty_pages", pa.int64()),
    ]
)

# Flattened output for SQL/DuckDB checks (FIXTURES.md §3).
FLAT_OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("seq", pa.int32()),
        ("page_num", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
    ]
)

# Synthetic media payload table (multimodal plumbing; payloads are opaque
# bytes the way decoded PdfImage bytes are in the reference,
# extractor/src/engine/mod.rs:138-211).
MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("codec", pa.string()),  # "dct" | "flate" | "raw-rgb" | "raw-gray"
    ]
)
