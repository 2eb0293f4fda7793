"""OCR/model engines as stateful actor-pool ``map_batches`` stages.

Re-expresses the reference's ``EngineHandler`` trait
(extractor/src/types/engine_handler.rs:52-57: ``new(model)`` +
``extract_text_from_image``) as the Ray Data actor-pool pattern: a callable
class whose ``__init__`` does the once-per-actor setup (the analogue of
tesseract/tessdata ambient state, extractor/src/engine/tesseract.rs:10-38,
or the Ollama client + model, extractor/src/engine/ollama.rs:17-51) and
whose ``__call__`` processes one Arrow batch.

Real OCR binaries/models are not in this container, so the engines compute a
**deterministic pure transform seeded by the media payload** (SURVEY.md A1
note) — the Ray-side plumbing (registry, actor pool, per-batch signature,
model validation) is real and tested; only the inference kernel is a
stand-in.

Faithful quirk: the produced OCR text is *dropped from the output record*
(``PageExtractInfo`` has no image fields, engine_handler.rs:13-17;
collection then discard at engine/mod.rs:132-135). Here it lands in a side
column ``ocr_text`` excluded from the span-equality surface, so the work is
observable without changing the invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..jobs import normalize_model


# OCR stand-in digest = md5(salt || '|' || payload)[:12] so the DuckDB
# oracle can reproduce it: 'tess:' || substr(md5('tesseract|' || payload),1,12)


class TesseractLikeEngine:
    """Deterministic stand-in for tesseract OCR (engine/tesseract.rs:10-38).

    The reference opens the PNG, grayscales, and runs ``image_to_string``
    with default args on a blocking thread; here the "model" is the salt
    of a content hash so outputs are reproducible everywhere.
    """

    name = "tesseract"

    def __init__(self, model: str | None = None):
        # tessdata load / binary discovery would happen here, once per actor
        self._salt = "tesseract"
        self._salt_b = b"tesseract|"

    def extract_text_from_payloads(self, payloads: list[str]) -> list[str]:
        md5, salt = hashlib.md5, self._salt_b
        return ["tess:" + md5(salt + p.encode()).hexdigest()[:12] for p in payloads]


class OllamaLikeEngine:
    """Deterministic stand-in for the Ollama vision engine
    (engine/ollama.rs:17-51: base64 image + fixed prompt → HTTP generate).

    The reference ``unwrap()``s a missing model and panics the worker;
    here a missing model raises at actor construction with a clear error
    (surfaces at pool start, not mid-stream).
    """

    name = "ollama"

    def __init__(self, model: str | None = None):
        if not model:
            raise ValueError("ollama engine requires a model (engine/ollama.rs:22)")
        self._model = normalize_model(model)
        self._salt_b = f"{self._model}|".encode()

    def extract_text_from_payloads(self, payloads: list[str]) -> list[str]:
        md5, salt, pre = hashlib.md5, self._salt_b, self._model + ":"
        return [pre + md5(salt + p.encode()).hexdigest()[:12] for p in payloads]


# The reference's engine factory enum (engine_handler.rs:32-37), as a
# registry dict — the user-extension point (SURVEY.md E1).
ENGINE_REGISTRY: dict[str, type] = {
    "tesseract": TesseractLikeEngine,
    "ollama": OllamaLikeEngine,
}


def make_engine(engine, model: str | None = None):
    """Resolve an engine spec: registry name, engine class, or instance.

    Accepting the class/instance directly matters for Ray actor pools —
    the object pickles into workers, whereas a driver-side registry
    mutation would not be visible in worker processes (E1 extension
    surface, engine_handler.rs:52-57).
    """
    if isinstance(engine, str):
        cls = ENGINE_REGISTRY.get(engine.lower())
        if cls is None:
            raise ValueError(
                f"unknown engine {engine!r}; known: {sorted(ENGINE_REGISTRY)}"
            )
        return cls(model)
    if isinstance(engine, type):
        return engine(model)
    if hasattr(engine, "extract_text_from_payloads"):
        return engine
    raise ValueError(f"not an engine: {engine!r}")


# per-worker-process engine cache for OCR inside the extract task (both
# entry points call ``ocr_task`` from their extract UDF): gives
# once-per-worker setup (the actor-__init__ property) without reserving CPUs
# for a pool; a caller with a heavy model can still run ``OcrStage`` as an
# actor pool of its own over ``extract_batch(..., emit_payloads=True)``
_ENGINE_CACHE: dict[tuple, "OcrStage"] = {}


def ocr_task(batch: pa.Table, engine: str = "tesseract", model: str | None = None):
    key = (engine, model)
    stage = _ENGINE_CACHE.get(key)
    if stage is None:
        stage = _ENGINE_CACHE.setdefault(key, OcrStage(engine=engine, model=model))
    return stage(batch)


class OcrStage:
    """Actor-pool UDF: fill ``ocr_text`` for each emitted media span.

    Consumes extract output that carries a ``media_payloads: list<string>``
    side column (one payload per emitted media span, in span order) and
    replaces it with ``ocr_text: list<string>``. Use as::

        ds.map_batches(OcrStage, fn_constructor_kwargs={"engine": "tesseract"},
                       batch_format="pyarrow", concurrency=(1, N), num_cpus=1)

    Per-element failures are counted, never fatal (engine/mod.rs:118-127
    logs and skips) — a failed element yields "".
    """

    def __init__(self, engine: str = "tesseract", model: str | None = None):
        self._engine = make_engine(engine, model)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("media_payloads").combine_chunks()
        # numpy's object array to a list: ~15x cheaper than to_pylist's
        # per-value Python scalars, and the same list[str] for the engine
        payloads = col.flatten().to_numpy(zero_copy_only=False).tolist()
        try:
            texts = self._engine.extract_text_from_payloads(payloads)
        except Exception:
            # per-element fallback: a poison payload costs only itself
            # (engine/mod.rs:118-127 logs and skips per image)
            texts = []
            for p in payloads:
                try:
                    texts.append(self._engine.extract_text_from_payloads([p])[0])
                except Exception:
                    texts.append("")
        lengths = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False
        )
        offsets = np.zeros(len(col) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        ocr = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(texts, pa.string())
        )
        i = batch.schema.get_field_index("media_payloads")
        return batch.set_column(i, "ocr_text", ocr)
