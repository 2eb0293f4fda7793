"""E1 user-extension surface: plugging a custom engine into the OCR stage.

The reference's one real extension point is the ``EngineHandler`` trait +
``Engines`` factory (engine_handler.rs:52-57, :32-37). Here a custom engine
is any class with ``__init__(model)`` + ``extract_text_from_payloads``;
it can be passed to OcrStage directly (class object — survives pickling
into Ray workers, unlike a driver-side registry mutation) or registered in
ENGINE_REGISTRY for name-based lookup in-process.
"""

import pyarrow as pa

from pdfz_ray.corpus import make_documents
from pdfz_ray.stages.engines import ENGINE_REGISTRY, OcrStage, make_engine
from pdfz_ray.stages.extract import extract_batch


class ShoutEngine:
    name = "shout"

    def __init__(self, model=None):
        self.model = model

    def extract_text_from_payloads(self, payloads):
        return [p.upper() for p in payloads]


def test_custom_engine_class_direct():
    out = extract_batch(make_documents(22), emit_payloads=True)
    stage = OcrStage(engine=ShoutEngine)
    res = stage(out)
    for row in res.to_pylist():
        payloads = [
            s for s in row["spans"] if s["kind"] == "media"
        ]
        assert len(row["ocr_text"]) == len(payloads)
        assert all(t == t.upper() for t in row["ocr_text"])


def test_custom_engine_instance():
    out = extract_batch(make_documents(11), emit_payloads=True)
    res = OcrStage(engine=ShoutEngine(model="m"))(out)
    assert "ocr_text" in res.schema.names


def test_registry_registration_in_process():
    ENGINE_REGISTRY["shout"] = ShoutEngine
    try:
        eng = make_engine("shout")
        assert isinstance(eng, ShoutEngine)
    finally:
        del ENGINE_REGISTRY["shout"]


def test_custom_engine_through_ray_pipeline(ray_session):
    """The engine class pickles into workers — no registry needed there.

    NOTE: the class must be defined where cloudpickle serializes it BY
    VALUE (function-local or __main__); a module-level class in a test
    file pickles by reference and workers can't import the test module.
    """
    import ray.data as rd

    class LocalShout:
        def __init__(self, model=None):
            self.model = model

        def extract_text_from_payloads(self, payloads):
            return [p.upper() for p in payloads]

    ds = rd.from_arrow(make_documents(22))
    out = ds.map_batches(
        lambda b: extract_batch(b, emit_payloads=True), batch_format="pyarrow"
    ).map_batches(
        OcrStage,
        fn_constructor_kwargs={"engine": LocalShout},
        batch_format="pyarrow",
        concurrency=(1, 2),
        num_cpus=1,
    )
    rows = out.take_all()
    assert any(r["ocr_text"] for r in rows)
