"""Output discipline: BENCHMARK.json is well-formed, and both result modes
name exactly its metrics with its units."""

from __future__ import annotations

import json
import os
import re
from types import SimpleNamespace

from perfbench import trace
from perfbench import run
from perfbench.run import ROOT, Bench, end_to_end, load_spec, per_layer, result_metrics
from perfbench.trace import Span, Tracer, host_facts, inprocess_pass, job_layers
from perfbench.workloads import WORKLOADS, make_corpus, write_corpus

from .helpers import small_run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def _job(traced):
    return {"traced": traced, "spans": [], "wall_s": 2.0, "cpu_s": 2.5, "pages": 1000,
            "rss_mb": 250.0, "first_commit_s": 1.0, "out_bytes": 80_000, "steal_s": 0.1}


def test_end_to_end_names_and_units():
    b = SimpleNamespace(fresh=[_job(False), _job(False)], resumes=[0.2, 0.3])
    spec = load_spec()
    got = result_metrics(spec, False, end_to_end(b, 6.0))
    assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in got.values())


def test_per_layer_names_and_units(tmp_path):
    corpus = make_corpus(WORKLOADS["skewed_monsters"].scaled(0.01), seed=3)
    inputs, jobs = write_corpus(corpus, str(tmp_path / "in"))
    files = sorted(str(p) for p in (tmp_path / "in").glob("in-*.parquet"))
    inproc = inprocess_pass(files, jobs, 2048, str(tmp_path / "inproc"))
    b = SimpleNamespace(fresh=[_job(False), _job(True)], later_files=set())
    spec = load_spec()
    got = result_metrics(spec, True, per_layer(b, inproc, host_facts()))
    assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert got["extract.spans_in"]["value"] == sum(
        len(s) for t in corpus.files for s in t.column("spans").to_pylist())
    json.dumps(got)  # numbers only


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    host, res = small_run(tmp_path, "partitioned_dups", 4, trace=1)
    spec = load_spec()
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert host["wrappers_skipped"] == []
    assert {"vcpus", "nproc", "omp_num_threads", "calib_burn_ms", "ray", "pyarrow",
            "python"} <= set(host["host"])
    assert res["metrics"]["partition.count"]["value"] == 16
    assert res["metrics"]["jobs.lookup_calls"]["value"] == 16


def test_missing_wrapper_target_is_skipped(monkeypatch):
    monkeypatch.setattr(trace, "TARGETS", trace.TARGETS + [
        ("pdfz_ray.pipelines.extract_pipeline", "no_such_function", "x"),
        ("pdfz_ray.no_such_module", "f", "y"),
    ])
    t = Tracer()
    assert t.skipped == ["pdfz_ray.pipelines.extract_pipeline.no_such_function",
                         "pdfz_ray.no_such_module.f"]
    assert len(t._patches) == len(trace.TARGETS) - 2


def test_plan_time_excludes_calls_traced_inside_it():
    spans = [
        Span("partition.plan", 0.0, 10.0, (), None),
        Span("jobs.lookup", 1.0, 2.0, (None,), {}),
        Span("dedup.winners", 3.0, 5.0, (), SimpleNamespace(num_rows=4)),
        Span("jobs.lookup", 11.0, 12.0, (None,), {}),  # outside the plan
    ]
    layers = job_layers(spans, set())
    assert layers["partition.plan_s"] == 7.0
    assert layers["jobs.lookup_s"] == 2.0 and layers["dedup.winners_s"] == 2.0


def test_failed_traced_job_is_counted_and_leaves_no_spans(monkeypatch, tmp_path):
    tracer = Tracer()

    def crash(argv):
        tracer.spans.append(Span("jobs.lookup", 0.0, 1.0, (None,), {}))
        raise RuntimeError("job crashed")

    monkeypatch.setattr(run, "call_job", crash)
    b = object.__new__(Bench)  # the loop's state only; no corpus needed
    b.w, b.work, b.inputs, b.jobs = WORKLOADS["bulk_lowdup"], str(tmp_path), "", ""
    b.job_no = b.attempted = b.failed = 0
    b.fresh, b.resumes = [], []
    b.cycle(tracer)
    assert (b.attempted, b.failed, b.fresh) == (1, 1, [])
    assert tracer.spans == []
