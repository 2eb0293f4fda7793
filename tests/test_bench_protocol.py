"""Unit tests for bench.py's scaling-protocol resilience: a leg
subprocess dying (host OOM / contention window) must surface its stderr
and be recorded as an unhealthy run — never kill the whole protocol."""
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench


class _FakeProc:
    def __init__(self, returncode, stdout="", stderr=""):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def _fake_extract(out_dir):
    """Stand-in for the flagship extract: (re)creates out_dir with one file."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "part-0.parquet"), "w") as f:
        f.write("data")


def test_all_discarded_at_pre_burn_keeps_out_dir(tmp_path):
    """Round-4 driver crash regression: every attempt rejected at the
    PRE-trial burn gate must leave out_dir (the warmup output) intact for
    the metric readback — the r4 bench rmtree'd before the gate and died
    with FileNotFoundError at the readback."""
    out_dir = str(tmp_path / "out-32")
    _fake_extract(out_dir)  # the warmup pass's output
    extract_calls = {"n": 0}

    def do_extract():
        extract_calls["n"] += 1
        _fake_extract(out_dir)

    r = bench.gated_extract_trials(
        do_extract, out_dir, n_trials=2, burn_gate=0.35,
        max_attempts=6, burn=lambda: 9.9, sleep=lambda _s: None,
    )
    # no trial ever ran and no untimed re-extract was needed: the warmup
    # output was never deleted
    assert extract_calls["n"] == 0
    assert os.path.exists(os.path.join(out_dir, "part-0.parquet"))
    assert len(r["discarded_burns_sec"]) == 6
    assert r["extract_trials_sec"] == [float("nan")] or (
        r["extract_trials_sec"][0] != r["extract_trials_sec"][0]
    )
    json.dumps(r)  # the record stays serializable


def test_all_discarded_no_prior_output_reruns_extract(tmp_path):
    """If out_dir never existed (no warmup pass) and every attempt is
    rejected pre-trial, the loop re-runs one untimed extract so the
    readback still finds output."""
    out_dir = str(tmp_path / "out-8")
    extract_calls = {"n": 0}

    def do_extract():
        extract_calls["n"] += 1
        _fake_extract(out_dir)

    bench.gated_extract_trials(
        do_extract, out_dir, n_trials=1, burn_gate=0.35,
        max_attempts=3, burn=lambda: 9.9, sleep=lambda _s: None,
    )
    assert extract_calls["n"] == 1
    assert os.path.exists(os.path.join(out_dir, "part-0.parquet"))


def test_discard_at_post_burn_records_trial_and_keeps_output(tmp_path):
    """A trial discarded at the POST-trial burn stays on the discarded
    record and its output remains for the readback; the final fallback
    reports discarded trials instead of NaN."""
    out_dir = str(tmp_path / "out-16")
    burns = iter([0.1, 9.9] * 3)  # b0 healthy, b1 stolen, every attempt

    r = bench.gated_extract_trials(
        lambda: _fake_extract(out_dir), out_dir, n_trials=1, burn_gate=0.35,
        max_attempts=3, burn=lambda: next(burns), sleep=lambda _s: None,
    )
    assert len(r["discarded_trials_sec"]) == 3
    # fallback: discarded trials reported honestly, not NaN
    assert r["extract_trials_sec"] == r["discarded_trials_sec"]
    assert os.path.exists(os.path.join(out_dir, "part-0.parquet"))


def test_healthy_trials_clear_and_rewrite_out_dir(tmp_path):
    """Healthy path: each kept trial clears the previous output and
    rewrites it; burns land in pairs."""
    out_dir = str(tmp_path / "out-4")
    _fake_extract(out_dir)

    r = bench.gated_extract_trials(
        lambda: _fake_extract(out_dir), out_dir, n_trials=2, burn_gate=0.35,
        max_attempts=6, burn=lambda: 0.1, sleep=lambda _s: None,
    )
    assert len(r["extract_trials_sec"]) == 2
    assert len(r["calibration_burn_sec"]) == 4
    assert r["discarded_trials_sec"] == [] and r["discarded_burns_sec"] == []
    assert os.path.exists(os.path.join(out_dir, "part-0.parquet"))


def test_failed_leg_raises_with_stderr(monkeypatch):
    monkeypatch.setattr(
        subprocess,
        "run",
        lambda *a, **k: _FakeProc(1, stderr="ray.exceptions.OutOfMemoryError: boom"),
    )
    monkeypatch.setattr(bench, "ensure_bench_corpus", lambda *a, **k: None)
    with pytest.raises(RuntimeError, match="8-cpu leg exited 1.*boom"):
        bench.run_scaling("/nonexistent", 10, 1, lo=8, hi=32)


def test_protocol_records_failed_run_and_continues(monkeypatch):
    calls = {"n": 0}

    def fake_run_scaling(sf_dir, n_docs, replicas, lo, hi):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("32-cpu leg exited 1: killed")
        return {
            "scaling_efficiency": 0.85,
            "pages_per_sec_lo": 1.0,
            "pages_per_sec_hi": 3.4,
            "sec_lo": 100.0,
            "sec_hi": 30.0,
            "calibration_burn_sec_lo": [0.3, 0.3],
            "calibration_burn_sec_hi": [0.3, 0.3],
            "discarded_lo": 0,
            "discarded_hi": 0,
            "healthy": True,
        }

    monkeypatch.setattr(bench, "run_scaling", fake_run_scaling)
    monkeypatch.setattr(bench, "ensure_bench_corpus", lambda *a, **k: None)
    out = bench.run_scaling_protocol(
        "/nonexistent", 10, 1, pairs=((8, 32),), n_healthy=2, max_runs_per_pair=4
    )
    runs = out["pairs"]["8->32"]["runs"]
    # run 1 failed, runs 2-3 healthy → recorded, protocol completed
    assert len(runs) == 3
    assert runs[0]["healthy"] is False and "killed" in runs[0]["error"]
    assert runs[1]["healthy"] and runs[2]["healthy"]
    assert out["pairs"]["8->32"]["n_healthy"] == 2
    assert out["pairs"]["8->32"]["median_efficiency_healthy"] == 0.85
    # the JSON stays serializable with mixed failed/healthy run records
    json.dumps(out)
