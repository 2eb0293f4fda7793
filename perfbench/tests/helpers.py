"""Helpers that run the benchmark as a user would, in a subprocess."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import subprocess
import sys
import time

from perfbench.session import descendants

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def become_subreaper() -> None:
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def start(tmp_path, *args, env=None):
    with open(tmp_path / "stderr.log", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=err,
            env={**os.environ, **(env or {})},
        )
    return proc, tmp_path / "stderr.log"


def finish(proc, timeout=180):
    out, _ = proc.communicate(timeout=timeout)
    time.sleep(0.2)
    return proc.returncode, out.decode()


def assert_no_tree_left():
    deadline = time.monotonic() + 5
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not descendants()
    assert not glob.glob(os.path.join(ROOT, ".perfbench-*"))


def small_run(tmp_path, workload: str, seed: int, trace: int = 0) -> list[dict]:
    """A short run (one fresh job); returns its stdout lines parsed as JSON."""
    proc, _ = start(
        tmp_path, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    )
    rc, out = finish(proc)
    assert rc == 0
    assert_no_tree_left()
    return [json.loads(line) for line in out.strip().splitlines()]
