"""Process lifecycle: a short run, a run whose Ray start fails, and a run
sent SIGTERM mid-job each leave no process of their tree alive."""

from __future__ import annotations

import json
import signal
import time

from perfbench.run import RESUBMITS
from perfbench.session import FAULT_ENV, descendants

from .helpers import assert_no_tree_left, finish, small_run, start


def test_short_run_exits_clean(tmp_path):
    res = small_run(tmp_path, "bulk_lowdup", 1)[-1]
    # warm-up, at least one fresh job, and its resubmissions
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2 + RESUBMITS


def test_failed_ray_start_leaves_no_process(tmp_path):
    # an unknown system-config key makes the GCS exit during ray.init
    proc, _ = start(
        tmp_path, "--workload", "bulk_lowdup", "--seed", "1", "--seconds", "1",
        env={FAULT_ENV: json.dumps({"no_such_config_key": 1})},
    )
    rc, out = finish(proc)
    assert rc != 0
    assert out == ""  # no result line
    assert_no_tree_left()


def test_sigterm_mid_job_leaves_no_process(tmp_path):
    proc, err = start(
        tmp_path, "--workload", "partitioned_dups", "--seed", "3", "--seconds", "60",
    )
    deadline = time.monotonic() + 150
    while "[perfbench] setup:" not in err.read_text() and time.monotonic() < deadline:
        time.sleep(0.1)
    time.sleep(1.0)  # inside the first fresh job
    assert len(descendants()) > 2  # driver plus Ray processes are running
    proc.send_signal(signal.SIGTERM)
    rc, out = finish(proc, timeout=60)
    assert rc == 128 + signal.SIGTERM
    assert out == ""
    assert_no_tree_left()
