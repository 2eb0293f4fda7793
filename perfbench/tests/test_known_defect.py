"""Reproducer of a known program defect, kept as an expected failure.

``run_partitioned`` crashes with ``ArrowInvalid`` when one partition holds
only duplicates that earlier partitions own: every row of the partition is
excluded, nothing is written to its temp dir, and ``_partition_metrics``
then reads an empty directory. The benchmark's workloads scatter their
duplicates, as a re-ingested corpus would, so they do not hit this; this
test does on purpose. When the program is fixed, the strict xfail turns
into a failure and the marker comes off.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench.golden import Golden
from perfbench.run import call_job
from perfbench.session import RaySession
from perfbench.workloads import WORKLOADS, Corpus, make_corpus


@pytest.mark.xfail(strict=True, raises=pa.ArrowInvalid,
                   reason="partition of only owned duplicates writes nothing")
def test_partition_of_only_owned_duplicates(tmp_path):
    c = make_corpus(WORKLOADS["bulk_lowdup"].scaled(0.01), seed=7)
    first = c.files[0]
    corpus = Corpus([first, first.slice(0, 10)], c.jobs, 10, 0)  # file 1: copies only
    for i, t in enumerate(corpus.files):
        pq.write_table(t, tmp_path / f"in-{i:03d}.parquet")
    pq.write_table(corpus.jobs, tmp_path / "jobs.parquet")
    out = tmp_path / "out"
    with RaySession(str(tmp_path)):
        rc, summary, _ = call_job([
            "--input", str(tmp_path / "in-*.parquet"), "--out", str(out),
            "--jobs", str(tmp_path / "jobs.parquet"), "--partition-size", "1",
            "--num-cpus", "1",
        ])
    assert rc == 0 and summary["partitions_run"] == 2
    assert Golden(corpus).check(str(out)) == []
