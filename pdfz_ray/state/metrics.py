"""Live pipeline metrics — G2's mid-run progress surface.

The reference writes per-page progress to Redis, one round trip per page
(reference: extractor/src/engine/mod.rs:89; SURVEY §4 flags the per-row
write as the anti-pattern). In the rebuild no worker reports: the write
tasks of ``run_partitioned`` return their lineage counts as count rows,
and the driver, as it pulls each block of them, sends their sums to this
actor in ONE fire-and-forget call, beside the ``partitions_total`` gauge
and the ``partitions_done`` count. Any process in the cluster can poll
``live_progress`` while the job is in flight.

Semantics: each write task's rows reach the driver once, even when Ray
retries the task, so the counters add up exactly the rows written. They
also count the rows of a partition that never commits (a failed wave);
the partition manifest (state/manifest.py) holds only committed ones and
stays the source of truth.
"""

from __future__ import annotations

import ray

DEFAULT_NAME = "pdfz_metrics"


@ray.remote(num_cpus=0)
class MetricsActor:
    """Tiny named accumulator: counters (monotonic adds) + gauges (sets)."""

    def __init__(self):
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, int] = {}

    def report(self, **counters: int) -> None:
        for k, v in counters.items():
            self._counters[k] = self._counters.get(k, 0) + int(v)

    def set_gauge(self, **gauges: int) -> None:
        self._gauges.update({k: int(v) for k, v in gauges.items()})

    def snapshot(self) -> dict:
        return {**self._gauges, **self._counters}


def get_metrics_actor(name: str = DEFAULT_NAME):
    """Create-or-attach the named metrics actor (idempotent). A named actor
    lives only while some handle to it is held: keep the returned handle
    alive for as long as you want to poll."""
    return MetricsActor.options(name=name, get_if_exists=True).remote()


def live_progress(name: str = DEFAULT_NAME) -> dict:
    """Poll the in-flight counters (empty dict when no run is active)."""
    try:
        actor = ray.get_actor(name)
    except ValueError:
        return {}
    return ray.get(actor.snapshot.remote())
