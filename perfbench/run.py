"""Job-path benchmark for ``python -m pdfz_ray.job``.

    python3 perfbench/run.py --workload bulk_lowdup --seed 1 --seconds 15 --trace 0

One run: generate the workload's inputs from the seed, build the golden
from ``pdfz_ray.oracle``, start one Ray session (``num_cpus=1``), run one
untimed warm-up job, then drive ``pdfz_ray.job.main`` with the CLI
arguments a user would pass, in a closed loop of one client:

1. submit a fresh job and wait for it;
2. resubmit it unchanged ``RESUBMITS`` times (each must run nothing);
3. start the next fresh job, until ``--seconds`` have passed.

Every job and resubmission is checked against the golden; a mismatch is
a failed operation, and the loop stops at the first one. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates traced and untraced jobs and reports the per-layer metrics.
The last stdout line is the result object; everything else (Ray, Ray
Data, the job's own summary) goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESUBMITS = 5


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_metrics(spec: dict, trace: bool, values: dict) -> dict:
    """``values`` named and united exactly as BENCHMARK.json lists them."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in listed]
    if set(values) != set(names):
        raise KeyError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def call_job(argv: list[str]) -> tuple[int, dict, float]:
    """(exit code, printed summary, wall seconds) of one ``job.main`` call;
    its stdout is captured and forwarded to stderr."""
    from pdfz_ray import job

    from perfbench.session import check_signals

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = job.main(argv)
    wall = time.perf_counter() - t0
    check_signals()
    text = buf.getvalue()
    sys.stderr.write(text)
    lines = text.strip().splitlines()
    return rc, json.loads(lines[-1]) if lines else {}, wall


class Bench:
    def __init__(self, workload, seed: int, work: str):
        from perfbench.golden import Golden
        from perfbench.workloads import make_corpus, write_corpus

        self.w = workload
        self.work = work
        t0 = time.perf_counter()
        corpus = make_corpus(workload, seed)
        self.inputs, self.jobs = write_corpus(corpus, os.path.join(work, "in"))
        self.golden = Golden(corpus)
        self.files = [
            os.path.join(work, "in", f"in-{i:03d}.parquet") for i in range(len(corpus.files))
        ]
        self.later_files = _later_occurrence_files(self.files, corpus)
        self.parts = -(-len(corpus.files) // workload.partition_size)
        # the warm-up job: same flags, a small corpus of the same shape
        warm_w = replace(workload, docs=400, files=4,
                         monster_spans=min(workload.monster_spans, 600))
        warm = make_corpus(warm_w, seed)
        self.warm_inputs, self.warm_jobs = write_corpus(warm, os.path.join(work, "warm-in"))
        self.warm_golden = Golden(warm)
        self.warm_parts = -(-len(warm.files) // workload.partition_size)
        log(f"inputs: {sum(t.num_rows for t in corpus.files)} rows in {len(corpus.files)} "
            f"files, {corpus.dup_rows} dup rows, {corpus.monsters} monsters, golden "
            f"{self.golden.totals}; generated in {time.perf_counter() - t0:.2f} s")
        self.attempted = 0
        self.failed = 0
        self.fresh: list[dict] = []
        self.resumes: list[float] = []
        self.job_no = 0

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        log(f"FAILED {what}: {'; '.join(problems)}")

    def warm_up(self) -> None:
        out = os.path.join(self.work, "warm-out")
        self.attempted += 1
        try:
            rc, summary, _ = call_job(self.w.cli_args(self.warm_inputs, self.warm_jobs, out))
            self.setup_end = time.perf_counter()
            problems = self._job_problems(rc, summary, self.warm_parts, self.warm_golden, out)
        except Exception:
            self.setup_end = time.perf_counter()
            problems = [traceback.format_exc()]
        if problems:
            self._fail("warm-up job", problems)
        shutil.rmtree(out, ignore_errors=True)

    def _job_problems(self, rc, summary, parts, golden, out) -> list[str]:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        ran, skipped = summary.get("partitions_run"), summary.get("partitions_skipped")
        if (ran, skipped) != (parts, 0):
            problems.append(f"ran {ran} and skipped {skipped} of {parts} partitions")
        return problems + golden.check(out)

    def cycle(self, tracer=None) -> None:
        """One fresh job, checked, then its resubmissions, checked."""
        from perfbench.golden import output_bytes, snapshot
        from perfbench.session import host_steal_s, peak_rss_mb, reset_peak_rss, tree_cpu_s

        self.job_no += 1
        out = os.path.join(self.work, f"out-{self.job_no}")
        argv = self.w.cli_args(self.inputs, self.jobs, out)
        self.attempted += 1
        reset_peak_rss()
        cpu0 = tree_cpu_s()
        steal0 = host_steal_s()
        submitted = time.time()
        try:
            with tracer.active() if tracer else contextlib.nullcontext():
                rc, summary, wall = call_job(argv)
        except Exception:
            if tracer:
                tracer.take()  # a failed job's spans must not join the next job's
            self._fail(f"job {self.job_no}", [traceback.format_exc()])
            shutil.rmtree(out, ignore_errors=True)
            return
        cpu = tree_cpu_s() - cpu0
        steal = host_steal_s() - steal0
        rss = peak_rss_mb()
        spans = tracer.take() if tracer else None
        problems = self._job_problems(rc, summary, self.parts, self.golden, out)
        if problems:
            self._fail(f"job {self.job_no}", problems)
        try:
            with open(os.path.join(out, "_manifest.jsonl")) as f:
                first_commit = min(json.loads(line)["committed_at"] for line in f) - submitted
        except (OSError, ValueError):
            shutil.rmtree(out, ignore_errors=True)
            return  # nothing committed: no timing record, no resubmissions
        pages = self.golden.totals["pages"]
        self.fresh.append({
            "traced": tracer is not None,
            "spans": spans,
            "wall_s": wall,
            "cpu_s": cpu,
            "pages": pages,
            "rss_mb": rss,
            "first_commit_s": first_commit,
            "out_bytes": output_bytes(out),
            "steal_s": steal,
        })
        log(f"job {self.job_no}{' traced' if tracer else ''}: {wall:.3f} s, cpu {cpu:.2f} s, "
            f"first commit {first_commit:.3f} s, rss {rss:.0f} MB, host steal {steal:.2f} s")
        for r in range(RESUBMITS):
            self.attempted += 1
            before = snapshot(out)
            try:
                rc, summary, wall = call_job(argv)
            except Exception:
                self._fail(f"resubmission {r} of job {self.job_no}", [traceback.format_exc()])
                continue
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if summary.get("partitions_run") != 0:
                problems.append(f"ran {summary.get('partitions_run')} partitions")
            if snapshot(out) != before:
                problems.append("changed files")
            if problems:
                self._fail(f"resubmission {r} of job {self.job_no}", problems)
            self.resumes.append(wall)
        shutil.rmtree(out, ignore_errors=True)


def _later_occurrence_files(files: list[str], corpus) -> set[str]:
    """Input files holding a row that dedup drops (not the first copy)."""
    seen: set[str] = set()
    later = set()
    for path, t in zip(files, corpus.files):
        for d in t.column("doc_id").to_pylist():
            if d in seen:
                later.add(path)
            seen.add(d)
    return later


def end_to_end(b: Bench, setup_s: float) -> dict:
    jobs = [j for j in b.fresh if not j["traced"]]
    med = statistics.median
    return {
        "setup_s": setup_s,
        # one Ray CPU, so pages per wall second is already per CPU
        "pages_per_s": med(j["pages"] / j["wall_s"] for j in jobs),
        "cpu_us_per_page": med(j["cpu_s"] / j["pages"] * 1e6 for j in jobs),
        "first_commit_s": med(j["first_commit_s"] for j in jobs),
        "resume_s": med(b.resumes),
        # the first job's peak: a user's process runs one job after set-up
        "driver_rss_peak_mb": jobs[0]["rss_mb"],
        "out_bytes_per_page": med(j["out_bytes"] / j["pages"] for j in jobs),
    }


def per_layer(b: Bench, inproc: dict, host: dict) -> dict:
    from perfbench.trace import job_layers

    med = statistics.median
    traced = [job_layers(j["spans"], b.later_files) for j in b.fresh if j["traced"]]
    layers = {k: med(t[k] for t in traced) for k in traced[0]}
    job_s = med(j["wall_s"] for j in b.fresh if not j["traced"])
    traced_s = med(j["wall_s"] for j in b.fresh if j["traced"])
    return {
        **layers,
        **inproc,
        "ray.job_s": job_s,
        "ray.overhead_s": job_s - inproc["ray.inprocess_s"],
        "ray.overhead_share": (job_s - inproc["ray.inprocess_s"]) / job_s,
        "trace.overhead_s": traced_s - job_s,
        "host.vcpus": host["vcpus"],
        "host.nproc": host["nproc"],
        "host.calib_burn_ms": host["calib_burn_ms"],
        "host.steal_s": med(j["steal_s"] for j in b.fresh),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    # the result line is the only thing written to the real stdout
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x
    )
    from perfbench.session import RaySession, Terminated, check_signals, raise_on_signals

    raise_on_signals()
    try:
        import pdfz_ray.job  # noqa: F401  (fails early outside a full checkout)
        from perfbench.workloads import BATCH_SIZE, WORKLOADS

        spec = load_spec()
    except Exception as e:
        log(f"cannot start: {e!r}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        return 2
    w = WORKLOADS[args.workload]

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    # temp files of Ray, Ray Data and pyarrow stay inside the run's work dir
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    tempfile.tempdir = None
    try:
        b = Bench(w, args.seed, work)
        inproc = host = None
        if args.trace:
            from perfbench.trace import Tracer, host_facts, inprocess_pass

            host = host_facts()
            log(f"host: {json.dumps(host)}")
            inproc = inprocess_pass(b.files, b.jobs, BATCH_SIZE, os.path.join(work, "inproc"))
        with RaySession(work, log) as session:
            b.warm_up()
            setup_s = b.setup_end - session.t0
            log(f"setup: ray.init {session.init_s:.3f} s, to end of warm-up {setup_s:.3f} s")
            tracer = None
            if args.trace:
                tracer = Tracer()
                if tracer.skipped:
                    log(f"wrappers skipped (targets renamed or removed): {tracer.skipped}")
            t0 = time.perf_counter()
            while True:
                n_plain = sum(not j["traced"] for j in b.fresh)
                n_traced = len(b.fresh) - n_plain
                enough = n_plain >= 1 and (n_traced >= 1 or not args.trace)
                # after a failure the result is incorrect whatever follows
                if b.failed or (enough and time.perf_counter() - t0 >= args.seconds):
                    break
                use_tracer = tracer is not None and n_traced < n_plain
                b.cycle(tracer if use_tracer else None)
            check_signals()
        log(f"host steal per fresh job, summed over vCPUs: "
            f"{[round(j['steal_s'], 2) for j in b.fresh]} s")
        plain = [j for j in b.fresh if not j["traced"]]
        if args.trace:
            usable = plain and len(plain) < len(b.fresh)
        else:
            usable = plain and b.resumes
        if usable:
            values = per_layer(b, inproc, host) if args.trace else end_to_end(b, setup_s)
            metrics = result_metrics(spec, bool(args.trace), values)
        else:
            log("no fresh job or resubmission completed: no metrics to report")
            metrics = {}
        result = {
            "correct": b.failed == 0 and bool(usable),
            "attempted": b.attempted,
            "failed": b.failed,
            "metrics": metrics,
        }
    except Terminated as e:
        log(f"stopped by signal {e.signum}")
        return 128 + e.signum
    except Exception:
        log(f"run failed:\n{traceback.format_exc()}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        print(json.dumps({"host": host, "wrappers_skipped": tracer.skipped}), file=result_out)
    print(json.dumps(result), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
