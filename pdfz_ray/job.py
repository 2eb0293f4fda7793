"""Job driver CLI — the ``ray job submit`` entry point.

On a real cluster::

    ray job submit --working-dir . -- \
        python -m pdfz_ray.job --input '/data/docs/*.parquet' \
        --out /data/extracted --partition-size 64 --engine tesseract

Locally (this sandbox)::

    python -m pdfz_ray.job --input '/tmp/corpus/*.parquet' --out /tmp/out

This is the only module in the package that may own a Ray session (the
driver contract in ``__ray_entry__`` must NOT — the external driver holds
it). ``ray.init`` is guarded so it also runs under an existing session.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def _at_least_one(text: str) -> int:
    """argparse type of a size: an int of at least 1 (0 rows per batch,
    files per partition, CPUs, shards or tokens per sequence has no valid
    plan)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    from .pipelines.extract_pipeline import BATCH_ROWS

    p = argparse.ArgumentParser(description="pdfz_ray extraction job")
    p.add_argument("--input", required=True,
                   help="input parquet file(s) or glob of the interleaved docs table")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--jobs", default=None,
                   help="optional jobs parquet (doc_id, start_page, page_count, engine, model)")
    p.add_argument("--partition-size", type=_at_least_one, default=16,
                   help="input files per resumable partition")
    p.add_argument("--engine", default="tesseract")
    p.add_argument("--model", default=None)
    p.add_argument("--no-ocr", action="store_true")
    p.add_argument("--no-resume", action="store_true",
                   help="reprocess committed partitions")
    p.add_argument("--batch-size", type=_at_least_one, default=BATCH_ROWS,
                   help="most rows per extract kernel call and per written "
                        "file: each task reads its files in pieces of at "
                        "most this many rows from one partition's files. "
                        "Task size is separate: the files of each of the "
                        "two executions (the first partition, then the rest "
                        "in one execution) are grouped into about two tasks "
                        "per cluster CPU, at a row target of at least this "
                        "many and at most 16 times this many rows; a task "
                        "of several files holds under twice its target "
                        "(default %(default)s)")
    p.add_argument("--num-cpus", type=_at_least_one, default=None,
                   help="ray.init num_cpus when starting a local session")
    p.add_argument("--metrics", default=None, metavar="NAME",
                   help="publish live progress to this named metrics actor "
                        "(poll with pdfz_ray.state.metrics.live_progress)")
    p.add_argument("--skew-threshold", type=int, default=None,
                   help="ignored: every wave runs one read → extract → OCR "
                        "→ write task per group of files, and routing docs "
                        "above a span count to a second stage changed only "
                        "how tasks were laid out, never the output; kept so "
                        "that existing command lines still run")
    p.add_argument("--mode", choices=["extract", "curate"], default="extract",
                   help="extract = the flagship span pipeline; curate = "
                        "write packed training shards of the curated corpus")
    p.add_argument("--shards", type=_at_least_one, default=4,
                   help="[curate] number of output shards")
    p.add_argument("--budget", type=_at_least_one, default=512,
                   help="[curate] token budget per packed sequence")
    p.add_argument("--split", default="train",
                   help="[curate] which split to materialize")
    args = p.parse_args(argv)

    files = sorted(glob.glob(args.input)) if any(
        c in args.input for c in "*?[") else [args.input]
    if not files:
        print(f"no input files match {args.input!r}", file=sys.stderr)
        return 2

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kw = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus is not None:
            kw["num_cpus"] = args.num_cpus
        ray.init(address="local", **kw)
    try:
        import pyarrow.parquet as pq

        if args.mode == "curate":
            from .pipelines.curation_pipeline import write_training_shards

            res = write_training_shards(
                files,
                args.out,
                n_shards=args.shards,
                budget=args.budget,
                split=args.split,
                resume=not args.no_resume,
            )
            print(json.dumps(
                {
                    "out_dir": args.out,
                    "shards_run": len(res["ran"]),
                    "shards_skipped": len(res["skipped"]),
                    "manifest": res["manifest"],
                }
            ))
            return 0

        from .pipelines.extract_pipeline import run_partitioned

        jobs = pq.read_table(args.jobs) if args.jobs else None
        res = run_partitioned(
            files,
            args.out,
            jobs,
            partition_size=args.partition_size,
            resume=not args.no_resume,
            ocr=not args.no_ocr,
            ocr_engine=args.engine,
            ocr_model=args.model,
            batch_size=args.batch_size,
            metrics=args.metrics,
        )
        summary = {
            "out_dir": res["out_dir"],
            "partitions_run": len(res["partitions_run"]),
            "partitions_skipped": len(res["partitions_skipped"]),
            "manifest": res["manifest"],
            "output_files": len(res["output_files"]),
        }
        print(json.dumps(summary))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
