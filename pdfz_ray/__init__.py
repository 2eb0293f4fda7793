"""pdfz_ray — a Ray-Data-native extraction + training-data engine.

A from-scratch rebuild of the *semantics* of codad5/pdfz (reference at
/root/reference) on idiomatic Ray Data: ``ray.data.Dataset`` pipelines of
``map_batches`` over zero-copy Arrow batches, per-worker engine caches
and actor pools for stateful (OCR/model) stages, and explicit
partitioning / checkpointing for the 10^12-document scale described in
BASELINE.json.

Layout:
  schema.py       Arrow schemas for the interleaved-documents data model
  corpus.py       deterministic synthetic corpus generator (seed-stable)
  oracle.py       pure-Python single-process reference oracle (executable spec)
  jobs.py         job-parameter normalization/validation
  stages/         map_batches UDFs (extract, engines, media, text, dedup, ...)
  pipelines/      end-to-end Dataset pipelines (flagship extraction: one
                  read → dedup → extract → OCR task per group of files,
                  with a partition writer on the job path)
  state/          checkpoint manifest + per-partition lineage/metrics
  sources/        readers/writers (parquet today, lance-shaped URIs)
"""

__version__ = "0.1.0"
