"""Resumable training-shard writer: curated corpus → packed parquet shards.

This is the artifact a training job actually consumes — the composition of
the curation gates (`functions/curation.curation_state`) with per-shard
sequence packing and the same atomic-commit manifest the extraction
pipeline uses (`state/manifest.Manifest`; reference resume semantics:
SURVEY.md §4 resume row).

Scale shape:
- curation state is built once (two text passes; small broadcasts);
- each shard is a contiguous doc_id range, read with a parquet predicate
  pushdown — payloads are read once per shard, never shuffled between
  shards;
- survivorship is re-evaluated batch-locally during the payload pass
  (the whole point of `survivor_mask_and_split`) — there is NO
  corpus-sized survivor broadcast;
- packing is PER SHARD (the standard pretraining layout: each shard is an
  independently consumable file of packed sequences), via the same
  two-phase bucket prefix scan and kernel (`pack_bucket`) as
  `pack_sequences`, with bucket totals computed from the materialized
  narrow table — only the within-shard bucket groupby touches payload
  rows;
- one shard = one atomic commit (temp dir → rename + manifest line);
  resume skips shards whose parameter fingerprint matches.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..functions.curation import (
    curation_narrow_batch,
    curation_state,
    pack_bucket,
    survivor_mask_and_split,
)
from ..state.manifest import Manifest, input_identity


def write_training_shards(
    input_paths: list[str] | str,
    out_dir: str,
    n_shards: int = 4,
    budget: int = 512,
    pct: int = 25,
    n: int = 5,
    modulus: int = 23,
    split: str = "train",
    bucket_size: int = 4096,
    resume: bool = True,
) -> dict:
    """Write the curated ``split`` slice as ``n_shards`` packed parquet
    shards under ``out_dir``. Returns {"ran": [...], "skipped": [...],
    "manifest": path}. Shard rows: (doc_id, text, n_tokens, pack_id,
    pack_offset) with pack ids local to the shard."""
    if isinstance(input_paths, str):
        input_paths = [input_paths]
    ds = ray.data.read_parquet(input_paths, columns=["doc_id", "text"])
    state = curation_state(ds, pct=pct, n=n, modulus=modulus)
    narrow = state["narrow"]
    gate_ref = ray.put((state["winner_of"], state["thresh"]))
    bench_ref = state["bench_ref"]

    from ray.data.aggregate import Max, Min

    span = narrow.aggregate(Min("doc_id"), Max("doc_id"))
    lo_id, hi_id = int(span["min(doc_id)"]), int(span["max(doc_id)"])
    width = -(-(hi_id - lo_id + 1) // n_shards)  # ceil
    # the fingerprint covers input file IDENTITY (size + mtime in ns), not
    # just paths: an input parquet rewritten in place must invalidate
    # committed shards — a resumed run over changed bytes would silently
    # keep stale output labeled complete
    input_sig = [input_identity(p) for p in sorted(input_paths)]
    params_md5 = hashlib.md5(
        "|".join(
            map(str, [input_sig, n_shards, budget, pct, n, modulus, split, bucket_size])
        ).encode()
    ).hexdigest()

    manifest = Manifest(out_dir)
    done = set()
    if resume:
        for pid, row in manifest.completed().items():
            if row.get("params_md5") == params_md5:
                done.add(pid)

    def survivors(nb: pa.Table) -> pa.Array:
        """Batch-local survivor + split keep mask of narrow-schema rows."""
        winners, thr = ray.get(gate_ref)
        keep, splits = survivor_mask_and_split(nb, thr, winners)
        return pa.array(keep & (splits == split))

    # per-(shard, bucket) survivor token totals from the NARROW table in ONE
    # pass (no text) — per-shard exclusive cumsums are sliced from it below,
    # so N shards don't pay N pipeline executions for their offsets
    def bucket_totals(batch: pa.Table) -> pa.Table:
        batch = batch.filter(survivors(batch))
        ids = batch.column("doc_id").to_numpy()
        t = pa.Table.from_arrays(
            [
                pa.array(np.minimum((ids - lo_id) // width, n_shards - 1)),
                pa.array(ids // bucket_size),
                batch.column("n_tokens"),
            ],
            names=["shard", "bucket", "n_tokens"],
        )
        g = t.group_by(["shard", "bucket"]).aggregate([("n_tokens", "sum")])
        return g.rename_columns(["shard", "bucket", "total"])

    from ray.data.aggregate import Sum

    all_totals = (
        narrow.map_batches(bucket_totals, batch_format="pyarrow")
        .groupby(["shard", "bucket"])
        .aggregate(Sum("total", alias_name="total"))
        .to_pandas()
    )
    if "shard" not in all_totals.columns:
        # a corpus with ZERO survivors yields only empty blocks, whose
        # to_pandas loses the schema; every shard then commits empty
        # (the r2 zero-survivor-SHARD fix, extended to the whole corpus)
        import pandas as pd

        all_totals = pd.DataFrame({"shard": [], "bucket": [], "total": []})
    all_totals = all_totals.sort_values(["shard", "bucket"])

    ran, skipped = [], []
    for sid in range(n_shards):
        if sid in done:
            skipped.append(sid)
            continue
        t0 = time.perf_counter()
        s_lo, s_hi = lo_id + sid * width, lo_id + (sid + 1) * width

        totals = all_totals[all_totals["shard"] == sid]
        csum = totals["total"].cumsum().shift(fill_value=0)
        offsets_ref = ray.put(dict(zip(totals["bucket"], csum)))

        # payload pass: pushdown read of the shard's doc_id range only
        shard_ds = ray.data.read_parquet(
            input_paths,
            columns=["doc_id", "text"],
            filter=(pads.field("doc_id") >= s_lo) & (pads.field("doc_id") < s_hi),
        )

        def keep_survivors(batch: pa.Table) -> pa.Table:
            nb = curation_narrow_batch(batch, bench_ref=bench_ref, n=n)
            sel = survivors(nb)
            out = batch.filter(sel)
            return pa.Table.from_arrays(
                [
                    out.column("doc_id"),
                    out.column("text"),
                    nb.column("n_tokens").filter(sel),
                    pa.array(
                        (out.column("doc_id").to_numpy() // bucket_size)
                        if out.num_rows
                        else np.zeros(0, np.int64)
                    ),
                ],
                names=["doc_id", "text", "n_tokens", "bucket"],
            )

        def assign(group: pa.Table) -> pa.Table:
            return pack_bucket(group, ray.get(offsets_ref), budget)

        packed = (
            shard_ds.map_batches(keep_survivors, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(assign, batch_format="pyarrow")
        )
        tmp = manifest.begin(sid)
        packed.write_parquet(tmp)
        # a shard range with zero survivors writes no parquet files; its
        # empty dataset has no schema, so selecting columns would throw —
        # commit it as an (honestly) empty shard instead
        files = pads.dataset(tmp, format="parquet").files
        if files:
            mt = pads.dataset(files, format="parquet").to_table(
                columns=["n_tokens", "pack_id"]
            )
            n_docs = mt.num_rows
            n_tokens = int(pc.sum(mt.column("n_tokens")).as_py() or 0)
            n_packs = len(pc.unique(mt.column("pack_id"))) if n_docs else 0
        else:
            n_docs = n_tokens = n_packs = 0
        manifest.commit(
            sid,
            {
                "params_md5": params_md5,
                "split": split,
                "doc_lo": s_lo,
                "doc_hi": s_hi,
                "n_docs": n_docs,
                "n_tokens": n_tokens,
                "n_packs": n_packs,
                "wall_s": round(time.perf_counter() - t0, 4),
            },
        )
        ran.append(sid)
    return {"ran": ran, "skipped": skipped, "manifest": manifest.path}
