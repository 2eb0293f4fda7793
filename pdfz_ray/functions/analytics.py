"""Operational analytics — the SQL-checkable query surface (SURVEY.md §2.6).

The reference keeps its operational state in Redis (status, progress,
in-flight sets); the rebuild exposes the same information as Dataset
queries: status rollups, top-k largest docs, empty-page rates, dedup
counts. Plus the wide-operation demos over the driver's TPC-H-ish tables:
pre-aggregated groupbys (partial combine inside map_batches before the
shuffle) and a broadcast join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .text import split_tokens


def status_rollup(docs_ds: "ray.data.Dataset") -> pa.Table:
    """status → doc count over the interleaved input (corrupt sentinel =
    failed; mirrors GET /progress status mapping, api/src/server.ts:157-180).

    Pre-aggregates per batch (2 rows out per block) before the tiny final
    groupby — no full shuffle.
    """

    def partial(batch: pa.Table) -> pa.Table:
        corrupt = pc.ends_with(batch.column("doc_id"), pattern="-corrupt")
        n_fail = int(pc.sum(pc.cast(corrupt, pa.int64())).as_py() or 0)
        return pa.Table.from_pydict(
            {
                "status": ["failed", "done"],
                "n": [n_fail, batch.num_rows - n_fail],
            }
        )

    partials = docs_ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    out = partials.groupby("status").aggregate(Sum("n", alias_name="n_docs"))
    return out.to_pandas()


def top_largest_docs(docs_ds: "ray.data.Dataset", k: int = 10) -> pa.Table:
    """Top-k docs by span count (desc, doc_id asc tiebreak). Projects to
    (doc_id, n_spans) before the sort so the shuffle moves 2 columns."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pc.cast(
                    pc.fill_null(pc.list_value_length(batch.column("spans")), 0),
                    pa.int64(),
                ),
            ],
            names=["doc_id", "n_spans"],
        )

    proj = docs_ds.map_batches(project, batch_format="pyarrow")
    top = proj.sort(["n_spans", "doc_id"], descending=[True, False]).limit(k)
    return top.to_pandas()


def page_stats(docs_ds: "ray.data.Dataset") -> pa.Table:
    """(n_pages, n_empty_pages, n_docs) over non-corrupt docs — the
    empty-page-rate surface (M4 silent-swallow path), as exact integers."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.ends_with(batch.column("doc_id"), pattern="-corrupt"))
        batch = batch.filter(keep)
        spans = batch.column("spans").combine_chunks()
        flat = spans.flatten()
        if len(flat) == 0:
            return pa.Table.from_pydict(
                {"n_pages": [0], "n_empty_pages": [0], "n_docs": [batch.num_rows]}
            )
        parent = pc.list_parent_indices(spans).to_numpy().astype(np.int64)
        offset = flat.field("offset").to_numpy(zero_copy_only=False).astype(np.int64)
        is_text = pc.equal(flat.field("kind"), "text").to_numpy(zero_copy_only=False)
        # distinct (doc, page); a page is empty iff it has no text span
        keys = parent * (1 << 32) + offset
        uniq, inv = np.unique(keys, return_inverse=True)
        has_text = np.zeros(len(uniq), bool)
        np.logical_or.at(has_text, inv, is_text)
        return pa.Table.from_pydict(
            {
                "n_pages": [len(uniq)],
                "n_empty_pages": [int((~has_text).sum())],
                "n_docs": [batch.num_rows],
            }
        )

    from ray.data.aggregate import Sum

    partials = docs_ds.map_batches(partial, batch_format="pyarrow")
    df = partials.map_batches(
        lambda t: t.append_column("g", pa.array([1] * t.num_rows, pa.int64())),
        batch_format="pyarrow",
    )
    out = (
        df.groupby("g")
        .aggregate(
            Sum("n_pages", alias_name="n_pages"),
            Sum("n_empty_pages", alias_name="n_empty_pages"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .to_pandas()
        .drop(columns=["g"])
    )
    return out


def duplicate_doc_count(docs_ds: "ray.data.Dataset") -> pa.Table:
    """(n_rows, n_distinct_ids, n_dup_rows) — the J1 dedup surface."""
    ids = docs_ds.select_columns(["doc_id"])
    counts = ids.groupby("doc_id").count()
    df = counts.to_pandas()
    n_rows = int(df["count()"].sum())
    n_ids = len(df)
    import pandas as pd

    return pd.DataFrame(
        {
            "n_rows": [n_rows],
            "n_distinct_ids": [n_ids],
            "n_dup_rows": [n_rows - n_ids],
        }
    )


# ---------------------------------------------------------------------------
# Wide-operation demos over the driver's TPC-H-ish tables
# ---------------------------------------------------------------------------


def lineitem_pricing_summary(sf_dir: str) -> "pa.Table":
    """TPC-H Q1-shaped rollup with exact-integer measures: partial
    aggregation inside map_batches (one row per key per block), then a tiny
    groupby — the shuffle moves per-block partials, not 600k rows."""
    # bound the split count: over-splitting one small file makes empty
    # schema-less blocks that bypass map_batches and trip RefBundle schema
    # warnings; at corpus scale (many files) the default is fine
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
        override_num_blocks=8,
    )

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native partial aggregation (no pandas round trip); an empty
        # batch yields a typed empty table, so every block carries the same
        # schema (round-1 emitted schema-less empties → RefBundle warnings)
        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        t = pa.Table.from_arrays(
            [batch.column("l_returnflag"), batch.column("l_linestatus"), qty],
            names=["l_returnflag", "l_linestatus", "qty"],
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]
        )

    from ray.data.aggregate import Sum

    # partials are ≤ keys-per-block rows; coalesce to one block before the
    # final combine so the aggregate doesn't emit empty schema-less output
    # partitions (distinct keys = 6 < default partition count)
    partials = ds.map_batches(partial, batch_format="pyarrow").repartition(1)
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("n_rows", alias_name="n_rows"),
    )
    return out.to_pandas()


def orders_by_nation(sf_dir: str) -> "pa.Table":
    """Orders per nation name — a two-hop broadcast join (orders ⨝ customer
    ⨝ nation). Both dimension sides are `ray.put` once; the fact table
    streams through a vectorized lookup. No shuffle of orders rows."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    # broadcast a sorted-key numpy lookup (searchsorted beats a Python dict
    # map by orders of magnitude and ships as two flat arrays)
    ck = cust.column("c_custkey").to_numpy()
    nk = cust.column("c_nationkey").to_numpy().astype(np.int64)
    order = np.argsort(ck)
    ck_sorted, nk_sorted = ck[order], nk[order]
    n_nat = int(nk.max()) + 1 if len(nk) else 1
    ref = ray.put((ck_sorted, nk_sorted, n_nat))

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"], override_num_blocks=8
    )

    def partial(batch: pa.Table) -> pa.Table:
        cks, nks, nn = ray.get(ref)
        keys = batch.column("o_custkey").to_numpy()
        # inner-join semantics: drop custkeys absent from customer (see
        # revenue_by_nation's nation_partial)
        pos = np.searchsorted(cks, keys) if len(keys) else np.zeros(0, np.int64)
        pos = np.minimum(pos, max(len(cks) - 1, 0))
        hit = cks[pos] == keys if len(cks) else np.zeros(len(keys), bool)
        nat = nks[pos[hit]]
        counts = np.bincount(nat, minlength=nn)
        nz = np.nonzero(counts)[0]
        return pa.Table.from_arrays(
            [pa.array(nz.astype(np.int64)), pa.array(counts[nz].astype(np.int64))],
            names=["n_nationkey", "n"],
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = (
        partials.groupby("n_nationkey")
        .aggregate(Sum("n", alias_name="n_orders"))
        .to_pandas()
    )
    # attach nation names on the (25-row) driver side
    names = {
        int(k): v
        for k, v in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    }
    agg["n_name"] = agg["n_nationkey"].map(names)
    return agg[["n_name", "n_orders"]]


def events_hourly(sf_dir: str) -> "pa.Table":
    """Tumbling 1-hour window per event_type: count + exact min/max value
    (no float accumulation → SQL-hash-exact). Partial windows per batch,
    final combine in a small groupby."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "value"],
        override_num_blocks=8,
    )

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native window partial: floor_temporal + group_by (no pandas
        # round trip); typed even when the batch is empty
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        t = pa.Table.from_arrays(
            [batch.column("event_type"), hour, batch.column("value")],
            names=["event_type", "hour", "value"],
        )
        g = t.group_by(["event_type", "hour"]).aggregate(
            [("value", "count"), ("value", "min"), ("value", "max")]
        )
        return g.rename_columns(
            ["event_type", "hour", "n_events", "min_value", "max_value"]
        )

    from ray.data.aggregate import Max, Min, Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = partials.groupby(["event_type", "hour"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Min("min_value", alias_name="min_value"),
        Max("max_value", alias_name="max_value"),
    )
    return out.to_pandas()


def top_terms(sf_dir: str, k: int = 20) -> "pa.Table":
    """Corpus-wide top-k term frequencies — the classic wide aggregation
    with per-batch pre-aggregation: every batch emits (term, n) partials
    via one np.unique, so the groupby shuffles distinct-term partials
    (bounded by per-block vocabulary), never token streams. Final top-k
    sorts the (small) term table on the driver. Tokens = RE2 \\S+ over
    lowercased text, matching the SQL twin exactly."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"], override_num_blocks=8
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = split_tokens(pc.utf8_lower(batch.column("text")))
        terms, counts = np.unique(np.asarray(flat), return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(terms.astype(object), pa.string()), pa.array(counts.astype(np.int64))],
            names=["term", "n"],
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby("term").aggregate(Sum("n", alias_name="n")).to_pandas()
    agg = agg.sort_values(["n", "term"], ascending=[False, True]).head(k)
    return agg.reset_index(drop=True)


def orders_price_quantiles(
    sf_dir: str, q_pcts: tuple = (50, 90, 99)
) -> "pa.Table":
    """EXACT distributed quantiles via value-count compaction: each batch
    emits (value, n) partials from one np.unique over integer cents, the
    groupby shuffles distinct-value partials (bounded by price
    cardinality, not row count), and ``exact_quantile`` walks the sorted
    cumulative counts on the driver. Definition: smallest v with
    cum_count ≥ ceil(q·n) — expressed identically in the SQL twin."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"], override_num_blocks=8
    )

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        vals, counts = np.unique(cents, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(vals), pa.array(counts.astype(np.int64))],
            names=["v", "n"],
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow")
    hist = partials.groupby("v").aggregate(Sum("n", alias_name="n")).to_pandas()
    import pandas as pd

    return pd.DataFrame(
        [
            {"q_pct": int(q), "v_cents": exact_quantile(hist["v"], hist["n"], q)}
            for q in q_pcts
        ]
    )


def exact_quantile(values, counts, pct: int) -> int | None:
    """Exact ``pct``-th percentile of a value-count histogram (``counts[i]``
    rows hold ``values[i]``, in any order): the smallest value whose
    cumulative count reaches ceil(pct% of the rows), in integers. None
    for an empty histogram."""
    values, counts = np.asarray(values), np.asarray(counts)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(counts[order])
    if not len(cum):
        return None
    target = -(-pct * int(cum[-1]) // 100)
    return int(values[order][np.searchsorted(cum, target)])


def lang_distribution(sf_dir: str) -> "pa.Table":
    """documents lang → count (groupby over a pruned single column)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    out = ds.groupby("lang").count()
    df = out.to_pandas().rename(columns={"count()": "n_docs"})
    return df


def strip_schema_metadata(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Drop parquet/pandas schema metadata before a hash join — Ray's hash
    shuffle tries to hash block schemas for deduplication and the pandas
    metadata dict is unhashable, flooding the log with warnings."""
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )


def revenue_by_nation(sf_dir: str, num_partitions: int = 8) -> "pa.Table":
    """TPC-H Q5-shaped revenue rollup: lineitem ⨝ orders (hash join — both
    sides large) → customer/nation broadcast lookups → per-nation revenue.

    The scale plan: lineitem pre-aggregates revenue per orderkey INSIDE
    map_batches (rows are clustered by orderkey, so partials shrink ~4×
    before the shuffle), the hash join moves only (orderkey, revenue) and
    (orderkey, custkey) pairs, and the dimension sides (customer, nation)
    are broadcast once via ``ray.put``. Revenue is exact-integer
    (price-cents × discount-hundredths → 10^-4 currency units) so the
    DuckDB twin hash-matches with no float drift. At cluster scale raise
    ``num_partitions`` to ~2× total cores.
    """
    import pyarrow.parquet as pq

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        override_num_blocks=num_partitions,
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy()
        disc = batch.column("l_discount").to_numpy()
        # half-up rounding (floor(x+0.5)) == DuckDB round() for positives
        cents = np.floor(price * 100 + 0.5).astype(np.int64)
        dh = np.floor((1.0 - disc) * 100 + 0.5).astype(np.int64)
        t = pa.Table.from_arrays(
            [batch.column("l_orderkey"), pa.array(cents * dh)],
            names=["l_orderkey", "rev"],
        )
        g = t.group_by(["l_orderkey"]).aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "rev"])

    rev = line.map_batches(rev_partial, batch_format="pyarrow")

    orders = strip_schema_metadata(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey"],
            override_num_blocks=num_partitions,
        )
    )
    joined = rev.join(
        orders,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ck = cust.column("c_custkey").to_numpy()
    nk = cust.column("c_nationkey").to_numpy().astype(np.int64)
    order = np.argsort(ck)
    n_nat = int(nk.max()) + 1 if len(nk) else 1
    ref = ray.put((ck[order], nk[order], n_nat))

    def nation_partial(batch: pa.Table) -> pa.Table:
        cks, nks, nn = ray.get(ref)
        keys = batch.column("o_custkey").to_numpy()
        revs = batch.column("rev").to_numpy()
        # inner-join semantics: a custkey absent from customer drops the
        # row (clipped + mismatch-masked searchsorted) instead of silently
        # attributing revenue to a neighboring nation
        pos = np.searchsorted(cks, keys) if len(keys) else np.zeros(0, np.int64)
        pos = np.minimum(pos, max(len(cks) - 1, 0))
        hit = cks[pos] == keys if len(cks) else np.zeros(len(keys), bool)
        nat = nks[pos[hit]]
        sums = np.bincount(
            nat, weights=revs[hit].astype(np.float64), minlength=nn
        )
        # bincount weights go through float64 — exact for |sum| < 2^53,
        # which per-BATCH partials never approach (full-corpus totals are
        # combined as int64 in the groupby below)
        nz = np.nonzero(sums)[0]
        return pa.Table.from_arrays(
            [pa.array(nz.astype(np.int64)), pa.array(sums[nz].astype(np.int64))],
            names=["n_nationkey", "rev"],
        )

    from ray.data.aggregate import Sum

    partials = joined.map_batches(nation_partial, batch_format="pyarrow")
    agg = (
        partials.groupby("n_nationkey")
        .aggregate(Sum("rev", alias_name="revenue_c4"))
        .to_pandas()
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    names = dict(
        zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    )
    agg["n_name"] = agg["n_nationkey"].map(names)
    agg["revenue_c4"] = agg["revenue_c4"].astype("int64")
    return agg[["n_name", "revenue_c4"]]


class CountMinSketch:
    """Mergeable Count-Min sketch (Cormode & Muthukrishnan 2005) for
    heavy-hitter detection: d hash rows × w counters; point estimate =
    min over rows (never underestimates). Sized so full-depth collisions
    are vanishingly rare at the driver corpora's vocabulary (~10k terms
    into 2^17 counters), which makes the top-k estimates exact there —
    the SQL twin pins that. Merging is element-wise addition, so
    per-block sketches combine associatively (tree-merge at scale)."""

    def __init__(self, width: int = 1 << 17, depth: int = 4, seed: int = 42):
        self.width, self.depth = width, depth
        rng = np.random.default_rng(seed)
        self.salts = rng.integers(1, 2**62, size=depth).astype(np.uint64)
        self.table = np.zeros((depth, width), np.int64)

    def _cols(self, terms: np.ndarray) -> np.ndarray:
        import pandas as pd

        h = pd.util.hash_array(terms.astype(object))
        idx = np.empty((self.depth, len(h)), np.int64)
        for d in range(self.depth):
            idx[d] = (
                (h * (self.salts[d] | np.uint64(1))) >> np.uint64(17)
            ).astype(np.int64) % self.width
        return idx

    def add(self, terms: np.ndarray, counts: np.ndarray) -> None:
        if not len(terms):
            return
        idx = self._cols(terms)
        for d in range(self.depth):
            np.add.at(self.table[d], idx[d], counts)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.table += other.table
        return self

    def estimate(self, terms: np.ndarray) -> np.ndarray:
        if not len(terms):
            return np.zeros(0, np.int64)
        idx = self._cols(terms)
        return np.stack(
            [self.table[d][idx[d]] for d in range(self.depth)]
        ).min(axis=0)


def heavy_hitters(
    sf_dir: str, k: int = 20, candidates_per_block: int = 256
) -> "pa.Table":
    """Top-k terms via Count-Min sketch + per-block candidate lists — the
    sketch-based alternative to the exact ``top_terms`` groupby when the
    vocabulary itself is too wide to shuffle: each block ships ONE fixed
    4 MB sketch plus its local top candidates (the true global top-k is
    always within the union for candidates_per_block ≥ k·skew), the
    driver tree-merges sketches, and estimates rank the candidate union.
    No term-keyed shuffle at all. Estimates never undercount; at the
    driver corpora's vocabulary they are exact (pinned by the SQL twin).
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"], override_num_blocks=8
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = split_tokens(pc.utf8_lower(batch.column("text")))
        terms, counts = np.unique(np.asarray(flat), return_counts=True)
        cms = CountMinSketch()
        cms.add(terms, counts)
        order = np.lexsort((terms, -counts))[:candidates_per_block]
        return pa.Table.from_arrays(
            [
                pa.array([cms.table.tobytes()], pa.binary()),
                pa.array([terms[order].tolist()], pa.list_(pa.string())),
            ],
            names=["sketch", "candidates"],
        )

    def combine(batch: pa.Table) -> pa.Table:
        # data-plane combine level: up to batch_size sketches merge into
        # one before anything reaches the driver — the driver sees
        # n_blocks/batch_size rows, not one 4 MB row per block. For
        # 10^5+-block corpora apply this stage again (it is idempotent
        # in shape) for a deeper tree.
        acc = CountMinSketch()
        cand: list[str] = []
        for r in range(batch.num_rows):
            acc.table += np.frombuffer(
                batch.column("sketch")[r].as_py(), np.int64
            ).reshape(acc.table.shape)
            cand.extend(batch.column("candidates")[r].as_py())
        return pa.Table.from_arrays(
            [
                pa.array([acc.table.tobytes()], pa.binary()),
                pa.array([sorted(set(cand))], pa.list_(pa.string())),
            ],
            names=["sketch", "candidates"],
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(combine, batch_format="pyarrow", batch_size=32)
        .take_all()
    )
    merged = CountMinSketch()
    cand: set[str] = set()
    for r in rows:
        t = np.frombuffer(r["sketch"], np.int64).reshape(merged.table.shape)
        merged.table += t
        cand.update(r["candidates"])
    terms = np.array(sorted(cand), object)
    est = merged.estimate(terms)
    order = np.lexsort((terms, -est))[:k]
    return pa.Table.from_arrays(
        [
            pa.array(terms[order].tolist(), pa.string()),
            pa.array(est[order].astype(np.int64)),
        ],
        names=["term", "n"],
    ).to_pandas()
