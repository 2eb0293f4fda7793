"""Side-by-side check of queries() vs oracle_sql() — the driver's
correctness gate, reproduced locally. Run from /root/repo:

    python scripts/check_queries.py [sf_dir] [only_csv]

Optional second arg: comma-separated query names to check (default all).
Each line gives the verdict, the query's wall seconds (the call and its
``to_pandas``, not the oracle) and its name. The first query runs once
untimed before the timed loop, so the session's start-up (worker
processes, imports) falls into no query's seconds; the run's first
shuffle still pays its own start-up.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

import ray

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def compare(got: pd.DataFrame, want: pd.DataFrame) -> tuple[bool, str]:
    if sorted(got.columns) != sorted(want.columns):
        return False, f"columns {sorted(got.columns)} != {sorted(want.columns)}"
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    if len(g) != len(w):
        return False, f"rows {len(g)} != {len(w)}"
    if g.astype(str).equals(w.astype(str)):
        return True, f"{len(g)} rows"
    diff = (g.astype(str) != w.astype(str)).any(axis=1)
    i = diff.idxmax()
    return False, f"value diff at row {i}:\n  got  {g.loc[i].to_dict()}\n  want {w.loc[i].to_dict()}"


def main(sf_dir: str = "/root/testdata/sf0.01", only: str = "") -> int:
    ray.init(
        address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    qs, sqls = e.queries(), e.oracle_sql()
    if only:
        keep = {s.strip() for s in only.split(",") if s.strip()}
        qs = {k: v for k, v in qs.items() if k in keep}
    if qs:
        try:  # untimed warm-up; a failing query is reported by the timed loop
            got = next(iter(qs.values()))(sf_dir)
            if hasattr(got, "to_pandas"):
                got.to_pandas()
        except Exception:  # noqa: BLE001
            pass
    failures = 0
    for name, fn in qs.items():
        try:
            t0 = time.perf_counter()
            got = fn(sf_dir)
            if hasattr(got, "to_pandas"):
                got = got.to_pandas()
            secs = time.perf_counter() - t0
            if name in sqls:
                want = con.execute(sqls[name]).df()
                ok, msg = compare(got, want)
                print(f"{'PASS' if ok else 'FAIL'} {secs:7.3f}s {name}: {msg}")
                failures += 0 if ok else 1
            else:
                print(f"ROWS {secs:7.3f}s {name}: {len(got)} rows (no SQL oracle)")
        except Exception as ex:  # noqa: BLE001
            print(f"ERR  {name}: {type(ex).__name__}: {ex}")
            failures += 1
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
