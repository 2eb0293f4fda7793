"""Checkpoint manifest + per-partition lineage (SURVEY.md §4 resume row).

The reference's resume story is implicit and lossy: a Redis in-flight key
with TTL 3600 plus output-file clobbering (api/src/server.ts:90-103,
extractor/src/helper/file_helper.rs:67-73). The rebuild makes it explicit:

- output is partitioned — one directory per input partition
  (``part-{i:05d}``), written to a temp dir of this run and atomically
  renamed;
- a manifest line (JSON) is appended per *completed* partition with its
  lineage metrics (docs, pages, decode_failures, empty_pages, wall_s);
- resume = skip partitions already in the manifest (the anti-join of the
  input partition list against the manifest — driver-side, the manifest is
  tiny even at 10^12 docs because partitions are coarse);
- a committed partition is withdrawn by a later ``retired`` line, written
  before its directory is removed.

This gives effectively-exactly-once output on top of Ray's at-least-once
task retries: a partition directory is only visible once its rename
committed, and the rename commits only after every block of the partition
was written. Temp dirs belong to one run (``Manifest`` mints a token per
instance): a late write of a failed run lands in that run's own dir, which
no commit of another run renames, or fails because a later run purged it.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid


def input_identity(path: str) -> str:
    """An input file's identity for a resume fingerprint, from one
    ``os.stat``: its path, size and mtime in ns. A rewrite in place
    changes it, even at the same size within the same second."""
    st = os.stat(path)
    return f"{path}|{st.st_size}|{st.st_mtime_ns}"


class Manifest:
    """Append-only JSONL manifest of completed partitions. Each instance is
    one run: ``run`` is the token in the names of its temp dirs."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "_manifest.jsonl")
        self.run = uuid.uuid4().hex[:12]
        os.makedirs(out_dir, exist_ok=True)

    def completed(self) -> dict[int, dict]:
        """Committed partitions by id: those whose last row is ``done`` (a
        later ``retired`` row withdraws a commit). A final line that does
        not parse is an append torn by a crash: its partition never
        committed, so it is skipped (and re-run). A torn line anywhere else
        still raises."""
        done: dict[int, dict] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                lines = [s for s in (line.strip() for line in f) if s]
            for i, line in enumerate(lines):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    if i == len(lines) - 1:
                        break
                    raise
                pid = int(row["partition_id"])
                if row.get("status") == "done":
                    done[pid] = row
                else:
                    done.pop(pid, None)
        return done

    def partition_dir(self, pid: int) -> str:
        return os.path.join(self.out_dir, f"part-{pid:05d}")

    def temp_dir(self, pid: int) -> str:
        """This run's temp dir of partition ``pid``."""
        return os.path.join(self.out_dir, f".tmp-part-{pid:05d}-{self.run}")

    def begin(self, pid: int) -> str:
        """Fresh temp dir for the partition's writes. Every temp dir of
        another run is removed first, whatever its partition: an earlier
        run's leftovers (of any chunking) go, and a write task of a failed
        run that is still going fails or writes into a dir no commit of this
        run looks at; ``ignore_errors``, so such a task racing the removal
        cannot fail this run."""
        for name in os.listdir(self.out_dir):
            if name.startswith(".tmp-part-") and not name.endswith(f"-{self.run}"):
                shutil.rmtree(os.path.join(self.out_dir, name), ignore_errors=True)
        tmp = self.temp_dir(pid)
        os.makedirs(tmp)
        return tmp

    def commit(self, pid: int, metrics: dict) -> None:
        """Atomic rename + manifest append = the partition's commit point."""
        final = self.partition_dir(pid)
        if os.path.exists(final):
            shutil.rmtree(final)  # re-run of an uncommitted partition
        os.rename(self.temp_dir(pid), final)
        self._append(
            {"partition_id": pid, "status": "done", "committed_at": time.time(), **metrics}
        )

    def retire(self, pid: int) -> None:
        """Withdraw a committed partition: a ``retired`` manifest row, then
        its directory removed. In this order a crash in between leaves an
        unlisted directory, never a listed partition without its output."""
        self._append({"partition_id": pid, "status": "retired", "retired_at": time.time()})
        final = self.partition_dir(pid)
        if os.path.exists(final):
            shutil.rmtree(final)

    def _append(self, row: dict) -> None:
        with open(self.path, "ab+") as f:
            if f.seek(0, os.SEEK_END):
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    # a torn final line from a crash: cut it, or this
                    # record would be glued onto it
                    f.seek(0)
                    f.truncate(f.read().rfind(b"\n") + 1)
            f.write((json.dumps(row) + "\n").encode())
