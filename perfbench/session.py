"""One Ray session per benchmark process, and a teardown that leaves no
process of the benchmark's tree alive.

- ``ray.init`` is called once, with ``num_cpus=1``, a fixed object store,
  ``log_to_driver=False`` and a short temp dir in ``/tmp`` that this run
  creates and removes (Ray's unix sockets live there, and a socket path
  may not exceed 107 bytes). The object store is file-backed inside the
  run's work dir, so nothing is written to ``/dev/shm``.
- The benchmark process makes itself a child subreaper, so any descendant
  orphaned by a dying parent is re-parented to it and stays visible.
- Teardown (normal exit, exception, SIGTERM/SIGINT, or a failed
  ``ray.init``): snapshot every descendant, ``ray.shutdown()``, wait for
  each snapshotted process, kill what remains, and return only when the
  whole tree is gone.

Process facts come from ``/proc`` directly (psutil is only importable
through Ray's vendored copy).
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import sys
import tempfile
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
OBJECT_STORE_BYTES = 256 << 20
RAY_TEMP_PREFIX = "perfbench-ray-"
# fault injection for the self-tests: JSON passed as ray.init(_system_config=...)
FAULT_ENV = "PERFBENCH_RAY_SYSTEM_CONFIG"


class Terminated(BaseException):
    """Raised in the main thread by SIGTERM/SIGINT so teardown runs; not an
    ``Exception``, so per-job error handling cannot swallow it."""

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces; fields after it are space-separated
    return raw[raw.rindex(")") + 2 :].split()


def _proc_key(pid: int) -> tuple[int, int] | None:
    st = _stat(pid)
    return None if st is None else (pid, int(st[19]))  # starttime


def _alive(key: tuple[int, int]) -> bool:
    st = _stat(key[0])
    return st is not None and int(st[19]) == key[1] and st[0] not in ("Z", "X")


def descendants(root: int | None = None) -> set[tuple[int, int]]:
    """(pid, starttime) of every live descendant of ``root``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is not None and st[0] not in ("Z", "X"):
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), []):
            key = _proc_key(c)
            if key is not None:
                out.add(key)
                todo.append(c)
    return out


def tree_cpu_s() -> float:
    """User+sys CPU seconds of this process and its whole tree, including
    descendants that already exited and were reaped (cutime/cstime)."""
    total = 0
    for pid in [os.getpid()] + [p for p, _ in descendants()]:
        st = _stat(pid)
        if st is not None:
            total += sum(int(x) for x in st[11:15])  # utime stime cutime cstime
    return total / CLK_TCK


def host_steal_s() -> float:
    """Seconds of steal time summed over the host's vCPUs (/proc/stat)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / CLK_TCK


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM so the next read is the peak since now."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _become_subreaper() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # descendants are still tracked through the snapshot


_received: list[int] = []


def _raise_terminated(signum, _frame):
    _received.append(signum)
    raise Terminated(signum)


def check_signals() -> None:
    """Raise ``Terminated`` again for a signal already received. Python only
    prints an exception raised inside a weakref callback or ``__del__``, so
    a handler that runs there is swallowed; callers check between jobs."""
    if _received:
        raise Terminated(_received[0])


def raise_on_signals() -> None:
    """SIGTERM and SIGINT raise ``Terminated`` in the main thread."""
    for s in (signal.SIGTERM, signal.SIGINT):
        signal.signal(s, _raise_terminated)


class RaySession:
    """``with RaySession(work_dir) as s:`` owns one Ray session."""

    def __init__(self, work_dir: str, log=None):
        self.work_dir = work_dir
        self.log = log or (lambda msg: print(msg, file=sys.stderr))
        self.temp_dir: str | None = None
        self.init_s: float | None = None
        self._handlers = {}

    def __enter__(self) -> "RaySession":
        _become_subreaper()
        self._handlers = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
        raise_on_signals()
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self) -> None:
        self.temp_dir = tempfile.mkdtemp(prefix=RAY_TEMP_PREFIX, dir="/tmp")
        plasma = os.path.join(self.work_dir, "plasma")
        os.makedirs(plasma, exist_ok=True)
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        kw = {}
        if os.environ.get(FAULT_ENV):
            kw["_system_config"] = json.loads(os.environ[FAULT_ENV])
        import ray

        t0 = time.perf_counter()
        self.t0 = t0
        ray.init(
            address="local",
            num_cpus=1,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self.temp_dir,
            _plasma_directory=plasma,
            **kw,
        )
        self.init_s = time.perf_counter() - t0
        raise_on_signals()  # ray.init installs its own SIGTERM handler
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    def close(self, timeout_s: float = 15.0) -> None:
        """Stop every process of this run's tree; idempotent. Signals are
        held off until the tree is gone, then the caller's handlers return."""
        for s in (signal.SIGTERM, signal.SIGINT):
            signal.signal(s, signal.SIG_IGN)
        try:
            self._stop_tree(timeout_s)
        finally:
            for s, h in self._handlers.items():
                signal.signal(s, h)

    def _stop_tree(self, timeout_s: float) -> None:
        procs = descendants()
        if "ray" in sys.modules:
            import ray

            try:
                ray.shutdown()
            except Exception as e:  # keep tearing down regardless
                self.log(f"ray.shutdown failed: {e!r}")
        deadline = time.monotonic() + timeout_s
        while True:
            _reap()
            left = {k for k in procs | descendants() if _alive(k)}
            if not left:
                break
            if time.monotonic() > deadline:
                for pid, _ in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if time.monotonic() > deadline + timeout_s:
                    raise RuntimeError(f"processes survived SIGKILL: {sorted(left)}")
            time.sleep(0.05)
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
            self.temp_dir = None
