"""Measurement plumbing shared by the three workloads.

Everything here observes ``texrex_ray`` from outside: spans are wall-clock
intervals around public calls, memory is read from ``/proc``, and the Ray
Data operator table is parsed from the text ``Dataset.stats()`` produces
(captured from Ray Data's own auto-log of that same summary, so writes and
eagerly executed sub-plans are covered too).
"""

from __future__ import annotations

import contextlib
import logging
import os
import re
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

TOKEN_ENV = "CRAWLBENCH_RUN_TOKEN"
FORCE_FAIL_ENV = "CRAWLBENCH_FORCE_FAIL"


# -- operations: attempted / failed -----------------------------------------


class OpFailed(Exception):
    """A public call raised or a correctness check did not hold."""


@dataclass
class Ops:
    """Counts public calls and correctness checks; a raise or a failed
    check is one failed operation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kw):
        self.attempted += 1
        try:
            return fn(*args, **kw)
        except Exception as e:  # noqa: BLE001 - every raise is a failed op
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            raise OpFailed(name) from e

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if os.environ.get(FORCE_FAIL_ENV) == name:
            ok = False
            detail = f"forced by {FORCE_FAIL_ENV}"
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
            raise OpFailed(name)


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Own time: the span's wall time minus that of its direct children."""
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Nested wall-clock spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sp = Span(name, time.perf_counter())
        (self._stack[-1].children if self._stack else self.roots).append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def walk(self):
        todo = list(self.roots)
        while todo:
            sp = todo.pop(0)
            yield sp
            todo.extend(sp.children)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.walk() if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.walk():
            out[s.name] = out.get(s.name, 0.0) + s.self_time
        return out


def timed_method(tracer: Tracer, obj, method: str, span_name: str) -> None:
    """Wrap one bound method of ``obj`` in a span (instance attribute, so the
    engine's own ``self.<method>()`` calls are timed too)."""
    inner = getattr(obj, method)

    def wrapper(*a, **kw):
        with tracer.span(span_name):
            return inner(*a, **kw)

    setattr(obj, method, wrapper)


def median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# -- memory -----------------------------------------------------------------


def token_pids(token: str, known: dict[int, bool] | None = None) -> list[int]:
    """Live processes other than this one whose environment carries
    ``token``; ``known`` caches the answer per pid across calls."""
    needle = token.encode()
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        pid = int(d)
        hit = known.get(pid) if known is not None else None
        if hit is None:
            try:
                with open(f"/proc/{pid}/environ", "rb") as f:
                    hit = needle in f.read()
            except OSError:
                hit = False
            if known is not None:
                known[pid] = hit
        if hit:
            pids.append(pid)
    return pids


class RssSampler:
    """Peak of the summed resident memory of this process and every process
    that carries this run's token in its environment (all Ray processes
    the run starts inherit it)."""

    def __init__(self, token: str, interval: float = 0.2):
        self.token = token
        self.interval = interval
        self.peak_bytes = 0
        self._known: dict[int, bool] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> int:
        total = 0
        for pid in [os.getpid(), *token_pids(self.token, self._known)]:
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                self._known.pop(pid, None)
        self.peak_bytes = max(self.peak_bytes, total)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self):
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)


# -- Ray session ------------------------------------------------------------


def nproc() -> int:
    """The CPU count ``nproc`` prints: the affinity mask, replaced by
    ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "")
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def ray_temp_dir(root: str) -> str | None:
    """Session directory inside the checkout when its socket paths fit the
    107-byte AF_UNIX limit (Ray appends ~65 bytes); else Ray's default."""
    d = os.path.join(root, ".bench_tmp")
    return d if len(d) <= 40 else None


def start_ray(root: str, num_cpus: int):
    import ray

    # every Ray process inherits this environment, so the checkout on
    # PYTHONPATH reaches every worker whatever its cwd; a runtime_env with
    # the same variables costs about 0.7 s more per worker start at
    # num_cpus=1 (1.4 s against 0.75 s per actor)
    path = os.environ.get("PYTHONPATH", "")
    if root not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, path) if p)
    os.environ["POLARS_MAX_THREADS"] = "1"
    kw = dict(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
    )
    tmp = ray_temp_dir(root)
    if tmp:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    ray.init(**kw)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # the two executor settings bench.py applies (see its comments): a
    # 16-block streaming-generator buffer and no per-operator reservation
    if hasattr(ctx, "_max_num_blocks_in_streaming_gen_buffer"):
        ctx._max_num_blocks_in_streaming_gen_buffer = 16
    if hasattr(ctx, "op_resource_reservation_enabled"):
        ctx.op_resource_reservation_enabled = False
    return ray


def session_dir() -> str | None:
    try:
        import ray._private.worker as rw

        return rw._global_node.get_session_dir_path()
    except Exception:  # noqa: BLE001 - best effort
        return None


# -- Ray Data operator table ------------------------------------------------

_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_HEAD = re.compile(r"^(Operator|Suboperator) +\d+ +(.+?):(?: +(\d+) tasks executed)?")
_TIME_TOTAL = re.compile(r"([0-9.]+)(us|ms|s) total")
_NUM_TOTAL = re.compile(r"([0-9.]+) total")


def parse_stats(text: str) -> list[dict]:
    """Operator rows from one ``Dataset.stats()`` summary: name, tasks,
    remote wall_s and cpu_s totals, and bytes_out.  Sub-operators of an
    all-to-all operator fold into it, except one that repeats the previous
    operator's figures (Ray prints the fused input map under both)."""
    blocks: list[dict] = []
    cur: dict | None = None
    for raw in text.splitlines():
        line = raw.strip()
        m = _HEAD.match(line)
        if m:
            cur = {"name": m.group(2), "sub": m.group(1) == "Suboperator",
                   "tasks": int(m.group(3) or 0), "wall_s": 0.0, "cpu_s": 0.0,
                   "bytes_out": 0.0}
            blocks.append(cur)
        elif line.startswith("Dataset throughput"):
            cur = None
        elif cur is not None:
            for key, prefix in (("wall_s", "* Remote wall time:"), ("cpu_s", "* Remote cpu time:")):
                t = _TIME_TOTAL.search(line) if line.startswith(prefix) else None
                if t:
                    cur[key] = float(t.group(1)) * _UNIT[t.group(2)]
            if line.startswith("* Output size bytes per block:"):
                t = _NUM_TOTAL.search(line)
                cur["bytes_out"] = float(t.group(1)) if t else 0.0
    ops: list[dict] = []
    for b in blocks:
        if not b.pop("sub"):
            ops.append(b)
            continue
        if not ops:
            continue
        prev = ops[-2] if len(ops) > 1 else None
        if prev and all(b[k] == prev[k] for k in ("tasks", "wall_s", "cpu_s")):
            continue
        for k in ("tasks", "wall_s", "cpu_s", "bytes_out"):
            ops[-1][k] += b[k]
    return ops


class StatsCapture(logging.Handler):
    """Collects the summary of every Ray Data execution that finishes while
    enabled: the text ``Dataset.stats()`` returns, one entry per executed
    plan, including plans the public calls execute internally (writes,
    eager sub-plans) whose Dataset objects the caller never sees.

    Ray Data logs a parent-less copy of that summary when
    ``DataContext.enable_auto_log_stats`` is on; the handler takes the
    stats object from the logging call's frame and renders it in full."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.texts: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        f = sys._getframe()
        while f is not None:
            loc = f.f_locals
            if "stats_summary_string" in loc:
                st = loc.get("stats") or getattr(loc.get("self"), "_final_stats", None)
                if st is not None:
                    text = st.to_summary().to_string()
                    # the executor and the plan both log one execution
                    if not self.texts or self.texts[-1] != text:
                        self.texts.append(text)
                return
            f = f.f_back

    @contextlib.contextmanager
    def active(self):
        from ray.data import DataContext

        ctx = DataContext.get_current()
        lg = logging.getLogger("ray.data")
        prev = ctx.enable_auto_log_stats
        ctx.enable_auto_log_stats = True
        lg.addHandler(self)
        try:
            yield self
        finally:
            lg.removeHandler(self)
            ctx.enable_auto_log_stats = prev

    def take(self) -> list[dict]:
        rows = [op for t in self.texts for op in parse_stats(t)]
        self.texts = []
        return rows
