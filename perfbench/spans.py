"""Measurement plumbing: spans, GC pauses, CPU accounting, forked passes.

Everything here observes the program from outside.  Spans are recorded by
the benchmark's own code around its calls into the library; nothing under
``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Callable


class Tracer:
    """In-memory span recorder: (name, start, end, parent span, workload).

    Times are ``time.perf_counter()`` seconds.  A span may carry ``busy``
    (summed time of many short calls it aggregates) and ``calls``.  Spans are
    plain dicts so they cross a process boundary as JSON.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def aggregate(self, name: str, calls: "CallTimer") -> None:
        """Record many short calls (made inside another span) as one span."""
        span = self._open(name)
        span["start"] = calls.first if calls.first is not None else span["start"]
        span["end"] = calls.last if calls.last is not None else span["start"]
        span["busy"] = calls.busy
        span["calls"] = calls.calls

    def busy(self, name: str) -> float:
        """Summed duration (or aggregated busy time) of every span ``name``."""
        return sum(
            span.get("busy", span["end"] - span["start"])
            for span in self.spans
            if span["name"] == name
        )


class CallTimer:
    """Wraps a callable and sums the time spent inside it."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0
        self.first: float | None = None
        self.last: float | None = None

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.busy += end - start
                self.calls += 1
                if self.first is None:
                    self.first = start
                self.last = end

        return timed


class GcMonitor:
    """Collector pauses, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


#: Iterations of the host-speed reference loop (about 0.07 s on a 2.1 GHz
#: Xeon core).
REFERENCE_ITERATIONS = 120_000


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The loop allocates and hashes small dicts and tuples, as the library's
    interpreter-bound paths do, and calls no library code, so no change to
    the program can move it.  The collector is off while it runs: a
    collection would traverse whatever heap the program left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        items: list[dict] = []
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            record = {"i": i, "key": (i & 255, i >> 8)}
            items.append(record)
            acc ^= hash(record["key"])
            if len(items) > 4096:
                items.clear()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def cpu_times() -> tuple[float, float]:
    """(this process, its waited-for children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PassFailed(RuntimeError):
    """A forked pass raised; carries the child's traceback text."""


def in_fork(fn: Callable[[], Any]) -> bytes:
    """Run ``fn`` in a forked copy of this process; return its result as JSON.

    Every timed pass starts from the same state: a fork of the warmed-up
    benchmark process, with the collector's generations emptied first.
    Nothing a pass allocates, caches or registers survives it.  Results come
    back undecoded: a parent that keeps them as bytes holds no new objects
    the collector tracks, so the next fork's collections repeat exactly.
    The child is always waited for.
    """
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            gc.collect()
            data = b"ok" + json.dumps(fn()).encode()
        except BaseException:  # report everything, then leave via _exit
            data = b"er" + traceback.format_exc().encode()
            status = 1
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while chunk := pipe.read(1 << 16):
            chunks.append(chunk)
    os.waitpid(pid, 0)
    data = b"".join(chunks)
    if not data.startswith(b"ok"):
        raise PassFailed(data[2:].decode() or "forked pass exited without a result")
    return data[2:]
