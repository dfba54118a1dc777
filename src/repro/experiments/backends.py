"""Pluggable execution backends for batched spec execution.

A :class:`Session` decides *what* to run (cache lookups, machine
construction, envelope stamping); an :class:`ExecutionBackend` decides *how*
the cells of a batch execute:

* ``serial`` — an in-order loop in the calling thread (the reference
  semantics every other backend must reproduce bit-identically, and the
  only backend that honours a custom ``machine_factory``);
* ``vectorized`` — the batch fast path: cells of workloads that declare a
  ``vectorized_body`` are lowered onto shared chip templates and evaluated
  in bulk NumPy array operations (:mod:`repro.sim.vectorized`) instead of
  per-operation Python loops, with automatic per-cell fallback to the
  scalar executor for workloads registered without a lowering;
* ``sharded`` — vectorized inside worker processes, for grids too large
  for one core: the parent pulls the batch — any iterable of specs — in
  contiguous shards, ships each shard's cache misses to a worker process
  as plain-data specs, runs them there through the vectorized execution
  body, and streams back only their result dicts; the parent stamps the
  envelopes and delivers shards strictly in submission order with a
  bounded number in flight, so a grid of any size runs in constant parent
  memory.

Because every cell is a pure function of (spec, session fingerprint) — the
simulator's jitter is content-addressed, machines are fresh per cell — all
backends produce byte-identical envelope JSON; the cross-backend
determinism suite (``tests/experiments/test_backends.py``) enforces that
invariant over every registered workload.

Backend selection: ``Session.run_batch(backend=...)`` accepts a name or an
instance; ``None`` defers to the ``REPRO_BACKEND`` environment variable
(the CI matrix hook) and finally to the default — vectorized for one
worker, sharded otherwise.  Sessions with a custom ``machine_factory``
cannot ship cells to worker processes (arbitrary callables don't cross the
boundary) or onto the vectorized engine's shared chip templates; they
resolve to serial whatever ``REPRO_BACKEND`` says, while an *explicit*
``vectorized`` or ``sharded`` request on such a session raises.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pickle
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CellTimeoutError, ConfigurationError, WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.envelope import ResultEnvelope
    from repro.experiments.session import Session
    from repro.experiments.specs import ExperimentSpec

__all__ = [
    "BACKEND_NAMES",
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ShardedBackend",
    "resolve_backend",
]

#: The registered backend names, in documentation order.
BACKEND_NAMES: tuple[str, ...] = ("serial", "vectorized", "sharded")

#: Environment variable consulted when no backend is named explicitly —
#: the CI matrix runs the whole fast tier under each value.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: ``finish(index, envelope)`` — the session's completion callback; must be
#: called exactly once per spec, in any order.
FinishCallback = Callable[[int, "ResultEnvelope"], None]

#: ``fail(index, exc, spec)`` — the per-cell failure channel.  When a caller
#: provides it, a cell that raises is *reported* instead of aborting the
#: batch (partial-failure semantics: sibling cells keep executing); when it
#: is ``None``, backends preserve the historical fail-fast behavior.  The
#: spec rides along so the caller can identify — and retry — the cell
#: without holding the whole batch materialized.
FailCallback = Callable[[int, BaseException, Any], None]


class ExecutionBackend:
    """How the cells of one batch execute.

    Subclasses implement :meth:`run`, calling ``finish(index, envelope)``
    exactly once per completed spec — in any order, but always from the
    thread that called :meth:`run` (its consumers — batch bookkeeping,
    manifest checkpointing — are deliberately unsynchronized; the sharded
    backend satisfies this by finishing from its delivery loop).
    Backends must preserve the serial reference semantics bit-for-bit;
    they may differ only in wall-clock time.

    Fault-tolerance contract (keyword-only; ``Session.run_batch`` always
    passes all four, so every backend must accept them):

    * ``fail(index, exc, spec)`` — report a cell's failure instead of
      raising; every spec reaches exactly one of ``finish``/``fail``.  With
      ``fail=None`` (a direct call, e.g. inside a sharded worker) the first
      failure aborts the batch.
    * ``attempt`` — 1-based attempt number of this round, threaded to
      ``Session.run`` (and across worker boundaries) so deterministic
      fault injection can count attempts.
    * ``cell_timeout`` — per-cell deadline in seconds; the sharded backend
      gives each shard ``cell_timeout`` × its cell count, abandons a shard
      that runs past it and redoes it in the parent.  In-process backends
      cannot preempt a running cell and ignore it.
    * ``health`` — optional :class:`~repro.experiments.resilience.RunHealth`
      a backend with *internal* recovery (sharded) uses to report the
      retries/fallbacks it performed itself.
    """

    #: Registry/CLI name of this backend.
    name = "base"

    #: Streaming backends consume ``specs`` as a one-pass iterable;
    #: ``Session.run_batch`` hands them a
    #: :class:`~repro.experiments.specs.SweepSpec`'s lazy
    #: :meth:`~repro.experiments.specs.SweepSpec.expand_iter` stream, so a
    #: grid is never fully materialized in the parent process.  Other
    #: backends receive a list.
    streaming = False

    def run(
        self,
        session: "Session",
        specs: Iterable["ExperimentSpec"],
        finish: FinishCallback,
        *,
        use_cache: bool = True,
        fail: "FailCallback | None" = None,
        attempt: int = 1,
        cell_timeout: float | None = None,
        health: Any = None,
    ) -> None:
        """Execute every spec, reporting completions through ``finish``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """In-order execution in the calling thread (the reference semantics)."""

    name = "serial"

    def run(
        self,
        session,
        specs,
        finish,
        *,
        use_cache=True,
        fail=None,
        attempt=1,
        cell_timeout=None,
        health=None,
    ):
        """Execute the specs one after another, in input order.

        ``cell_timeout`` is ignored: a cell running in the calling thread
        cannot be preempted (the serial path is also the degradation
        target — it must always make progress).
        """
        for index, spec in enumerate(specs):
            try:
                envelope = session.run(spec, use_cache=use_cache, attempt=attempt)
            except Exception as exc:
                _report_cell_failure(fail, index, exc, spec)
                continue
            finish(index, envelope)


def _report_cell_failure(
    fail: "FailCallback | None",
    index: int,
    exc: BaseException,
    spec: Any,
) -> None:
    """Route one cell failure: through ``fail`` when provided, else raise."""
    if fail is None:
        raise exc
    fail(index, exc, spec)


def _resolve_cache_hits(
    session: "Session",
    specs: "Sequence[ExperimentSpec]",
    finish: FinishCallback,
    use_cache: bool,
) -> list[tuple[int, "ExperimentSpec", str]]:
    """Finish every cache hit now; return the (index, spec, key) misses.

    The vectorized backend resolves caching *before* lowering, so hit/miss
    counters and in-memory population stay identical to the serial
    reference, whatever executes the misses.
    """
    pending: list[tuple[int, "ExperimentSpec", str]] = []
    for index, spec in enumerate(specs):
        key = session.cache_key(spec)
        cached = session.cache_lookup(key) if use_cache else None
        if cached is not None:
            finish(index, cached)
        else:
            if not use_cache:
                session.record_miss()  # cache_lookup counted it otherwise
            pending.append((index, spec, key))
    return pending


def _session_payload(session: "Session") -> dict[str, Any]:
    """The constructor kwargs a worker needs to rebuild an equivalent session.

    Only plain data and the frozen :class:`NumericsConfig` cross the
    boundary; the worker session carries no cache directory (the parent owns
    all persistence) and must fingerprint identically so envelope metadata —
    and therefore envelope JSON — is byte-identical to in-process execution.
    """
    payload: dict[str, Any] = {
        "numerics": session.numerics,
        "seed": session.seed,
        "noise_sigma": session.noise_sigma,
        "thermal_enabled": session.thermal_enabled,
    }
    if session.fault_plan is not None:
        # Plans cross as plain data so crash/hang rules fire inside the
        # worker that executes the targeted cell.  They never enter the
        # session fingerprint, so shipping one changes no envelope bytes.
        payload["fault_plan"] = session.fault_plan.to_dict()
    return payload


class VectorizedBackend(ExecutionBackend):
    """Bulk NumPy evaluation of the whole batch (the sweep fast path).

    Cache misses of workloads that declare a ``vectorized_body`` are lowered
    onto shared chip templates and evaluated together in a handful of array
    operations through :func:`repro.sim.vectorized.evaluate_sequences`;
    cells of workloads without a vectorized body fall back to the scalar
    executor, per cell, inside the same batch.  Either way the arithmetic is
    the scalar engine's, operation for operation, so envelopes are
    byte-identical to the ``serial`` reference — the cross-backend
    determinism suite enforces this for every registered workload.
    """

    name = "vectorized"

    def run(
        self,
        session,
        specs,
        finish,
        *,
        use_cache=True,
        fail=None,
        attempt=1,
        cell_timeout=None,
        health=None,
    ):
        """Lower every cache miss, evaluate the grid in bulk, finish in order."""
        from repro.experiments.envelope import ResultEnvelope

        if session.machine_factory is not None:
            raise ConfigurationError(
                "the vectorized backend lowers cells onto shared chip "
                "templates and cannot honour a custom machine_factory; use "
                "the serial backend"
            )
        pending = _resolve_cache_hits(session, specs, finish, use_cache)

        def deliver(position: int, result: Any) -> None:
            index, spec, key = pending[position]
            # fingerprint() per envelope, as session.run stamps it — the
            # nested meta dicts must never be shared across envelopes
            envelope = ResultEnvelope.create(
                spec,
                result,
                meta={"session": session.fingerprint(), "cache_key": key},
            )
            if use_cache:
                session.cache_store(key, envelope)
            finish(index, envelope)

        def report(position: int, exc: BaseException, spec: Any) -> None:
            _report_cell_failure(fail, pending[position][0], exc, spec)

        _evaluate_specs(
            session,
            [spec for _, spec, _ in pending],
            deliver,
            fail=report,
            attempt=attempt,
        )


def _evaluate_specs(
    session: "Session",
    specs: "Sequence[ExperimentSpec]",
    deliver: Callable[[int, Any], None],
    *,
    fail: "FailCallback | None" = None,
    attempt: int = 1,
) -> None:
    """Lower and evaluate ``specs``, handing each result to ``deliver``.

    The execution body the vectorized backend and the sharded workers
    share: ``deliver(position, result)`` receives each cell's result record
    by its position in ``specs``, and a failing cell goes to
    ``fail(position, exc, spec)`` (raised when ``fail`` is ``None``).  It
    resolves no cache and stamps no envelope — callers do what they need
    with the result.
    """
    from repro import workloads
    from repro.sim.vectorized import evaluate_sequences, vector_context

    plan = session.fault_plan
    sequences: list[tuple[int, Any]] = []
    fallback: list[tuple[int, Any]] = []
    for position, spec in enumerate(specs):
        workload = workloads.workload_for_spec(spec)
        try:
            # Lowering is this body's per-cell execution point, so
            # cell-targeted faults (transient/crash/hang) fire here.
            if plan is not None:
                plan.invoke("execute", spec.spec_hash(), attempt)
            lowered = None
            if workload.vectorized_body is not None:
                context = vector_context(
                    spec.chip,
                    session.thermal_enabled,
                    session.numerics_for(spec),
                )
                lowered = workload.vectorized_body(context, spec)
        except Exception as exc:
            _report_cell_failure(fail, position, exc, spec)
            continue
        if lowered is None:
            # a workload registered without a vectorized body (no
            # built-in workload declines a cell) — scalar fallback
            fallback.append((position, workload))
        else:
            sequences.append((position, lowered))

    sigma = session.noise_sigma
    try:
        evaluated = evaluate_sequences(
            [lowered for _, lowered in sequences], default_sigma=sigma
        )
    except Exception:
        if fail is None:
            raise
        evaluated = None
    if evaluated is not None:
        for (position, _), result in zip(sequences, evaluated):
            deliver(position, result)
    else:
        # The bulk call raised: evaluate each member alone and report only
        # the cells that raise.  One call is one cell for noise and clock,
        # so the others' bytes are those of the bulk call.
        for position, lowered in sequences:
            try:
                result = evaluate_sequences([lowered], default_sigma=sigma)[0]
            except Exception as exc:
                fail(position, exc, specs[position])
                continue
            deliver(position, result)
    # Scalar-fallback cells run last, delivered one by one — they are
    # the slow ones (one Python round trip per operation), so per-cell
    # completion keeps manifest checkpoints and progress reporting
    # incremental.
    for position, workload in fallback:
        spec = specs[position]
        try:
            result = workload.execute(session.machine_for(spec), spec)
        except Exception as exc:
            _report_cell_failure(fail, position, exc, spec)
            continue
        deliver(position, result)


def _run_shard(
    shard: Mapping[str, Any],
    session_config: Mapping[str, Any],
    attempt: int,
    fail: "FailCallback | None" = None,
) -> list:
    """One shard's plain-data specs in, their result dicts out in order.

    The shard runs the vectorized backend's execution body on a fresh
    session with the parent's configuration, which is what keeps the
    results byte-identical to every other backend.  It builds no envelope
    and computes no cache key: the parent holds each spec and its key and
    stamps the envelopes itself.  A cell reported through ``fail`` leaves
    ``None`` at its position.  Workers and the in-parent redo both run
    shards through here.
    """
    from repro.experiments.envelope import result_to_dict
    from repro.experiments.session import Session
    from repro.experiments.specs import spec_from_dict

    specs = [spec_from_dict(data) for data in shard["specs"]]
    items: list[Any] = [None] * len(specs)

    def collect(position: int, result: Any) -> None:
        items[position] = result_to_dict(result)

    _evaluate_specs(
        Session(**session_config), specs, collect, fail=fail, attempt=attempt
    )
    return items


def _execute_shard_payload(
    shard: Mapping[str, Any],
    session_config: Mapping[str, Any],
    attempt: int = 1,
) -> bytes:
    """Worker-side entry point: one shard in, its pickled result dicts out.

    One pre-pickled blob crosses the pool boundary as a cheap bytes copy,
    and the parent defers unpickling it until a result is actually read.
    """
    items = _run_shard(shard, session_config, attempt)
    return pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)


class _ShardResults:
    """One shard's pickled result dicts, unpickled on the first read.

    Every deferred envelope of a shard indexes the same instance, so the
    unpickle cost is paid once per shard — and only if some envelope's
    result is actually read or serialized.
    """

    __slots__ = ("_blob", "_items")

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._items = None

    def __getitem__(self, position: int) -> Mapping[str, Any]:
        items = self._items
        if items is None:
            items = self._items = pickle.loads(self._blob)
            self._blob = b""
        return items[position]


class ShardedBackend(ExecutionBackend):
    """Vectorized in worker processes: contiguous grid shards, in order.

    :meth:`run` pulls its specs — a list, or the lazy grid stream
    ``Session.run_batch`` hands a streaming backend — ``shard_size`` cells
    at a time.  Per shard, the parent resolves cache hits and ships only
    the misses to a worker as plain-data specs; the worker runs them
    through the vectorized backend's execution body and ships back only
    their result dicts, one pickled blob per shard.  Hits are held and
    merged back when their shard returns, and the parent keeps a bounded
    number of shards in flight and delivers them strictly in submission
    order.  The parent already holds each spec and its cache key, so it
    stamps each envelope itself, deferring the rest
    (:meth:`ResultEnvelope.deferred`): a million-cell grid runs in constant
    parent memory, and the parent's per-cell work is a cache key and one
    small object, not codec rehydration.
    """

    name = "sharded"
    streaming = True

    #: Default cells per shard — large enough to amortize process dispatch
    #: and NumPy batch setup, small enough to keep ``max_workers`` busy on
    #: modest grids.
    DEFAULT_SHARD_SIZE = 4096

    def __init__(
        self, max_workers: int = 4, shard_size: int | None = None
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        self.max_workers = int(max_workers)
        self.shard_size = int(shard_size or self.DEFAULT_SHARD_SIZE)

    def run(
        self,
        session,
        specs,
        finish,
        *,
        use_cache=True,
        fail=None,
        attempt=1,
        cell_timeout=None,
        health=None,
    ):
        """Stream any iterable of specs shard-wise through the pool.

        ``specs`` is consumed once, lazily: cache hits are resolved per
        shard but *held* until the shard's misses return, so ``finish``
        always runs in grid order; peak materialized state is the in-flight
        window's worth of specs.
        """
        import collections

        from repro.experiments.envelope import ResultEnvelope

        if session.machine_factory is not None:
            raise ConfigurationError(
                "the sharded backend ships cells to worker processes and "
                "lowers them onto shared chip templates; a custom "
                "machine_factory supports neither — use the serial backend"
            )
        indexed_specs = enumerate(specs)
        size = self.shard_size
        pending_entries: "collections.deque" = collections.deque()
        # one snapshot per batch; each envelope stamps a private copy of it
        fingerprint = session.fingerprint()

        def shards():
            while True:
                chunk = list(itertools.islice(indexed_specs, size))
                if not chunk:
                    return
                entries = []
                payloads = []
                for index, spec in chunk:
                    key = session.cache_key(spec)
                    cached = session.cache_lookup(key) if use_cache else None
                    if cached is None:
                        if not use_cache:
                            session.record_miss()
                        payloads.append(spec.to_dict())
                    entries.append((index, spec, key, cached))
                pending_entries.append(entries)
                first = chunk[0][1]
                yield {
                    "specs": payloads,
                    "label": f"{first.kind} cells from {first.spec_hash()}",
                }

        def deliver(results, failures):
            entries = pending_entries.popleft()
            position = 0
            for index, spec, key, cached in entries:
                envelope = cached
                if envelope is None:
                    if position in failures:
                        exc, _ = failures[position]
                        position += 1
                        _report_cell_failure(fail, index, exc, spec)
                        continue
                    envelope = ResultEnvelope.deferred(
                        spec,
                        results,
                        position,
                        session=fingerprint,
                        cache_key=key,
                    )
                    position += 1
                    if use_cache:
                        session.cache_store(key, envelope)
                finish(index, envelope)

        self._pump(
            session,
            shards(),
            deliver,
            fail=fail,
            attempt=attempt,
            cell_timeout=cell_timeout,
            health=health,
        )

    @staticmethod
    def _redo_shard_in_parent(config, shard, attempt):
        """Re-execute a failed shard in this process — the degradation rung.

        Runs the worker's exact code path (a fresh session from the shipped
        config, the vectorized execution body, result dicts out), so
        recovered results are byte-identical to an undisturbed worker's.
        Crash faults are worker-only no-ops here, which is what terminates
        the ladder for a persistently crashing shard.  Cells that *still* fail
        come back in the failures map instead of taking the shard down.
        """
        failures: dict[int, tuple] = {}

        def collect_fail(index, exc, spec):
            failures[index] = (exc, spec)

        return _run_shard(shard, config, attempt, fail=collect_fail), failures

    def _pump(
        self,
        session,
        shards,
        deliver,
        *,
        fail=None,
        attempt=1,
        cell_timeout=None,
        health=None,
    ):
        """Submit shards with a bounded in-flight window; deliver in order.

        ``deliver(results, failures)`` receives each shard's result dicts
        (indexable by position: a :class:`_ShardResults` from a worker, a
        list from the in-parent redo) and the ``{position: (exc, spec)}``
        map of its cells that failed.

        Failure handling is shard-grained: a shard whose worker raises,
        crashes, or hangs past its deadline (``cell_timeout`` × shard
        cells) is re-executed on the in-parent vectorized path at
        ``attempt + 1`` — and once the pool is broken or holds a hung
        worker, every remaining shard degrades the same way rather than
        trusting it.  With no failure channel and no health report the
        historical fail-fast ``SimulationError`` is preserved.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.errors import SimulationError

        config = _session_payload(session)
        window = self.max_workers + 2
        recover = fail is not None or health is not None
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        )
        pool_broken = False
        abandoned = False
        try:
            in_flight: dict[int, tuple] = {}
            next_submit = 0
            next_deliver = 0
            while True:
                while len(in_flight) < window:
                    shard = next(shards, None)
                    if shard is None:
                        break
                    future = (
                        None
                        if pool_broken
                        else pool.submit(
                            _execute_shard_payload, shard, config, attempt
                        )
                    )
                    in_flight[next_submit] = (future, shard)
                    next_submit += 1
                if next_deliver not in in_flight:
                    break
                future, shard = in_flight.pop(next_deliver)
                shard_index = next_deliver
                next_deliver += 1
                where = shard["label"]
                cause = None
                results = None
                if future is not None:
                    deadline = (
                        None
                        if cell_timeout is None
                        else cell_timeout * max(1, len(shard["specs"]))
                    )
                    try:
                        results = _ShardResults(future.result(timeout=deadline))
                    except concurrent.futures.TimeoutError:
                        future.cancel()
                        # the hung worker holds a pool slot forever; stop
                        # trusting the pool and never join it
                        pool_broken = True
                        abandoned = True
                        cause = CellTimeoutError(
                            f"shard {shard_index} ({where}) exceeded its "
                            f"{deadline:g}s deadline (attempt {attempt})"
                        )
                    except concurrent.futures.CancelledError as exc:
                        cause = WorkerCrashError(
                            f"shard {shard_index} ({where}) was cancelled "
                            f"by a broken worker pool (attempt {attempt})"
                        )
                    except Exception as exc:
                        if isinstance(exc, BrokenProcessPool):
                            pool_broken = True
                            abandoned = True
                            cause = WorkerCrashError(
                                f"worker process died executing shard "
                                f"{shard_index} ({where}) "
                                f"(attempt {attempt}): {exc}"
                            )
                        else:
                            cause = exc
                if results is None:
                    # pool lost the shard (or was already written off)
                    if not recover:
                        for other, _ in in_flight.values():
                            if other is not None:
                                other.cancel()
                        raise SimulationError(
                            f"worker process failed on shard {shard_index} "
                            f"({where}): {cause}"
                        ) from cause
                    if health is not None:
                        health.fallbacks += 1
                        if cause is not None:
                            health.count(cause)
                    results, failures = self._redo_shard_in_parent(
                        config, shard, attempt + 1
                    )
                else:
                    failures = {}
                deliver(results, failures)
        finally:
            pool.shutdown(wait=not abandoned, cancel_futures=True)


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    max_workers: int,
    *,
    session: "Session | None" = None,
) -> ExecutionBackend:
    """The backend instance for one batch.

    ``backend`` may be an instance (used as-is), a name from
    :data:`BACKEND_NAMES`, or ``None`` — which consults ``REPRO_BACKEND``
    and finally falls back to the default: vectorized for one worker,
    sharded otherwise.  The environment variable is a *soft* default: it
    never overrides an explicit argument.  A session with a custom
    ``machine_factory`` resolves to serial whenever no backend is named —
    the factory can neither cross a process boundary nor be lowered onto
    shared chip templates — while an explicit ``"vectorized"`` or
    ``"sharded"`` request on it still raises.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    factory = session.machine_factory if session is not None else None
    if backend is None and factory is not None:
        return SerialBackend()
    name = backend
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or None
    if name is None:
        if max_workers <= 1:
            return VectorizedBackend()
        return ShardedBackend(max_workers)
    if name == "serial":
        return SerialBackend()
    if name == "vectorized":
        return VectorizedBackend()
    if name == "sharded":
        return ShardedBackend(max_workers)
    origin = f" (from ${BACKEND_ENV_VAR})" if backend is None else ""
    raise ConfigurationError(
        f"unknown execution backend {name!r}{origin}; "
        f"known: {', '.join(BACKEND_NAMES)}"
    )
