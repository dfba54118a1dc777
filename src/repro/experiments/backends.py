"""Pluggable execution backends for batched spec execution.

A :class:`Session` decides *what* to run (cache lookups, machine
construction, envelope stamping); an :class:`ExecutionBackend` decides *how*
the cells of a batch execute:

* ``serial`` — an in-order loop in the calling thread (the reference
  semantics every other backend must reproduce bit-identically, and the
  only backend that honours a custom ``machine_factory``);
* ``vectorized`` — the batch fast path: cells of workloads that declare a
  ``lower_group`` are lowered a group at a time onto shared chip templates
  and evaluated in bulk NumPy array operations (:mod:`repro.sim.vectorized`)
  instead of per-operation Python loops, with automatic per-cell fallback
  to the scalar executor for workloads registered without a lowering;
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
    passes all three, so every backend must accept them).  Backends report
    failures and recover from none; ``Session.run_batch``'s retry ladder is
    the one recovery path.

    * ``fail(index, exc, spec)`` — report a cell's failure instead of
      raising; every spec reaches exactly one of ``finish``/``fail``.  With
      ``fail=None`` (a direct call) the first failure is raised.
    * ``attempt`` — 1-based attempt number of this round, threaded to
      ``Session.run`` (and across worker boundaries) so deterministic
      fault injection can count attempts.
    * ``cell_timeout`` — per-cell deadline in seconds; the sharded backend
      gives each shard ``cell_timeout`` × its cell count and fails every
      cell of a shard that runs past it with
      :class:`~repro.errors.CellTimeoutError`.  In-process backends cannot
      preempt a running cell and ignore it.
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

    Cache misses of workloads that declare a ``lower_group`` are grouped by
    (kind, chip, numerics config, variant, repeats), lowered one group at a
    time onto shared chip templates, and evaluated together in a handful of
    array operations through :func:`repro.sim.vectorized.evaluate_groups`;
    cells of workloads without a lowering fall back to the scalar
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
    """Lower and evaluate ``specs`` group by group, handing each result to
    ``deliver``.

    The execution body the vectorized backend and the sharded workers
    share: ``deliver(position, result)`` receives each cell's result record
    by its position in ``specs``, in input order, and a failing cell goes
    to ``fail(position, exc, spec)``.  With ``fail=None`` nothing is
    delivered when a lowered cell fails: the first failing cell's error is
    raised.  It resolves no cache and stamps no envelope — callers do what
    they need with the result.

    Pending specs that share (kind, chip, numerics config, variant,
    repeats) form one group, lowered by one ``lower_group`` call and
    evaluated with every other group in one
    :func:`~repro.sim.vectorized.evaluate_groups` call.  A group whose
    lowering raises is lowered again member by member, and when the bulk
    evaluation raises, each group is evaluated alone and a raising group
    member by member, so only the bad cells fail; a group's bytes do not
    depend on the other groups of its batch.
    """
    from repro import workloads
    from repro.sim.vectorized import evaluate_groups, vector_context
    from repro.workloads.base import spec_variant

    plan = session.fault_plan
    failures: dict[int, BaseException] = {}
    members: dict[tuple, list[int]] = {}
    fallback: list[tuple[int, Any]] = []
    for position, spec in enumerate(specs):
        if plan is not None:
            # Fault rules fire per cell, before its group is lowered.
            try:
                plan.invoke("execute", spec.spec_hash(), attempt)
            except Exception as exc:
                failures[position] = exc
                continue
        workload = workloads.workload_for_spec(spec)
        if workload.lower_group is None:
            # a workload registered without a lowering (no built-in
            # workload declines a cell) — scalar fallback
            fallback.append((position, workload))
            continue
        # the spec's own numerics profile (None: the session's) stands for
        # the config it resolves to, which the group resolves once
        key = (
            workload.kind,
            spec.chip,
            spec.numerics,
            spec_variant(spec),
            getattr(spec, "repeats", None),
        )
        members.setdefault(key, []).append(position)

    def lower(key: tuple, positions: list[int]) -> Any:
        kind, chip = key[:2]
        cells = [specs[position] for position in positions]
        context = vector_context(
            chip, session.thermal_enabled, session.numerics_for(cells[0])
        )
        return workloads.get_workload(kind).lower_group(context, cells)

    groups: list[tuple[tuple, list[int], Any]] = []
    for key, positions in members.items():
        try:
            groups.append((key, positions, lower(key, positions)))
        except Exception as exc:
            if len(positions) == 1:
                failures[positions[0]] = exc
                continue
            for position in positions:
                try:
                    groups.append((key, [position], lower(key, [position])))
                except Exception as exc:
                    failures[position] = exc
    del members

    sigma = session.noise_sigma
    results: dict[int, Any] = {}
    try:
        evaluated = evaluate_groups(
            [group for _, _, group in groups], default_sigma=sigma
        )
    except Exception:
        evaluated = None
    for index, (key, positions, group) in enumerate(groups):
        if evaluated is not None:
            results.update(zip(positions, evaluated[index]))
            continue
        try:
            results.update(
                zip(positions, evaluate_groups([group], default_sigma=sigma)[0])
            )
            continue
        except Exception as exc:
            if len(positions) == 1:
                failures[positions[0]] = exc
                continue
        for position in positions:
            try:
                [[result]] = evaluate_groups(
                    [lower(key, [position])], default_sigma=sigma
                )
            except Exception as exc:
                failures[position] = exc
                continue
            results[position] = result
    del groups, evaluated

    if fail is None and failures:
        raise failures[min(failures)]
    for position in range(len(specs)):
        if position in failures:
            fail(position, failures[position], specs[position])
        elif position in results:
            deliver(position, results.pop(position))
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
) -> tuple[list, dict[int, BaseException]]:
    """One shard's plain-data specs in; result dicts and failures out.

    The shard runs the vectorized backend's execution body on a fresh
    session with the parent's configuration, which is what keeps the
    results byte-identical to every other backend.  It builds no envelope
    and computes no cache key: the parent holds each spec and its key and
    stamps the envelopes itself.  A cell that raises fails alone: it
    leaves ``None`` among the result dicts and its exception in the
    ``{position: exception}`` map.
    """
    from repro.experiments.envelope import result_to_dict
    from repro.experiments.session import Session
    from repro.experiments.specs import spec_from_dict

    specs = [spec_from_dict(data) for data in shard["specs"]]
    items: list[Any] = [None] * len(specs)
    failures: dict[int, BaseException] = {}

    def collect(position: int, result: Any) -> None:
        items[position] = result_to_dict(result)

    def collect_failure(position: int, exc: BaseException, spec: Any) -> None:
        failures[position] = exc

    _evaluate_specs(
        Session(**session_config),
        specs,
        collect,
        fail=collect_failure,
        attempt=attempt,
    )
    return items, failures


def _execute_shard_payload(
    shard: Mapping[str, Any],
    session_config: Mapping[str, Any],
    attempt: int = 1,
) -> tuple[bytes, dict[int, BaseException]]:
    """Worker-side entry point: one shard in; its pickled result dicts and
    its ``{position: exception}`` failures out.

    One pre-pickled blob crosses the pool boundary as a cheap bytes copy,
    and the parent defers unpickling it until a result is actually read.
    """
    items, failures = _run_shard(shard, session_config, attempt)
    return pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL), failures


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
    their result dicts, one pickled blob per shard, and the exception of
    each cell that raised.  Hits are held and
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
                        exc = failures[position]
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
            attempt=attempt,
            cell_timeout=cell_timeout,
        )

    def _pump(self, session, shards, deliver, *, attempt=1, cell_timeout=None):
        """Submit shards with a bounded in-flight window; deliver in order.

        ``deliver(results, failures)`` receives each shard's result dicts
        (a :class:`_ShardResults`, indexable by position) and the
        ``{position: exception}`` map of its cells that failed.  A shard
        with no specs (every cell a cache hit) is delivered in its turn
        as ``(None, {})`` and starts no pool.  A shard the pool loses
        fails every cell: with :class:`WorkerCrashError`
        when its worker died, with :class:`CellTimeoutError` when it ran
        past its deadline (``cell_timeout`` × its cells).  The losing pool
        is shut down and a new one serves the shards after it; a pool
        holding a hung worker is abandoned (:func:`_abandon`), so shards
        still in flight on it fail as lost.  No cell runs in the parent:
        recovering the failed cells is ``Session.run_batch``'s job.
        """
        from concurrent.futures.process import BrokenProcessPool

        config = _session_payload(session)
        window = self.max_workers + 2
        pool = None
        in_flight: dict[int, tuple] = {}
        next_submit = next_deliver = 0
        try:
            while True:
                while len(in_flight) < window:
                    shard = next(shards, None)
                    if shard is None:
                        break
                    if not shard["specs"]:  # all cache hits: nothing to run
                        in_flight[next_submit] = (None, shard, None)
                        next_submit += 1
                        continue
                    if pool is None:
                        pool = concurrent.futures.ProcessPoolExecutor(
                            max_workers=self.max_workers
                        )
                    future = pool.submit(
                        _execute_shard_payload, shard, config, attempt
                    )
                    in_flight[next_submit] = (future, shard, pool)
                    next_submit += 1
                if next_deliver not in in_flight:
                    break
                future, shard, owner = in_flight.pop(next_deliver)
                where = (
                    f"shard {next_deliver} ({shard['label']}, attempt {attempt})"
                )
                next_deliver += 1
                if future is None:
                    deliver(None, {})
                    continue
                cells = len(shard["specs"])
                deadline = (
                    None if cell_timeout is None else cell_timeout * max(1, cells)
                )
                try:
                    blob, failures = future.result(timeout=deadline)
                except concurrent.futures.TimeoutError:
                    lost = CellTimeoutError(
                        f"{where} exceeded its {deadline:g}s deadline"
                    )
                    if owner is pool:
                        _abandon(pool)
                        pool = None
                except (BrokenProcessPool, concurrent.futures.CancelledError) as exc:
                    lost = WorkerCrashError(
                        f"{where} was lost with its worker pool: {exc!r}"
                    )
                    if owner is pool:
                        pool.shutdown(cancel_futures=True)
                        pool = None
                except Exception as exc:
                    lost = exc
                else:
                    deliver(_ShardResults(blob), failures)
                    continue
                deliver(None, dict.fromkeys(range(cells), lost))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)


def _abandon(pool: "concurrent.futures.ProcessPoolExecutor") -> None:
    """Shut down a pool that holds a hung worker, without joining it.

    Its worker processes are terminated first: ``concurrent.futures``'
    exit hook joins every worker a pool ever started, so a worker left
    sleeping would hold the interpreter open until it woke.  Python 3.11
    has no public way to terminate a pool's workers, so this reads the
    executor's ``_processes`` map.  Futures still running on the pool then
    fail with ``BrokenProcessPool``, as on any lost pool.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


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
