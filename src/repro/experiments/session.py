"""The experiment session: machines, caching, and batched execution.

A :class:`Session` owns everything a spec does *not* name: how machines are
constructed (catalog lookup by default, injectable for custom chips), the
default numerics profile and noise level, and a two-tier result cache
(in-memory dict plus optional on-disk envelope store) keyed by the spec hash
combined with the session fingerprint.

Every spec executes on a **fresh machine** seeded from the spec.  The
simulator's jitter is content-addressed (noise keys name the chip, kernel,
size and repetition, not wall-clock order), so a cell's result is a pure
function of (spec, session fingerprint).  That purity is what makes the
cache sound and lets ``run_batch(backend=...)`` evaluate cells in bulk or
in worker processes (:mod:`repro.experiments.backends`) with bit-identical
results to sequential execution.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro._version import __version__
from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    SimulationError,
    WorkerCrashError,
)
from repro.experiments.backends import (
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.experiments.envelope import ResultEnvelope
from repro.experiments.executor import execute_spec
from repro.experiments.faults import FaultPlan, resolve_fault_plan
from repro.experiments.resilience import CellFailure, RetryPolicy, RunHealth
from repro.experiments.specs import (
    NUMERICS_PROFILES,
    ExperimentSpec,
    SweepSpec,
)
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig

__all__ = ["Session", "ProgressCallback", "FailureCallback"]

#: Signature of the ``run_batch`` progress hook:
#: ``progress(completed, total, envelope)``.
ProgressCallback = Callable[[int, int, ResultEnvelope], None]

#: Signature of the ``run_batch`` terminal-failure hook:
#: ``on_failure(spec, failure)`` — invoked once per cell that exhausted the
#: retry ladder (manifest checkpointing hangs off this).
FailureCallback = Callable[[ExperimentSpec, CellFailure], None]

_PROFILE_TO_CONFIG: dict[str, Callable[[], NumericsConfig]] = {
    "full": NumericsConfig.full,
    "sampled": NumericsConfig.sampled,
    "model-only": NumericsConfig.model_only,
}


def _numerics_config(profile: str | NumericsConfig | None) -> NumericsConfig:
    if profile is None:
        return NumericsConfig.sampled()
    if isinstance(profile, NumericsConfig):
        return profile
    try:
        return _PROFILE_TO_CONFIG[profile]()
    except KeyError:
        raise ConfigurationError(
            f"numerics profile must be one of {NUMERICS_PROFILES} "
            f"or a NumericsConfig, got {profile!r}"
        ) from None


def _retry_policy(
    retry: RetryPolicy | Mapping[str, Any] | None,
) -> RetryPolicy | None:
    if retry is None or isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy.from_dict(retry)


def _config_fingerprint(config: NumericsConfig) -> dict[str, Any]:
    return {
        "policy": config.policy.value,
        "full_threshold": config.full_threshold,
        "sample_rows": config.sample_rows,
    }


class Session:
    """Owns machine construction, caching and batched spec execution.

    Parameters
    ----------
    numerics:
        Default numerics profile — ``"full"``, ``"sampled"``,
        ``"model-only"`` or a :class:`NumericsConfig`.  A spec's own
        ``numerics`` field overrides it per cell.
    seed:
        Default seed for the specs callers build against this session.
        A spec's own ``seed`` always wins at execution time.
    noise_sigma:
        Measurement-jitter level of constructed machines (0 disables noise).
    thermal_enabled:
        Whether constructed machines model the sustained-power cap.
    cache_dir:
        Optional directory for the on-disk envelope cache; populated and
        consulted transparently, surviving across sessions.
    machine_factory:
        Override for machine construction — a callable
        ``(chip, seed, numerics) -> Machine`` — enabling off-catalog chips.
        Such a session's batches run on the serial backend.
    max_workers:
        Default concurrency of :meth:`run_batch` (1 = sequential).
    backend:
        Default execution backend of :meth:`run_batch` — ``"serial"``,
        ``"vectorized"``, ``"sharded"`` or an
        :class:`~repro.experiments.backends.ExecutionBackend` instance.
        ``None`` defers to the ``REPRO_BACKEND`` environment variable and
        finally to vectorized/sharded depending on ``max_workers``.
    fault_plan:
        Optional :class:`~repro.experiments.faults.FaultPlan` (or its
        plain-data form) injecting deterministic failures for chaos
        testing.  ``None`` consults the ``REPRO_FAULTS`` environment
        variable; absent both, every injection site stays disabled at the
        cost of one ``is None`` check.  The plan never enters the session
        fingerprint — recovered runs are byte-identical to undisturbed
        ones.
    retry:
        Default :class:`~repro.experiments.resilience.RetryPolicy` (or its
        plain-data form) of :meth:`run_batch`; ``None`` means the stock
        policy (two retries, exponential backoff, no deadline).
    """

    def __init__(
        self,
        *,
        numerics: str | NumericsConfig | None = None,
        seed: int = 0,
        noise_sigma: float = 0.015,
        thermal_enabled: bool = True,
        cache_dir: str | pathlib.Path | None = None,
        machine_factory: Callable[..., Machine] | None = None,
        max_workers: int = 1,
        backend: str | ExecutionBackend | None = None,
        fault_plan: FaultPlan | Mapping[str, Any] | None = None,
        retry: RetryPolicy | Mapping[str, Any] | None = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.numerics = _numerics_config(numerics)
        self.seed = int(seed)
        self.noise_sigma = float(noise_sigma)
        self.thermal_enabled = bool(thermal_enabled)
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        self.max_workers = int(max_workers)
        self.backend = backend
        self.fault_plan = resolve_fault_plan(fault_plan)
        self.retry = _retry_policy(retry)
        #: The :class:`RunHealth` of the most recent :meth:`run_batch`.
        self.last_health: RunHealth | None = None
        self._machine_factory = machine_factory
        self._memory_cache: dict[str, ResultEnvelope] = {}
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        # Memoized (state, fingerprint dict, canonical JSON) — see
        # _fingerprint_parts.  Invalidated by keying on the live attribute
        # values, so mutating e.g. ``session.noise_sigma`` still changes
        # cache keys exactly as it did when fingerprints were rebuilt per
        # call.
        self._fingerprint_cache: tuple | None = None

    def _fingerprint_parts(self) -> tuple[dict[str, Any], str]:
        """The fingerprint dict and its canonical JSON, memoized.

        The fingerprint is a pure function of the session attributes;
        caching it (keyed on their current values) keeps the per-cell
        cache_key to a single hash over prebuilt strings instead of a
        fresh nested serialization per layer.
        """
        state = (
            self.numerics,
            self.noise_sigma,
            self.thermal_enabled,
            self._machine_factory is not None,
        )
        cached = self._fingerprint_cache
        if cached is None or cached[0] != state:
            fingerprint = {
                "numerics": _config_fingerprint(self.numerics),
                "noise_sigma": self.noise_sigma,
                "thermal_enabled": self.thermal_enabled,
                "custom_factory": self._machine_factory is not None,
                "repro_version": __version__,
            }
            text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
            cached = (state, fingerprint, text)
            self._fingerprint_cache = cached
        return cached[1], cached[2]

    @property
    def machine_factory(self) -> Callable[..., Machine] | None:
        """The custom machine factory, if any (backends consult this —
        arbitrary callables cannot cross a process boundary)."""
        return self._machine_factory

    # ------------------------------------------------------------------
    # Machines
    # ------------------------------------------------------------------
    def numerics_for(self, spec: ExperimentSpec) -> NumericsConfig:
        """The numerics configuration one spec executes under (spec override
        first, session default otherwise) — shared by machine construction
        and the vectorized backend's lowering contexts."""
        if spec.numerics is not None:
            return _numerics_config(spec.numerics)
        return self.numerics

    def machine_for(self, spec: ExperimentSpec) -> Machine:
        """A fresh machine for one spec execution.

        Machines are deliberately *not* reused across runs: the virtual
        clock, trace and operation counter are per-machine state, and a
        fresh machine pins the result to the spec alone.  The immutable
        chip/device/thermal pieces come from the shared
        :func:`~repro.sim.machine.machine_template` cache.
        """
        numerics = self.numerics_for(spec)
        if self._machine_factory is not None:
            return self._machine_factory(spec.chip, spec.seed, numerics)
        return Machine.for_chip(
            spec.chip,
            seed=spec.seed,
            noise_sigma=self.noise_sigma,
            thermal_enabled=self.thermal_enabled,
            numerics=numerics,
        )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def fingerprint(self) -> dict[str, Any]:
        """Session configuration that co-determines results (cache salt).

        Returned dicts are fresh down to the nested ``numerics`` entry, so
        mutating one (e.g. through an envelope's ``meta``) can never reach
        the memoized cache or other envelopes.
        """
        fingerprint = dict(self._fingerprint_parts()[0])
        fingerprint["numerics"] = dict(fingerprint["numerics"])
        return fingerprint

    def cache_key(self, spec: ExperimentSpec) -> str:
        """Cache identity of one spec under this session's configuration.

        Byte-equal to hashing
        ``json.dumps({"spec": ..., "session": ...}, sort_keys=True)`` — the
        historical payload — but assembled from the memoized canonical
        fragments ("session" sorts before "spec"), so a batch pays one hash
        per cell instead of a nested re-serialization.
        """
        payload = (
            '{"session":' + self._fingerprint_parts()[1]
            + ',"spec":' + spec.canonical_json() + "}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the in-session cache."""
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "in_memory": len(self._memory_cache),
            }

    def clear_cache(self) -> None:
        """Drop the in-memory cache (the on-disk store is left untouched)."""
        with self._cache_lock:
            self._memory_cache.clear()

    def cached_envelopes(self) -> list[ResultEnvelope]:
        """Every envelope currently held in the in-memory cache."""
        with self._cache_lock:
            return list(self._memory_cache.values())

    def _disk_path(self, key: str) -> pathlib.Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def cache_lookup(self, key: str) -> ResultEnvelope | None:
        """The cached envelope under ``key``, counting the hit or miss.

        Execution backends use this to resolve cache hits before
        dispatching cells to workers, keeping counters consistent across
        backends.
        """
        with self._cache_lock:
            cached = self._memory_cache.get(key)
            if cached is not None:
                self._hits += 1
        if cached is not None:
            return cached
        path = self._disk_path(key)
        if path is not None and path.is_file():
            envelope = ResultEnvelope.load(path)  # names the path if corrupt
            with self._cache_lock:
                self._memory_cache[key] = envelope
                self._hits += 1
            return envelope
        with self._cache_lock:
            self._misses += 1
        return None

    def record_miss(self) -> None:
        """Count one cache-bypassing execution (backends use this so
        ``cache_info()`` counters agree across execution backends)."""
        with self._cache_lock:
            self._misses += 1

    def cache_store(self, key: str, envelope: ResultEnvelope) -> None:
        """Record one executed envelope in the memory (and disk) cache."""
        with self._cache_lock:
            self._memory_cache[key] = envelope
        path = self._disk_path(key)
        if path is not None:
            from repro.experiments.store import atomic_write_text

            atomic_write_text(path, envelope.to_json() + "\n")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec,
        *,
        use_cache: bool = True,
        attempt: int = 1,
    ) -> ResultEnvelope:
        """Execute one spec (or return its cached envelope).

        ``attempt`` is the 1-based retry attempt this execution is part of
        — only deterministic fault injection observes it (cache hits do not
        count as attempts; a faulted cell never produced an envelope).
        """
        key = self.cache_key(spec)
        if use_cache:
            cached = self.cache_lookup(key)
            if cached is not None:
                return cached
        else:
            self.record_miss()
        if self.fault_plan is not None:
            self.fault_plan.invoke("execute", spec.spec_hash(), attempt)
        machine = self.machine_for(spec)
        result = execute_spec(machine, spec)
        envelope = ResultEnvelope.create(
            spec, result, meta={"session": self.fingerprint(), "cache_key": key}
        )
        if use_cache:
            self.cache_store(key, envelope)
        return envelope

    def run_batch(
        self,
        specs: Iterable[ExperimentSpec] | SweepSpec,
        *,
        max_workers: int | None = None,
        backend: str | ExecutionBackend | None = None,
        progress: ProgressCallback | None = None,
        use_cache: bool = True,
        on_error: str = "raise",
        retry: RetryPolicy | Mapping[str, Any] | None = None,
        health: RunHealth | None = None,
        on_failure: FailureCallback | None = None,
    ) -> list[ResultEnvelope]:
        """Execute many independent specs, optionally concurrently.

        Results come back in input order regardless of completion order,
        and — because each cell runs on a fresh machine with
        content-addressed jitter — are bit-identical for any
        ``max_workers`` and any ``backend`` (``"serial"``; ``"vectorized"``
        — the sweep fast path, which batch-evaluates whole grids through
        :mod:`repro.sim.vectorized`; ``"sharded"`` — vectorized inside
        worker processes; or an
        :class:`~repro.experiments.backends.ExecutionBackend` instance;
        see :func:`~repro.experiments.backends.resolve_backend` for the
        default chain).  ``progress`` is invoked after each cell completes
        as ``progress(completed, total, envelope)``.

        Every backend executes through its ``run`` method.  A
        :class:`SweepSpec` handed to a *streaming* backend (``sharded``)
        reaches it as the lazy :meth:`SweepSpec.expand_iter` stream, so the
        grid is never fully materialized here — only the returned envelopes
        are.

        Fault tolerance.  Cells that fail with a
        :class:`~repro.errors.TransientError` (injected faults, worker
        crashes, deadline expiries) are retried on the primary backend with
        exponential backoff (``retry`` — a
        :class:`~repro.experiments.resilience.RetryPolicy`, its dict form,
        or the session default), and crash/timeout victims that exhaust
        their retries get one final in-process serial attempt (the
        degradation ladder).  Backends only report failures (a sharded
        worker that dies or hangs fails every cell of its shard), so this
        ladder is the one recovery path.  A cell that still fails is
        *terminal*:
        ``on_error="raise"`` (the default) finishes the surviving siblings,
        then raises :class:`~repro.errors.SimulationError` naming every
        failed cell; ``on_error="collect"`` returns the batch with ``None``
        at failed indices and the failures recorded in the run's
        :class:`~repro.experiments.resilience.RunHealth` (pass ``health``
        to provide the instance, or read ``session.last_health``).
        ``on_failure(spec, failure)`` fires once per terminal failure —
        manifest checkpointing hangs off it.  Recovered cells are
        byte-identical to an undisturbed run: none of this machinery enters
        the session fingerprint.
        """
        if on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f'on_error must be "raise" or "collect", got {on_error!r}'
            )
        workers = self.max_workers if max_workers is None else int(max_workers)
        if workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        policy = _retry_policy(retry)
        if policy is None:
            policy = self.retry if self.retry is not None else RetryPolicy()
        report = health if health is not None else RunHealth()
        self.last_health = report
        exec_backend = resolve_backend(
            backend if backend is not None else self.backend,
            workers,
            session=self,
        )

        spec_list: Sequence[ExperimentSpec] | None = None
        if isinstance(specs, SweepSpec) and exec_backend.streaming:
            batch: Iterable[ExperimentSpec] = specs.expand_iter()
            total: int | None = None  # unknown until the stream ends
            results: list[ResultEnvelope | None] = []
        else:
            batch = spec_list = (
                specs.expand() if isinstance(specs, SweepSpec) else list(specs)
            )
            total = len(spec_list)
            results = [None] * total
        completed = 0
        progress_lock = threading.Lock()

        def finish(index: int, envelope: ResultEnvelope) -> None:
            nonlocal completed
            if total is None:
                while index >= len(results):
                    results.append(None)
            results[index] = envelope
            if progress is not None:
                with progress_lock:
                    completed += 1
                    progress(completed, total if total is not None else -1, envelope)
            else:
                completed += 1

        #: index -> (exception, spec) of the round that just ran
        round_failures: dict[int, tuple[BaseException, ExperimentSpec]] = {}

        def fail(index: int, exc: BaseException, spec: ExperimentSpec) -> None:
            if total is None:
                while index >= len(results):
                    results.append(None)
            report.count(exc)
            round_failures[index] = (exc, spec)

        exec_backend.run(
            self,
            batch,
            finish,
            use_cache=use_cache,
            fail=fail,
            attempt=1,
            cell_timeout=policy.cell_timeout,
        )

        # --- retry ladder -------------------------------------------------
        # Rounds re-run only the failed cells, all at the same attempt
        # number; after primary retries are exhausted, crash/timeout
        # victims get one in-process serial attempt (the backend that
        # cannot lose a worker), then whatever is left is terminal.
        open_failures = dict(round_failures)
        attempts = {index: 1 for index in open_failures}

        def rerun(
            entries: Mapping[int, tuple[BaseException, ExperimentSpec]],
            run_backend,
            attempt: int,
        ) -> None:
            round_failures.clear()
            indices = sorted(entries)
            subset = [entries[i][1] for i in indices]

            def finish_sub(j: int, envelope: ResultEnvelope) -> None:
                finish(indices[j], envelope)

            def fail_sub(j: int, exc: BaseException, spec) -> None:
                fail(indices[j], exc, spec)

            run_backend(
                self,
                subset,
                finish_sub,
                use_cache=use_cache,
                fail=fail_sub,
                attempt=attempt,
                cell_timeout=policy.cell_timeout,
            )
            for index in indices:
                attempts[index] += 1
                open_failures.pop(index, None)
            open_failures.update(round_failures)

        attempt = 1
        while open_failures and attempt <= policy.max_retries:
            retryable = {
                index: entry
                for index, entry in open_failures.items()
                if policy.retryable(entry[0])
            }
            if not retryable:
                break
            attempt += 1
            delay = policy.delay(attempt - 1)
            if delay:
                time.sleep(delay)
                report.wall_clock_lost_s += delay
            report.retries += len(retryable)
            rerun(retryable, exec_backend.run, attempt)

        if open_failures:
            # the last rung: crash/timeout victims re-execute in-process,
            # where no worker can die and no deadline preempts
            infra = {
                index: entry
                for index, entry in open_failures.items()
                if isinstance(entry[0], (WorkerCrashError, CellTimeoutError))
            }
            if infra:
                report.fallbacks += len(infra)
                rerun(infra, SerialBackend().run, attempt + 1)

        failed_indices = set(open_failures)
        for index in sorted(open_failures):
            exc, spec = open_failures[index]
            failure = CellFailure.from_exception(
                exc,
                spec_hash=spec.spec_hash(),
                kind=spec.kind,
                attempts=attempts.get(index, 1),
                index=index,
            )
            report.record_failure(failure)
            if on_failure is not None:
                on_failure(spec, failure)

        undelivered = [
            i
            for i, env in enumerate(results)
            if env is None and i not in failed_indices
        ]
        if not undelivered and total is not None and completed + len(
            failed_indices
        ) < total:
            undelivered = list(range(len(results), total))
        if undelivered:
            # A backend that drops cells is a bug, not a partial result —
            # name the victims instead of silently returning a short list.
            if spec_list is None:
                spec_list = specs.expand()
            hashes = ", ".join(
                spec_list[i].spec_hash() for i in undelivered[:5]
            )
            more = len(undelivered) - min(len(undelivered), 5)
            raise ConfigurationError(
                f"backend {exec_backend.name!r} finished the batch but "
                f"never delivered {len(undelivered)} of "
                f"{len(spec_list)} cells (spec hashes {hashes}"
                + (f" and {more} more" if more else "")
                + ")"
            )
        if failed_indices and on_error == "raise":
            described = "; ".join(
                str(f) for f in report.failures[:5]
            )
            more = len(report.failures) - min(len(report.failures), 5)
            first_exc = open_failures[min(failed_indices)][0]
            raise SimulationError(
                f"{len(failed_indices)} of {len(results)} cells failed "
                f"after retries: {described}"
                + (f" (and {more} more)" if more else "")
            ) from first_exc
        return list(results)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Session(numerics={self.numerics.policy.value!r}, "
            f"seed={self.seed}, cached={len(self._memory_cache)})"
        )
