"""The workload plugin contract.

A :class:`Workload` bundles everything the experiment stack needs to know
about one workload family behind a single ``kind`` string: the spec class,
the executor body, the result type and its JSON codec, the sweep-axis
semantics, and the CLI rendering hooks.  Every per-kind switch site — spec
deserialization (:func:`repro.experiments.specs.spec_from_dict`), execution
dispatch (:func:`repro.experiments.executor.execute_spec`), the envelope
result codecs, :meth:`SweepSpec.expand` and the ``repro run`` output — goes
through the registry in :mod:`repro.workloads.registry`, so adding a
workload is one module plus one :func:`~repro.workloads.registry.register_workload`
call, with zero edits to the executor, session, envelope, store or CLI.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.specs import ExperimentSpec, SweepSpec
    from repro.sim.machine import Machine

__all__ = [
    "Workload",
    "best_elapsed_s",
    "elapsed_ns_from_list",
    "iter_axes",
    "modelled_power_metrics",
    "spec_size",
    "spec_variant",
    "variant_grid",
]


def best_elapsed_s(result: Any) -> float:
    """Fastest repetition of a timed result record, in seconds."""
    return min(result.elapsed_ns) * 1e-9


def spec_variant(spec: Any) -> str:
    """A spec's middle-axis label: implementation key or target, else ``""``.

    The one shared spec-to-variant mapping — the study frame's reserved
    ``variant`` field and the CLI's envelope ordering both resolve through
    here, so a workload with a different variant field has one place to
    matter.
    """
    return str(getattr(spec, "impl_key", "") or getattr(spec, "target", ""))


def spec_size(spec: Any) -> int:
    """A spec's problem-size axis: ``n`` or ``n_elements``, else ``0``."""
    return int(
        getattr(spec, "n", None) or getattr(spec, "n_elements", None) or 0
    )


def modelled_power_metrics() -> dict[str, Callable]:
    """The shared power/efficiency metric extractors of modelled workloads.

    For workloads whose result record carries the simulator's thermally
    clamped draw in a ``power_w`` field (see
    :func:`repro.sim.vectorized.effective_draw_w`): ``power_w`` is the draw
    while the cell runs, ``joules`` the energy of the fastest repetition,
    ``gflops_per_w`` the Figure-4-style efficiency.  Each returns ``None``
    for legacy envelopes persisted before the draw was surfaced, which the
    query layer treats as "metric not available" rather than an error.
    """

    def power_w(spec: Any, result: Any) -> float | None:
        return result.power_w

    def joules(spec: Any, result: Any) -> float | None:
        if result.power_w is None:
            return None
        return result.power_w * best_elapsed_s(result)

    def gflops_per_w(spec: Any, result: Any) -> float | None:
        if not result.power_w:
            return None
        return result.best_gflops / result.power_w

    return {
        "power_w": power_w,
        "joules": joules,
        "gflops_per_w": gflops_per_w,
    }


def variant_grid(
    make: "Callable[[random.Random], ExperimentSpec]", seed: int, count: int
) -> tuple:
    """``count`` seeded-random valid specs from one workload's parameter space.

    The shared body of the plugins' ``sample_variants`` hooks: a
    :class:`random.Random` seeded with ``seed`` drives ``make``, so the grid
    is randomized but reproducible — the property-based codec tests
    (round-trip, hash stability, pickling for process dispatch) draw seeds
    and cover every registered workload without knowing its fields.
    """
    rng = random.Random(seed)
    return tuple(make(rng) for _ in range(count))


def elapsed_ns_from_list(data: Any) -> tuple[int, ...]:
    """The ``elapsed_ns`` column of a timed result's plain-data form.

    The shared decoder of the timed-result codecs, which write the column
    as ``"elapsed_ns": list(result.elapsed_ns)``.  Only a non-empty list
    of integers decodes: ``bool``, float and string entries are refused
    rather than truncated, and every time must be positive, as the result
    records require.
    """
    from repro.core.results import check_elapsed_ns

    if not isinstance(data, list):
        raise ConfigurationError(
            f"elapsed_ns must be a list of integers, not {type(data).__name__}"
        )
    for ns in data:
        if type(ns) is not int:
            raise ConfigurationError(
                f"elapsed_ns entries must be integers, not {ns!r}"
            )
    elapsed_ns = tuple(data)
    check_elapsed_ns(elapsed_ns)
    return elapsed_ns


def iter_axes(
    chips,
    variants,
    sizes,
    make_spec: Callable[[str, str, int], Any],
    *,
    cell_filter: Callable[[str, str, int], bool] | None = None,
):
    """Lazy row-major ``chips x variants x sizes`` expansion.

    The standard ``sweep_cells`` shape, shared by plugins: ``variants`` is
    whatever the workload's middle axis means (implementation keys,
    targets, ...), ``make_spec`` builds one concrete cell, and
    ``cell_filter`` optionally drops unsupported combinations (the GEMM
    section-4 exclusions).  Cells come out one at a time, so streaming
    consumers never hold the whole grid.
    """
    for chip in chips:
        for variant in variants:
            for n in sizes:
                if cell_filter is None or cell_filter(chip, variant, n):
                    yield make_spec(chip, variant, n)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pluggable workload family, addressed by its ``kind`` string.

    Attributes
    ----------
    kind:
        The serialization/dispatch tag.  It names the spec ``kind``, the
        envelope result ``type`` and the ``repro run --kind`` value.
    display_name, description:
        Human-readable identity for ``repro workloads`` and the generated
        EXPERIMENTS.md registry section.
    spec_cls:
        The frozen :class:`~repro.experiments.specs.ExperimentSpec`
        subclass describing one cell of this workload.
    result_cls:
        The result record type produced by :attr:`execute`; used for
        envelope serialization dispatch.
    execute:
        Executor body ``(machine, spec) -> result`` — the pure function a
        session calls on a fresh machine.
    result_to_dict, result_from_dict:
        JSON codec for :attr:`result_cls` (plain data, tagged with
        ``type=kind``).
    sweep_cells:
        Grid expander ``(sweep) -> iterable[spec]`` interpreting the
        generic :class:`~repro.experiments.specs.SweepSpec` axes for this
        workload, in a deterministic order.  Any iterable will do; a
        generator (such as :func:`iter_axes`) is preferred, because
        ``SweepSpec.expand_iter`` passes it straight to streaming consumers
        (the ``sharded`` backend), so million-cell grids flow through them
        without ever holding every spec object.
    sample_spec:
        Factory for a small, cheap, representative spec — the hook that
        lets registry-parametrized tests auto-cover every workload.
    sample_variants:
        Seeded variant generator ``(seed, count) -> tuple[spec, ...]`` over
        this workload's *valid* parameter space (see :func:`variant_grid`).
        Drives the property-based codec tests; specs it returns are
        round-tripped, hashed and pickled but never executed, so sizes may
        span the full sweep range.  Optional — workloads without it are
        covered by ``sample_spec`` alone.
    cell_label:
        One-line cell description for progress output.
    summary_line:
        One-line human summary ``(spec, result) -> str`` for ``repro run``.
    impl_keys:
        The implementation/variant keys this workload understands (listed
        by ``repro workloads``; empty when the workload has no variants).
    metrics:
        Named metric extractors ``{name: (spec, result) -> value}`` — the
        per-kind vocabulary of the study layer's
        :class:`~repro.study.frame.ResultFrame`.  Workloads publish the
        figure-ready statistics of their result record under the shared
        metric names (``gflops``, ``gbs``, ``fraction_of_peak``,
        ``power_w``, ``joules``, ``gflops_per_w``, ``elapsed_s``) plus any
        kind-specific extras; an extractor may return ``None`` to mean
        "not available for this cell" (e.g. power metrics on a legacy
        envelope).  Fields the spec or result expose directly need no
        extractor — the frame falls back to attribute access.
    vectorized_body:
        Optional lowering hook ``(machine_like, spec) ->``
        :class:`~repro.sim.vectorized.LoweredCell` (or
        :class:`~repro.sim.vectorized.LoweredSequence`) behind the
        ``vectorized`` execution backend.  ``machine_like`` is either a real
        :class:`~repro.sim.machine.Machine` or a
        :class:`~repro.sim.vectorized.VectorContext`; a workload that
        declares this hook should implement its scalar ``execute`` as
        ``run_lowered_cell(machine, vectorized_body(machine, spec))`` so
        the two paths share one lowering and stay byte-identical by
        construction.  Every built-in workload declares one and lowers
        every cell; workloads that leave it ``None`` execute on the scalar
        engine even inside a vectorized batch — the fallback is per cell.
    """

    kind: str
    display_name: str
    description: str
    spec_cls: type
    result_cls: type
    execute: Callable[["Machine", "ExperimentSpec"], Any]
    result_to_dict: Callable[[Any], dict[str, Any]]
    result_from_dict: Callable[[Mapping[str, Any]], Any]
    sweep_cells: Callable[["SweepSpec"], Iterable["ExperimentSpec"]]
    sample_spec: Callable[[], "ExperimentSpec"]
    cell_label: Callable[["ExperimentSpec"], str]
    summary_line: Callable[["ExperimentSpec", Any], str]
    impl_keys: tuple[str, ...] = ()
    sample_variants: Callable[[int, int], tuple] | None = None
    vectorized_body: "Callable[[Any, ExperimentSpec], Any] | None" = None
    metrics: Mapping[str, Callable[["ExperimentSpec", Any], Any]] = (
        dataclasses.field(default_factory=dict)
    )

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("a workload needs a non-empty kind string")
        if getattr(self.spec_cls, "kind", None) != self.kind:
            raise ConfigurationError(
                f"workload kind {self.kind!r} does not match its spec class "
                f"tag {getattr(self.spec_cls, 'kind', None)!r}"
            )

    @property
    def result_tag(self) -> str:
        """The envelope ``type`` tag of this workload's results (its kind)."""
        return self.kind
