"""Vectorized sweep evaluation: whole grids through the roofline model.

The scalar engine advances one :class:`~repro.sim.engine.Operation` at a
time — a 1k-cell sweep with five repetitions pays ~5k interpreter round
trips through :class:`~repro.sim.machine.Machine`, plus machine
construction, dataclass churn and a one-element noise draw for every
one of them.  Because every experiment cell is a pure function of its spec (the
jitter is content-addressed, machines are fresh per cell), the whole grid
can instead be *lowered* into flat arrays and evaluated in a handful of
NumPy operations.

The contract has three parts:

* **Lowering** — a workload's ``vectorized_body`` hook (see
  :class:`~repro.workloads.base.Workload`) maps ``(machine-like, spec)`` to
  a :class:`LoweredCell`: the roofline parameters of one repetition, the
  per-repetition noise keys (one key repeated: the repetition is the noise
  counter), and an ``assemble`` closure that turns the
  resulting nanosecond timings back into the workload's result record.  The
  scalar executor runs the *same* lowering through
  :func:`run_lowered_cell` — one :class:`Operation` per repetition on a
  real machine — so the two paths cannot drift.
* **Evaluation** — :func:`evaluate_cells` stacks the lowered cells into
  arrays and replicates the scalar engine's arithmetic elementwise:
  roofline time, thermal clamp/stretch, bulk noise factors (each cell's
  keys through :func:`repro.sim.noise.noise_entropies` — one hash per
  distinct key, the k-th draw of a key at counter k, as a fresh machine
  counts — then :func:`repro.sim.noise.lognormal_factors`, the scalar
  path's own draw; ops whose sigma resolves to 0 are neither hashed nor
  drawn), the virtual clock's cumulative float adds,
  and the chrono-style nanosecond truncation.  Every step is the same
  IEEE-754 double operation the scalar path performs, so results are
  byte-identical, not merely close.
* **Fallback** — every built-in workload lowers every cell, under every
  numerics profile: numerics are a memoized check inside the lowering,
  never part of the timed path.  A runtime-registered workload may declare
  no ``vectorized_body`` at all; its cells simply execute on the scalar
  engine, and the batch-level entry point in
  :class:`~repro.experiments.backends.VectorizedBackend` mixes the paths
  per cell.

Cells come in two shapes.  A :class:`LoweredCell` is the homogeneous case —
one roofline operation repeated R times, assembled from per-repetition
elapsed nanoseconds.  A :class:`LoweredSequence` is the general case — an
ordered tuple of heterogeneous :class:`~repro.sim.engine.Operation`
objects (optionally each preceded by one fixed clock advance, the
powermetrics warm-up sleep), assembled from two float64 rows — every
operation's clock start and clock end — which is what protocol-shaped
workloads (the STREAM thread sweep, the GEMM implementation studies, the
powered-GEMM measurement protocol) need.  Their ops come from the dispatch
builders in :mod:`repro.calibration` that the benchmark classes execute
too, so a sequence holds the very operations a scalar executor runs.
:func:`evaluate_sequences` is the bulk evaluator;
:func:`run_lowered_sequence` is its scalar reference.

A lowering builds one operation per *distinct* dispatch and repeats that
object at every position it occupies — ``(op,) * repeats`` for a GEMM
cell, one op per (thread-count, kernel) repeated ``ntimes`` for a CPU
STREAM sweep.  :func:`evaluate_sequences` computes everything that depends
only on the op once per distinct object (per sequence thermal model) and
gathers it back to positions; noise keys and counters still advance per
position, so sharing an object never changes a byte.  The clock runs
column-wise: sequences of one length share one ``np.cumsum`` over their
interleaved ``[pre, d1, pre, d2, ...]`` steps, whose strictly left-to-right
adds are the scalar clock's own, and each assembler reads its rows with
array expressions instead of per-window Python tuples.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import EngineKind, Operation
from repro.sim.machine import Machine, MachineTemplate, machine_template
from repro.sim.noise import (
    lognormal_factors,
    noise_entropies,
    resolve_sigma,
)
from repro.sim.policy import NumericsConfig
from repro.soc.power import PowerComponent
from repro.soc.thermal import ThermalModel
from repro.sim.roofline import OpCost

__all__ = [
    "LoweredCell",
    "LoweredSequence",
    "VectorContext",
    "vector_context",
    "run_lowered_cell",
    "run_lowered_sequence",
    "evaluate_cells",
    "evaluate_sequences",
    "effective_draw_w",
]


def effective_draw_w(
    thermal: ThermalModel, draws: Mapping[PowerComponent, float]
) -> float:
    """Total draw (W) while an operation runs, after the thermal clamp.

    This is the wattage the scalar engine records into the power recorder
    for the operation's interval — ``sum(draws) * clamp_factor`` — exposed
    so workload lowerings can surface the modelled draw into their result
    records (the study layer's ``power_w``/``joules``/``gflops_per_w``
    metrics derive from it for workloads without a measurement protocol).
    """
    requested = sum(draws.values())
    return requested * thermal.clamp_factor(requested)


@dataclasses.dataclass(frozen=True)
class LoweredCell:
    """One experiment cell lowered to its repetition-grid parameters.

    Every repetition of a cell shares the same roofline operation — cost,
    peaks, efficiencies, overhead, power draws — and differs only in its
    noise draw, which is exactly what makes the grid vectorizable.  The
    built-in lowerings repeat one content-addressed key, ``(key,) *
    repeats``, so repetition k draws counter k of that key.
    ``assemble`` closes over the spec-derived metadata
    (chip name, verification outcome, work content) and rebuilds the
    workload's result record from the per-repetition elapsed nanoseconds.
    """

    engine: EngineKind
    label: str
    cost: OpCost
    peak_flops: float
    peak_bytes_per_s: float
    compute_efficiency: float
    memory_efficiency: float
    overhead_s: float
    power_draws_w: Mapping[PowerComponent, float]
    noise_keys: tuple[str, ...]
    noise_sigma: float | None
    seed: int
    thermal: ThermalModel
    assemble: Callable[[tuple[int, ...]], Any]

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("operation label must be non-empty")
        if not self.noise_keys:
            raise ConfigurationError("a lowered cell needs at least one repetition")
        if not all(self.noise_keys):
            # an empty key is falsy, so the scalar engine would silently
            # substitute its chip/label fallback while the vectorized
            # engine hashed "" — reject it rather than diverge
            raise ConfigurationError(
                "lowered-cell noise keys must be non-empty "
                "(content-addressed, never keyless fallbacks)"
            )
        for comp, watts in self.power_draws_w.items():
            if watts < 0.0:
                raise ConfigurationError(f"negative power draw for {comp}")

    @property
    def repeats(self) -> int:
        return len(self.noise_keys)

    def operation(self, repetition: int) -> Operation:
        """The scalar-engine operation of one repetition."""
        return Operation(
            engine=self.engine,
            label=self.label,
            cost=self.cost,
            peak_flops=self.peak_flops,
            peak_bytes_per_s=self.peak_bytes_per_s,
            compute_efficiency=self.compute_efficiency,
            memory_efficiency=self.memory_efficiency,
            overhead_s=self.overhead_s,
            power_draws_w=self.power_draws_w,
            noise_key=self.noise_keys[repetition],
            noise_sigma=self.noise_sigma,
        )


@dataclasses.dataclass(frozen=True)
class LoweredSequence:
    """One experiment cell lowered to an ordered operation sequence.

    Protocol-shaped cells (a STREAM thread sweep, a GEMM repetition study,
    the powered-GEMM measurement loop) execute *heterogeneous* operations
    on one cumulative machine clock.  ``ops`` are the very
    :class:`~repro.sim.engine.Operation` objects the scalar executors run,
    from the shared builders in :mod:`repro.calibration`.  ``assemble``
    is called as ``assemble(starts, ends)`` with two 1-D float64 arrays of
    ``len(ops)`` entries — each op's clock start and end, the exact floats
    the scalar clock would produce — and rebuilds the workload's result
    record, replaying any executor-side arithmetic (nanosecond truncation,
    bandwidth division, powermetrics formatting) on top of them.  The rows
    may be views into a batch-wide array: read them, never write them.

    ``pre_advance_s`` models a ``machine.sleep`` the scalar executor
    performs before issuing *each* op (the powermetrics warm-up): it shifts
    the clock without consuming noise or recording power.

    Every op must carry an explicit noise key: the scalar engine would key
    a keyless op by chip and label, which the bulk engine never hashes, so
    such a sequence is rejected rather than left to diverge.

    ``ops`` may be shared between sequences that differ only in ``seed``
    (or in ``thermal``): lowering a seed-ensemble grid can build the tuple
    once per distinct cell shape and reuse it, which is what makes
    million-cell grids cheap to lower.  Within a tuple, every repetition of
    one dispatch should be the same op object; the bulk evaluator then
    computes it once.
    """

    seed: int
    thermal: ThermalModel
    ops: tuple[Operation, ...]
    assemble: Callable[[np.ndarray, np.ndarray], Any]
    pre_advance_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError(
                "a lowered sequence needs at least one operation"
            )
        if self.pre_advance_s < 0.0:
            raise ConfigurationError("pre-advance must be non-negative")
        if not all(map(operator.attrgetter("noise_key"), self.ops)):
            raise ConfigurationError(
                "lowered-sequence ops need explicit noise keys "
                "(content-addressed, never the chip/label fallback)"
            )


class VectorContext:
    """A machine-shaped facade over the shared immutable chip template.

    Offers the subset of :class:`~repro.sim.machine.Machine` a lowering
    body reads — ``chip``, ``device``, ``thermal``, ``numerics``,
    :meth:`peak_flops`, :meth:`memory_bandwidth_bytes_per_s` — without any
    per-machine mutable state, so one context serves every cell of a sweep
    that shares a (chip, thermal, numerics) configuration.
    """

    __slots__ = ("_template", "numerics")

    def __init__(self, template: MachineTemplate, numerics: NumericsConfig) -> None:
        self._template = template
        self.numerics = numerics

    @property
    def chip(self):
        return self._template.chip

    @property
    def device(self):
        return self._template.device

    @property
    def thermal(self) -> ThermalModel:
        return self._template.thermal

    @property
    def envelope(self):
        """The chip's power envelope (component idle floors and caps)."""
        return self._template.envelope

    def peak_flops(self, engine: EngineKind) -> float:
        """Architectural FP peak of one execution engine (FLOP/s)."""
        return self._template.peak_flops(engine)

    def memory_bandwidth_bytes_per_s(self) -> float:
        """Theoretical unified-memory bandwidth in bytes/second."""
        return self._template.memory_bandwidth_bytes_per_s()


@functools.lru_cache(maxsize=None)
def vector_context(
    chip: str, thermal_enabled: bool, numerics: NumericsConfig
) -> VectorContext:
    """The cached lowering context of one (chip, thermal, numerics) config."""
    return VectorContext(machine_template(chip, thermal_enabled), numerics)


def run_lowered_cell(machine: Machine, cell: LoweredCell) -> Any:
    """Execute one lowered cell on the scalar engine (the reference path).

    The workload executors run through here, so the scalar and vectorized
    paths consume the very same lowering — the only difference is *how* the
    repetition grid is evaluated.
    """
    elapsed_ns = []
    for rep in range(cell.repeats):
        completed = machine.execute(cell.operation(rep))
        elapsed_ns.append(max(1, round(completed.elapsed_s * 1e9)))
    return cell.assemble(tuple(elapsed_ns))


def run_lowered_sequence(machine: Machine, sequence: LoweredSequence) -> Any:
    """Execute one lowered sequence on the scalar engine (the reference path).

    The counterpart of :func:`run_lowered_cell` for sequence-shaped cells:
    the pre-advance becomes a real ``machine.sleep`` before each op, each
    op a real ``machine.execute``, and ``assemble`` sees the genuine clock
    starts and ends.
    """
    starts = []
    ends = []
    pre_advance_s = sequence.pre_advance_s
    for op in sequence.ops:
        if pre_advance_s:
            machine.sleep(pre_advance_s)
        completed = machine.execute(op)
        starts.append(completed.start_s)
        ends.append(completed.end_s)
    return sequence.assemble(np.array(starts), np.array(ends))


def _validated_arrays(cells: Sequence[LoweredCell]) -> dict[str, np.ndarray]:
    """Stack the per-cell roofline parameters, with scalar-parity validation.

    A misbehaving third-party lowering fails with the same
    :class:`ConfigurationError` *messages*
    :func:`~repro.sim.roofline.roofline_time` raises.  Note the checks run
    check-major over the whole batch (not cell-major), so when several
    cells are invalid in different ways, *which* message surfaces first may
    differ from serial execution — but an invalid batch never evaluates
    under either engine.
    """
    n = len(cells)
    arr = {
        "flops": np.fromiter((c.cost.flops for c in cells), np.float64, n),
        "total_bytes": np.fromiter(
            (c.cost.total_bytes for c in cells), np.float64, n
        ),
        "peak_flops": np.fromiter((c.peak_flops for c in cells), np.float64, n),
        "peak_bytes": np.fromiter(
            (c.peak_bytes_per_s for c in cells), np.float64, n
        ),
        "ceff": np.fromiter(
            (c.compute_efficiency for c in cells), np.float64, n
        ),
        "meff": np.fromiter((c.memory_efficiency for c in cells), np.float64, n),
        "overhead": np.fromiter((c.overhead_s for c in cells), np.float64, n),
    }
    if np.any((arr["peak_flops"] <= 0.0) & (arr["flops"] > 0.0)):
        raise ConfigurationError("compute work requires a positive peak FLOP rate")
    if np.any((arr["peak_bytes"] <= 0.0) & (arr["total_bytes"] > 0.0)):
        raise ConfigurationError("memory work requires a positive peak bandwidth")
    for name, key in (("compute", "ceff"), ("memory", "meff")):
        bad = ~((arr[key] > 0.0) & (arr[key] <= 1.0))
        if np.any(bad):
            eff = arr[key][np.argmax(bad)]
            raise ConfigurationError(
                f"{name} efficiency must be in (0, 1], got {eff}"
            )
    if np.any(arr["overhead"] < 0.0):
        raise ConfigurationError("overhead must be non-negative")
    return arr


def _roofline_s(arr: dict[str, np.ndarray]) -> np.ndarray:
    """Per-row roofline time: the elementwise arithmetic of roofline_time()."""
    compute_s = np.zeros(len(arr["flops"]))
    np.divide(
        arr["flops"],
        arr["peak_flops"] * arr["ceff"],
        out=compute_s,
        where=arr["flops"] > 0.0,
    )
    memory_s = np.zeros(len(arr["total_bytes"]))
    np.divide(
        arr["total_bytes"],
        arr["peak_bytes"] * arr["meff"],
        out=memory_s,
        where=arr["total_bytes"] > 0.0,
    )
    return np.maximum(compute_s, memory_s) + arr["overhead"]


def _stretch_factor(
    memo: dict[tuple[int, float], float],
    thermal: ThermalModel,
    draws: Mapping[PowerComponent, float],
) -> float:
    """The thermal time stretch of one op under one model, memoized.

    The very same :class:`ThermalModel` methods the scalar engine calls
    (``**`` stays CPython's pow), keyed on (model, requested draw): the
    methods are pure, and grids reuse a handful of draw patterns.
    Multiplying by exactly 1.0 is an IEEE identity, so applying the stretch
    unconditionally matches the scalar branch.
    """
    requested = sum(draws.values())
    key = (id(thermal), requested)
    factor = memo.get(key)
    if factor is None:
        factor = memo[key] = (
            thermal.throttle_time_factor(requested)
            if thermal.clamp_factor(requested) < 1.0
            else 1.0
        )
    return factor


def evaluate_cells(
    cells: Sequence[LoweredCell], *, default_sigma: float = 0.015
) -> list[Any]:
    """Evaluate a grid of lowered cells in bulk, byte-identical to scalar.

    ``default_sigma`` is the session noise level a fresh machine would have
    been constructed with; ``0.0`` disables jitter globally, exactly like
    ``Machine(..., noise_sigma=0.0)``.  Returns one assembled result record
    per cell, in input order.
    """
    if not cells:
        return []
    n = len(cells)
    base = _roofline_s(_validated_arrays(cells))

    # Thermal clamp, per (model, requested draw).
    thermal_memo: dict[tuple[int, float], float] = {}
    base = base * np.fromiter(
        (
            _stretch_factor(thermal_memo, cell.thermal, cell.power_draws_w)
            for cell in cells
        ),
        np.float64,
        n,
    )

    # Bulk noise: each cell applies the draw rule to its own keys (one hash
    # per distinct key); a cell whose sigma resolves to 0 keeps factors of
    # exactly 1.0 and is neither hashed nor drawn.
    repeats = np.fromiter((c.repeats for c in cells), np.int64, n)
    max_reps = int(repeats.max())
    noisy: list[int] = []
    sigmas: list[float] = []
    states: list[np.ndarray] = []
    for i, cell in enumerate(cells):
        sigma = resolve_sigma(default_sigma, cell.noise_sigma)
        if sigma:
            noisy.append(i)
            sigmas.append(sigma)
            states.append(noise_entropies(cell.seed, cell.noise_keys))
    factors = np.ones((n, max_reps))
    if noisy:
        mask = np.zeros((n, max_reps), dtype=bool)
        mask[noisy] = np.arange(max_reps)[None, :] < repeats[noisy, None]
        factors[mask] = lognormal_factors(
            np.concatenate(states), np.repeat(sigmas, repeats[noisy])
        )
    durations = base[:, None] * factors

    # Virtual clock: cumulative float adds in repetition order, then the
    # chrono-style truncation max(1, round(elapsed * 1e9)).  Padded columns
    # beyond a cell's repeat count only ever extend the running clock past
    # timings that are already recorded, so they are harmless.
    elapsed = np.empty((n, max_reps))
    start = np.zeros(n)
    for rep in range(max_reps):
        end = start + durations[:, rep]
        elapsed[:, rep] = end - start
        start = end
    elapsed_ns = np.maximum(1, np.rint(elapsed * 1e9)).astype(np.int64)

    # .tolist() yields builtin ints in one C pass — identical values to a
    # per-element int() loop, at a fraction of the per-op cost.
    rows = elapsed_ns.tolist()
    return [
        cell.assemble(tuple(rows[i][: cell.repeats]))
        for i, cell in enumerate(cells)
    ]


def evaluate_sequences(
    sequences: Sequence[LoweredSequence], *, default_sigma: float = 0.015
) -> list[Any]:
    """Evaluate sequence-shaped cells in bulk, byte-identical to scalar.

    The sequence counterpart of :func:`evaluate_cells`.  One pass maps each
    op object, by identity, to a slot of a table kept in first-appearance
    order — one slot per distinct (op, sequence thermal model) pair, so an
    ops tuple shared by sequences with different thermal models still
    stretches under each model.  Validation, the roofline and the thermal
    stretch run once per slot and are gathered back to positions; a
    lowering that repeats one op object for every repetition of a dispatch
    pays for it once.  The noise pass walks
    positions, so keys and counters are those of the scalar machine, and
    runs only when some slot's sigma resolves to a non-zero value.  The
    virtual clock runs once per group of equal-length sequences, as one
    ``np.cumsum`` over each member's interleaved pre-advance and duration
    steps — the op-ordered float additions the scalar clock performs — and
    every sequence's ``assemble`` receives its ops' exact clock start and
    end rows.  Returns one assembled result record per sequence, in input
    order.
    """
    if not sequences:
        return []
    n = len(sequences)
    table: list[Operation] = []
    table_thermals: list[ThermalModel] = []
    slot_maps: dict[int, dict[int, int]] = {}  # id(model) -> id(op) -> slot
    rows: list[list[int]] = []
    for sequence in sequences:
        thermal = sequence.thermal
        slot_of = slot_maps.setdefault(id(thermal), {})
        ids = list(map(id, sequence.ops))
        # the sequence's distinct ops, in first-appearance order
        for key, op in dict(zip(ids, sequence.ops)).items():
            if key not in slot_of:
                slot_of[key] = len(table)
                table.append(op)
                table_thermals.append(thermal)
        rows.append(list(map(slot_of.__getitem__, ids)))
    counts = list(map(len, rows))
    total = sum(counts)
    slots = np.fromiter(itertools.chain.from_iterable(rows), np.intp, total)

    # Roofline and thermal stretch, per slot, as in evaluate_cells.
    base = _roofline_s(_validated_arrays(table))
    thermal_memo: dict[tuple[int, float], float] = {}
    base = base * np.fromiter(
        (
            _stretch_factor(thermal_memo, thermal, op.power_draws_w)
            for op, thermal in zip(table, table_thermals)
        ),
        np.float64,
        len(table),
    )
    flat_durations = base[slots]

    # Bulk noise: each sequence applies the draw rule to the keys of its
    # active ops (every op is keyed, see LoweredSequence); an op whose sigma
    # resolves to 0 keeps a factor of exactly 1.0 and is neither
    # hashed nor drawn.
    slot_sigmas = [resolve_sigma(default_sigma, op.noise_sigma) for op in table]
    if any(slot_sigmas):
        positions: list[int] = []
        sigmas: list[float] = []
        gains: list[float] = []
        states: list[np.ndarray] = []
        offset = 0
        for sequence, row in zip(sequences, rows):
            keys: list[str] = []
            for j, slot in enumerate(row):
                sigma = slot_sigmas[slot]
                if sigma:
                    keys.append(table[slot].noise_key)
                    positions.append(offset + j)
                    sigmas.append(sigma)
                    gains.append(table[slot].noise_gain)
            if keys:
                states.append(noise_entropies(sequence.seed, keys))
            offset += len(row)
        factors = np.ones(total)
        factors[positions] = lognormal_factors(
            np.concatenate(states), sigmas, gains
        )
        flat_durations = flat_durations * factors

    # Virtual clock, one cumsum per sequence length.  Each row interleaves
    # [pre, d1, pre, d2, ...]; add.accumulate adds strictly left to right,
    # so every start is the scalar clock's ``clock + pre`` and every end its
    # ``start + d``.  A zero pre-advance adds exactly 0.0 — the IEEE
    # identity on the non-negative clock — matching the scalar executor
    # skipping the sleep.  Assembly then runs in input order, so a batch
    # with several failing cells raises the first one's error.
    offsets = np.cumsum([0] + counts[:-1])
    pre = np.fromiter((s.pre_advance_s for s in sequences), np.float64, n)
    groups: dict[int, list[int]] = {}
    for i, count in enumerate(counts):
        groups.setdefault(count, []).append(i)
    windows: list[Any] = [None] * n
    for length, members in groups.items():
        steps = np.empty((len(members), 2 * length))
        steps[:, 0::2] = pre[members, None]
        steps[:, 1::2] = flat_durations[
            offsets[members, None] + np.arange(length)
        ]
        clock = np.cumsum(steps, axis=1)
        for i, starts, ends in zip(members, clock[:, 0::2], clock[:, 1::2]):
            windows[i] = starts, ends
    return [
        sequence.assemble(*window) for sequence, window in zip(sequences, windows)
    ]
