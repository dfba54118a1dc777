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
  a :class:`LoweredSequence`: the ordered
  :class:`~repro.sim.engine.Operation` objects the cell executes on one
  cumulative clock (optionally each preceded by one fixed clock advance,
  the powermetrics warm-up sleep) and an ``assemble`` closure that turns
  two float64 rows — every operation's clock start and clock end — back
  into the workload's result record.  A repetition grid (SpMV, stencil,
  batched GEMM, a GEMM cell) is one op repeated, ``(op,) * repeats``;
  protocol-shaped cells (the STREAM thread sweep, the powered-GEMM
  measurement protocol) order heterogeneous ops, built by the dispatch
  builders in :mod:`repro.calibration` that the benchmark classes execute
  too.  The scalar executor runs the *same* lowering through
  :func:`run_lowered_sequence` — each op a real ``machine.execute`` — so
  the two paths cannot drift.
* **Evaluation** — :func:`evaluate_sequences` replicates the scalar
  engine's arithmetic over the whole batch: roofline time, thermal
  clamp/stretch, bulk noise factors (each sequence's keys through
  :func:`repro.sim.noise.noise_entropies` — one hash per distinct key, the
  k-th draw of a key at counter k, as a fresh machine counts — then
  :func:`repro.sim.noise.lognormal_factors`, the scalar path's own draw;
  ops whose sigma resolves to 0 are neither hashed nor drawn) and the
  virtual clock's cumulative float adds.  Every step is the same IEEE-754
  double operation the scalar path performs, so results are
  byte-identical, not merely close.
* **Fallback** — every built-in workload lowers every cell, under every
  numerics profile: numerics are a memoized check inside the lowering,
  never part of the timed path.  A runtime-registered workload may declare
  no ``vectorized_body`` at all; its cells simply execute on the scalar
  engine, and the batch-level entry point in
  :class:`~repro.experiments.backends.VectorizedBackend` mixes the paths
  per cell.

A lowering builds one operation per *distinct* dispatch and repeats that
object at every position it occupies — ``(op,) * repeats`` for a
repetition grid, one op per (thread-count, kernel) repeated ``ntimes`` for
a CPU STREAM sweep.  :func:`evaluate_sequences` computes everything that
depends only on the op once per distinct object (per sequence thermal
model) and gathers it back to positions; noise keys and counters still
advance per position, so sharing an object never changes a byte.  A
sequence that repeats one op (or equal copies of it) is handled per
sequence, never per position: one slot, one sigma and one
``noise_entropies`` call on its repeated key.  The clock runs column-wise:
sequences of one length share one ``np.cumsum``, whose strictly
left-to-right adds are the scalar clock's own, and each assembler reads
its rows with array expressions instead of per-window Python tuples.
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

__all__ = [
    "LoweredSequence",
    "VectorContext",
    "vector_context",
    "run_lowered_sequence",
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
class LoweredSequence:
    """One experiment cell lowered to an ordered operation sequence.

    Every cell executes its operations on one cumulative machine clock: a
    repetition grid (SpMV, stencil, batched GEMM, a GEMM cell) repeats one
    op, ``(op,) * repeats``; a protocol (a STREAM thread sweep, the
    powered-GEMM measurement loop) orders *heterogeneous* ones.  ``ops``
    are the very :class:`~repro.sim.engine.Operation` objects the scalar
    executors run.  ``assemble`` is called as ``assemble(starts, ends)``
    with two 1-D float64 arrays of ``len(ops)`` entries — each op's clock
    start and end, the exact floats the scalar clock would produce — and
    rebuilds the workload's result record, replaying any executor-side
    arithmetic (nanosecond rounding or truncation, bandwidth division,
    powermetrics formatting) on top of them.  The rows may be views into a
    batch-wide array: read them, never write them.

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
    computes it once, and a tuple of one repeated op costs it one slot and
    one noise call however long it is.
    """

    seed: int
    thermal: ThermalModel
    ops: tuple[Operation, ...]
    assemble: Callable[[np.ndarray, np.ndarray], Any]
    pre_advance_s: float = 0.0

    def __post_init__(self) -> None:
        ops = self.ops
        if not ops:
            raise ConfigurationError(
                "a lowered sequence needs at least one operation"
            )
        if self.pre_advance_s < 0.0:
            raise ConfigurationError("pre-advance must be non-negative")
        # a repetition grid's key is checked once, not once per position
        checked = ops[:1] if _repeats_one_op(ops) else ops
        if not all(map(operator.attrgetter("noise_key"), checked)):
            raise ConfigurationError(
                "lowered-sequence ops need explicit noise keys "
                "(content-addressed, never the chip/label fallback)"
            )


def _repeats_one_op(ops: tuple[Operation, ...]) -> bool:
    """Whether every position holds the first op, or an equal copy of it.

    One C-level tuple comparison: identical objects compare without
    ``__eq__``, and a tuple of distinct dispatches stops at its first
    unequal op.  Equal ops evaluate alike, so either way the sequence needs
    one slot.
    """
    return ops == (ops[0],) * len(ops)


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


def run_lowered_sequence(machine: Machine, sequence: LoweredSequence) -> Any:
    """Execute one lowered sequence on the scalar engine (the reference path).

    The workload executors run through here, so the scalar and vectorized
    paths consume the very same lowering: the pre-advance becomes a real
    ``machine.sleep`` before each op, each op a real ``machine.execute``,
    and ``assemble`` sees the genuine clock starts and ends.
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


def _validated_arrays(ops: Sequence[Operation]) -> dict[str, np.ndarray]:
    """Stack the per-op roofline parameters, with scalar-parity validation.

    A misbehaving third-party lowering fails with the same
    :class:`ConfigurationError` *messages*
    :func:`~repro.sim.roofline.roofline_time` raises.  Note the checks run
    check-major over the whole batch (not op-major), so when several ops
    are invalid in different ways, *which* message surfaces first may
    differ from serial execution — but an invalid batch never evaluates
    under either engine.
    """
    n = len(ops)
    arr = {
        "flops": np.fromiter((c.cost.flops for c in ops), np.float64, n),
        "total_bytes": np.fromiter(
            (c.cost.total_bytes for c in ops), np.float64, n
        ),
        "peak_flops": np.fromiter((c.peak_flops for c in ops), np.float64, n),
        "peak_bytes": np.fromiter(
            (c.peak_bytes_per_s for c in ops), np.float64, n
        ),
        "ceff": np.fromiter(
            (c.compute_efficiency for c in ops), np.float64, n
        ),
        "meff": np.fromiter((c.memory_efficiency for c in ops), np.float64, n),
        "overhead": np.fromiter((c.overhead_s for c in ops), np.float64, n),
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


def _apply_noise(
    durations: np.ndarray,
    sequences: Sequence[LoweredSequence],
    order: Sequence[int],
    rows: "Sequence[int | list[int]]",
    entries: np.ndarray,
    spans: np.ndarray,
    table: Sequence[Operation],
    default_sigma: float,
) -> None:
    """Multiply the batch's noise factors into ``durations``, in place.

    ``durations`` holds the sequences' positions in ``order``; entry ``e``
    of ``entries`` is the slot of ``spans[e]`` consecutive positions.  Each
    sequence applies the draw rule to the keys of its active ops (every op
    is keyed, see :class:`LoweredSequence`), a one-op sequence (an int row)
    through one ``noise_entropies`` call on its repeated key; an op whose
    sigma resolves to 0 keeps a factor of exactly 1.0 and is neither hashed
    nor drawn.  The per-position sigma, active and gain arrays live only
    inside this call, and only when some slot needs them.
    """
    slot_sigmas = [resolve_sigma(default_sigma, op.noise_sigma) for op in table]
    if not any(slot_sigmas):
        return
    keys = [op.noise_key for op in table]
    per_sequence = []
    for i in order:
        row, seed = rows[i], sequences[i].seed
        if type(row) is not int:
            active_keys = [keys[slot] for slot in row if slot_sigmas[slot]]
            if active_keys:
                per_sequence.append(noise_entropies(seed, active_keys))
        elif slot_sigmas[row]:
            repeats = len(sequences[i].ops)
            per_sequence.append(noise_entropies(seed, [keys[row]] * repeats))
    states = np.concatenate(per_sequence)
    del per_sequence
    sigmas = np.repeat(np.asarray(slot_sigmas)[entries], spans)
    active = None if all(slot_sigmas) else np.flatnonzero(sigmas)
    if active is not None:
        sigmas = sigmas[active]
    gains = None
    slot_gains = [op.noise_gain for op in table]
    if any(gain != 1.0 for gain in slot_gains):
        gains = np.repeat(np.asarray(slot_gains)[entries], spans)
        if active is not None:
            gains = gains[active]
    factors = lognormal_factors(states, sigmas, gains)
    if active is None:
        durations *= factors
    else:
        durations[active] *= factors


def evaluate_sequences(
    sequences: Sequence[LoweredSequence], *, default_sigma: float = 0.015
) -> list[Any]:
    """Evaluate a batch of lowered sequences in bulk, byte-identical to scalar.

    ``default_sigma`` is the session noise level a fresh machine would have
    been constructed with; ``0.0`` disables jitter globally, exactly like
    ``Machine(..., noise_sigma=0.0)``.

    One pass maps each op object, by identity, to a slot of a table kept in
    first-appearance order — one slot per distinct (op, sequence thermal
    model) pair, so an ops tuple shared by sequences with different thermal
    models still stretches under each model; validation, the roofline and
    the thermal stretch run once per slot.  A sequence that repeats one op
    (or equal copies) is one slot with no Python pass over its positions.
    Noise follows :func:`_apply_noise`, the clock one ``np.cumsum`` per
    clock shape, and every ``assemble`` receives its ops' exact clock start
    and end rows.  Returns one result record per sequence, in input order.
    """
    if not sequences:
        return []
    table: list[Operation] = []
    table_thermals: list[ThermalModel] = []
    slot_maps: dict[int, dict[int, int]] = {}  # id(model) -> id(op) -> slot
    # per sequence: the slot of its one op (an int), or one slot per position
    rows: list[int | list[int]] = []
    # the sequences of one clock shape: length, and whether a pre-advance
    # interleaves
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, sequence in enumerate(sequences):
        thermal = sequence.thermal
        slot_of = slot_maps.setdefault(id(thermal), {})
        ops = sequence.ops
        if _repeats_one_op(ops):
            op = ops[0]
            slot = slot_of.get(id(op))
            if slot is None:
                slot = slot_of[id(op)] = len(table)
                table.append(op)
                table_thermals.append(thermal)
            rows.append(slot)
        else:
            ids = list(map(id, ops))
            # the sequence's distinct ops, in first-appearance order
            for key, op in dict(zip(ids, ops)).items():
                if key not in slot_of:
                    slot_of[key] = len(table)
                    table.append(op)
                    table_thermals.append(thermal)
            rows.append(list(map(slot_of.__getitem__, ids)))
        groups.setdefault((len(ops), sequence.pre_advance_s != 0.0), []).append(i)

    # Roofline and thermal stretch, per slot.
    base = _roofline_s(_validated_arrays(table))
    thermal_memo: dict[tuple[int, float], float] = {}
    base *= np.fromiter(
        (
            _stretch_factor(thermal_memo, thermal, op.power_draws_w)
            for op, thermal in zip(table, table_thermals)
        ),
        np.float64,
        len(table),
    )

    # Positions are laid out group-major, in input order within a group, so
    # each group's durations are one reshaped block.  An entry is a slot and
    # the run of positions it covers (a one-op sequence is one entry), and
    # per-entry values repeat over their spans: no per-position slot array
    # is built.
    order = list(itertools.chain.from_iterable(groups.values()))
    entries: list[int] = []
    spans: list[int] = []
    for i in order:
        row = rows[i]
        if type(row) is int:
            entries.append(row)
            spans.append(len(sequences[i].ops))
        else:
            entries += row
            spans += [1] * len(row)
    entry_slots = np.array(entries, dtype=np.intp)
    entry_spans = np.array(spans, dtype=np.intp)
    del entries, spans
    durations = np.repeat(base[entry_slots], entry_spans)
    _apply_noise(
        durations, sequences, order, rows, entry_slots, entry_spans, table,
        default_sigma,
    )

    # Virtual clock, one cumsum per group.  Without a pre-advance a group's
    # clock is one (members, L + 1) array [0, d1, d2, ...], whose column
    # views are the starts and ends; with one it interleaves
    # [pre, d1, pre, d2, ...].  add.accumulate adds strictly left to right,
    # so every start is the scalar clock's ``clock + pre`` and every end its
    # ``start + d``, in the scalar order.  Assembly then runs in input
    # order, so a batch with several failing cells raises the first one's
    # error.
    # two lists of row views, not a tuple per sequence: fewer objects for
    # the collector to track in a large batch
    start_rows: list[Any] = [None] * len(sequences)
    end_rows: list[Any] = [None] * len(sequences)
    offset = 0
    for (length, pre_advanced), members in groups.items():
        m = len(members)
        block = durations[offset : offset + m * length].reshape(m, length)
        offset += m * length
        if pre_advanced:
            clock = np.empty((m, 2 * length))
            clock[:, 0::2] = np.fromiter(
                (sequences[i].pre_advance_s for i in members), np.float64, m
            )[:, None]
            clock[:, 1::2] = block
            np.cumsum(clock, axis=1, out=clock)
            starts, ends = clock[:, 0::2], clock[:, 1::2]
        else:
            clock = np.empty((m, length + 1))
            clock[:, 0] = 0.0
            clock[:, 1:] = block
            np.cumsum(clock, axis=1, out=clock)
            starts, ends = clock[:, :-1], clock[:, 1:]
        for i, start_row, end_row in zip(members, starts, ends):
            start_rows[i] = start_row
            end_rows[i] = end_row
    del durations, block  # the clocks hold copies: free the column early
    return [
        sequence.assemble(start_row, end_row)
        for sequence, start_row, end_row in zip(sequences, start_rows, end_rows)
    ]


# perfbench's replay still imports these two names; no lowering builds a LoweredCell.
class LoweredCell:
    pass


evaluate_cells = evaluate_sequences
