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

* **Lowering** — a workload's ``lower_group`` hook (see
  :class:`~repro.workloads.base.Workload`) maps ``(machine-like, specs)``
  to a :class:`LoweredGroup`: cells of one clock shape (same kind, chip,
  numerics config, variant and repetition count), their op parameters
  and an ``assemble`` that turns the group's ``(m, L)`` clock-start and
  clock-end blocks back into ``m`` result records.  A repetition grid
  (SpMV, stencil, batched GEMM) gives its op parameters as arrays over its
  cells, an :class:`OpColumns`, each cell repeating its one op ``L`` times;
  GEMM, powered-GEMM and STREAM give each cell a row of the memoized
  :class:`~repro.sim.engine.Operation` tuples the dispatch builders in
  :mod:`repro.calibration` build for the executing classes too.  A group
  of one is a single cell: :func:`single_sequence` views it as a
  :class:`LoweredSequence`, and the scalar executor runs that view through
  :func:`run_lowered_sequence` — each op a real ``machine.execute`` — so
  the two paths consume one lowering and cannot drift.
* **Evaluation** — :func:`evaluate_groups` replicates the scalar engine's
  arithmetic over a batch of groups: roofline time and thermal stretch
  once per distinct op, noise by the :mod:`repro.sim.noise` rule with one
  :func:`~repro.sim.noise.noise_entropy` per (cell seed, key) plus the
  layout's shared counter offsets and one
  :func:`~repro.sim.noise.lognormal_factors` call per group (ops whose
  sigma resolves to 0 are neither hashed nor drawn), then the virtual
  clock's cumulative float adds.  Every step is the same IEEE-754 double
  operation the scalar path performs, so results are byte-identical, not
  merely close.  :func:`evaluate_sequences` evaluates per-cell views
  through the same engine, each sequence a cell of a group.
* **Fallback** — every built-in workload lowers every cell, under every
  numerics profile: numerics are a memoized check inside the lowering,
  never part of the timed path.  A runtime-registered workload may declare
  no ``lower_group`` at all; its cells simply execute on the scalar
  engine, and the batch-level entry point in
  :class:`~repro.experiments.backends.VectorizedBackend` mixes the paths
  per cell.

The clock runs column-wise: groups of one clock shape (a length, with or
without a pre-advance) stack their ``(m, L)`` blocks into one array and
share one ``np.cumsum``, whose strictly left-to-right adds are the scalar
clock's own; each group's ``assemble`` then reads its blocks with array
expressions, and the array is released before the next shape is built.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import EngineKind, Operation
from repro.sim.machine import Machine, MachineTemplate, machine_template
from repro.sim.noise import (
    draw_layout,
    layout_states,
    lognormal_factors,
    resolve_sigma,
)
from repro.sim.policy import NumericsConfig
from repro.sim.roofline import OpCost
from repro.soc.power import PowerComponent
from repro.soc.thermal import ThermalModel

__all__ = [
    "LoweredGroup",
    "LoweredSequence",
    "OpColumns",
    "VectorContext",
    "vector_context",
    "run_lowered_sequence",
    "single_sequence",
    "evaluate_groups",
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

    The per-cell view of a lowering (:func:`single_sequence`): the form the
    scalar engine runs (:func:`run_lowered_sequence`) and
    :func:`evaluate_sequences` accepts.  Every cell executes its operations
    on one cumulative machine clock: a repetition grid repeats one op,
    ``(op,) * repeats``; a protocol (a STREAM thread sweep, the powered-GEMM
    measurement loop) orders *heterogeneous* ones.  ``ops`` are the very
    :class:`~repro.sim.engine.Operation` objects the scalar executors run.
    ``assemble`` is called as ``assemble(starts, ends)`` with two 1-D
    float64 arrays of ``len(ops)`` entries — each op's clock start and end,
    the exact floats the scalar clock would produce — and rebuilds the
    workload's result record.  The rows may be views into a batch-wide
    array: read them, never write them.

    ``pre_advance_s`` models a ``machine.sleep`` the scalar executor
    performs before issuing *each* op (the powermetrics warm-up): it shifts
    the clock without consuming noise or recording power.

    Every op must carry an explicit noise key: the scalar engine would key
    a keyless op by chip and label, which the bulk engine never hashes, so
    such a sequence is rejected rather than left to diverge.
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
    unequal op.  Equal ops evaluate alike, so either way the row needs
    one slot.
    """
    return ops == (ops[0],) * len(ops)


@dataclasses.dataclass(frozen=True, eq=False)
class OpColumns:
    """The distinct ops of a repetition-grid group, as columns.

    Entry ``j`` of every array field is slot ``j``; a scalar field is shared
    by every slot, and ``power_draws_w`` is one mapping or one per slot.
    The slot count is ``len(noise_keys)``.  The evaluator reads the columns
    directly; :meth:`op` builds slot ``j``'s :class:`Operation` from the
    same values, with ``label(j)``, for the per-cell view.
    """

    engine: EngineKind
    label: Callable[[int], str]
    noise_keys: Sequence[str]
    flops: "float | np.ndarray"
    bytes_read: "float | np.ndarray"
    bytes_written: "float | np.ndarray"
    peak_flops: float
    peak_bytes_per_s: float
    compute_efficiency: "float | np.ndarray"
    memory_efficiency: "float | np.ndarray"
    overhead_s: "float | np.ndarray"
    power_draws_w: "Mapping[PowerComponent, float] | Sequence[Mapping[PowerComponent, float]]"
    noise_sigma: float | None = None
    noise_gain: float = 1.0

    def op(self, slot: int) -> Operation:
        """Slot ``slot`` as the :class:`Operation` the scalar engine runs."""

        def pick(value):
            return value[slot].item() if np.ndim(value) else value

        draws = self.power_draws_w

        return Operation(
            engine=self.engine,
            label=self.label(slot),
            cost=OpCost(
                flops=pick(self.flops),
                bytes_read=pick(self.bytes_read),
                bytes_written=pick(self.bytes_written),
            ),
            peak_flops=self.peak_flops,
            peak_bytes_per_s=self.peak_bytes_per_s,
            compute_efficiency=pick(self.compute_efficiency),
            memory_efficiency=pick(self.memory_efficiency),
            overhead_s=pick(self.overhead_s),
            power_draws_w=draws if isinstance(draws, Mapping) else draws[slot],
            noise_key=self.noise_keys[slot],
            noise_sigma=self.noise_sigma,
            noise_gain=self.noise_gain,
        )


@dataclasses.dataclass(frozen=True, eq=False)
class LoweredGroup:
    """Cells of one clock shape lowered together: ``m`` cells of ``length``
    dispatches each, every cell on its own cumulative clock.

    ``seeds`` holds one noise seed per cell.  ``ops`` is either an
    :class:`OpColumns` — cell ``i`` then repeats slot ``slots[i]`` at every
    position — or a sequence of op rows, tuples of ``length``
    :class:`Operation` objects, cell ``i`` following row ``slots[i]``.
    ``slots=None`` maps cell ``i`` to entry ``i``.  Rows should be the
    memoized tuples of the dispatch builders, each repeating one object
    per distinct dispatch: the evaluator maps ops by identity, computes
    each distinct op once and walks each distinct row once.

    ``assemble(starts, ends)`` receives two ``(m, length)`` float64 blocks
    — row ``i`` is cell ``i``'s clock starts and ends, the exact floats the
    scalar clock would produce — and returns the ``m`` result records in
    cell order.  The blocks are views into a batch-wide array: read them,
    never write them.  ``pre_advance_s`` is a sleep before *each* op (the
    powermetrics warm-up), as in :class:`LoweredSequence`, and a row group
    whose rows share one dispatch pattern may name it as ``layout``.
    """

    seeds: Sequence[int]
    thermal: ThermalModel
    ops: "OpColumns | Sequence[tuple[Operation, ...]]"
    length: int
    assemble: Callable[[np.ndarray, np.ndarray], Sequence[Any]]
    slots: "Sequence[int] | np.ndarray | None" = None
    pre_advance_s: float = 0.0
    #: Row groups only, optional: the position pattern every row follows,
    #: position ``p`` holding the row's ``layout[p]``-th distinct op object
    #: (numbered in first-appearance order), so the evaluator reads each
    #: row's distinct ops at their first positions instead of walking it.
    layout: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not len(self.seeds):
            raise ConfigurationError("a lowered group needs at least one cell")
        if self.length < 1:
            raise ConfigurationError(
                "a lowered sequence needs at least one operation"
            )
        if self.pre_advance_s < 0.0:
            raise ConfigurationError("pre-advance must be non-negative")
        if self.slots is not None and len(self.slots) != len(self.seeds):
            raise ConfigurationError("a lowered group needs one slot per cell")
        if not isinstance(self.ops, OpColumns) and any(
            len(row) != self.length for row in self.ops
        ):
            raise ConfigurationError(
                f"every op row of a lowered group holds {self.length} ops"
            )


def single_sequence(group: LoweredGroup) -> LoweredSequence:
    """A group of one cell as its :class:`LoweredSequence` (the per-cell view).

    A repetition grid's view repeats its slot's :meth:`OpColumns.op`; a
    row group's view holds the row itself.  ``assemble`` takes the cell's
    1-D rows and calls the group's on a ``(1, length)`` block.
    """
    if len(group.seeds) != 1:
        raise ConfigurationError("a per-cell view needs a group of one cell")
    entry = 0 if group.slots is None else int(group.slots[0])
    if isinstance(group.ops, OpColumns):
        ops = (group.ops.op(entry),) * group.length
    else:
        ops = group.ops[entry]
    assemble = group.assemble
    return LoweredSequence(
        seed=group.seeds[0],
        thermal=group.thermal,
        ops=ops,
        assemble=lambda starts, ends: assemble(starts[None], ends[None])[0],
        pre_advance_s=group.pre_advance_s,
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


#: The roofline parameters of a slot table, in :func:`_roofline_s` order.
_COLUMNS = (
    "flops", "total_bytes", "peak_flops", "peak_bytes", "ceff", "meff", "overhead",
)


def _validate(arr: dict[str, np.ndarray]) -> None:
    """Scalar-parity validation of a slot table's roofline parameters.

    A misbehaving third-party lowering fails with the same
    :class:`ConfigurationError` *messages*
    :func:`~repro.sim.roofline.roofline_time` raises.  The checks run
    check-major over the whole batch (not op-major), so when several ops
    are invalid in different ways, *which* message surfaces first may
    differ from serial execution — but an invalid batch never evaluates
    under either engine.
    """
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


def _roofline_s(arr: dict[str, np.ndarray]) -> np.ndarray:
    """Per-slot roofline time: the elementwise arithmetic of roofline_time()."""
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
    memo: dict[tuple[int, float], float], thermal: ThermalModel, requested: float
) -> float:
    """The thermal time stretch of one requested draw under one model, memoized.

    The very same :class:`ThermalModel` methods the scalar engine calls
    (``**`` stays CPython's pow), keyed on (model, requested draw): the
    methods are pure, and grids reuse a handful of draw patterns.
    Multiplying by exactly 1.0 is an IEEE identity, so applying the stretch
    unconditionally matches the scalar branch.
    """
    key = (id(thermal), requested)
    factor = memo.get(key)
    if factor is None:
        factor = memo[key] = (
            thermal.throttle_time_factor(requested)
            if thermal.clamp_factor(requested) < 1.0
            else 1.0
        )
    return factor


@dataclasses.dataclass(eq=False)
class _Plan:
    """One group as the evaluator walks it, in batch-wide slot ids.

    ``cell_slots`` (one slot per cell) when every cell repeats one op;
    otherwise ``rows`` (one slot per position of each distinct row) and
    ``cell_rows`` (each cell's row).  ``noisy`` when some slot draws.
    """

    cell_slots: list[int] | None = None
    rows: "list[list[int] | np.ndarray] | None" = None
    cell_rows: list[int] | None = None
    noisy: bool = False


class _Table:
    """The batch's slot table, filled group by group.

    Every :class:`OpColumns` group's arrays come first, in group order,
    then every row group's distinct op objects: one slot per distinct
    (op object, group), so an op shared by groups of different thermal
    models stretches under each.  Per slot it keeps the noise key, the
    resolved sigma, the gain and the thermal stretch; the roofline
    parameters are gathered once for the whole batch (:meth:`columns`).
    """

    def __init__(self, groups: Sequence[LoweredGroup], default_sigma: float) -> None:
        self.default_sigma = default_sigma
        self.arrays: dict[str, list] = {name: [] for name in _COLUMNS}
        self.ops: list[Operation] = []
        self.keys: list[str] = []
        self.sigmas: list[float] = []
        self.gains: list[float] = []
        self.stretch: list[float] = []
        self._op_thermals: list[ThermalModel] = []
        self._memo: dict[tuple[int, float], float] = {}
        #: id(layout) -> each distinct op's first position
        self._firsts: dict[int, list[int]] = {}
        self._columns = 0
        #: the first row-group slot: every column group's slots precede it
        self._first_op = sum(
            len(group.ops.noise_keys)
            for group in groups
            if isinstance(group.ops, OpColumns)
        )

    def plan(self, group: LoweredGroup) -> _Plan:
        """Add a group's slots; return its layout in table slot ids."""
        if isinstance(group.ops, OpColumns):
            return self._plan_columns(group)
        return self._plan_rows(group)

    def _plan_columns(self, group: LoweredGroup) -> _Plan:
        columns = group.ops
        size = len(columns.noise_keys)
        arrays = self.arrays
        arrays["flops"].append(_column(columns.flops, size))
        arrays["total_bytes"].append(
            _column(np.add(columns.bytes_read, columns.bytes_written), size)
        )
        arrays["peak_flops"].append(_column(columns.peak_flops, size))
        arrays["peak_bytes"].append(_column(columns.peak_bytes_per_s, size))
        arrays["ceff"].append(_column(columns.compute_efficiency, size))
        arrays["meff"].append(_column(columns.memory_efficiency, size))
        arrays["overhead"].append(_column(columns.overhead_s, size))
        sigma = resolve_sigma(self.default_sigma, columns.noise_sigma)
        self.keys += columns.noise_keys
        self.sigmas += [sigma] * size
        self.gains += [columns.noise_gain] * size
        draws = columns.power_draws_w
        thermal = group.thermal
        memo = self._memo
        if isinstance(draws, Mapping):
            self.stretch += [_stretch_factor(memo, thermal, sum(draws.values()))] * size
        else:
            self.stretch += [
                _stretch_factor(memo, thermal, sum(d.values())) for d in draws
            ]
        offset = self._columns
        self._columns += size
        slots = (
            range(offset, offset + len(group.seeds))
            if group.slots is None
            else (np.asarray(group.slots, dtype=np.intp) + offset).tolist()
        )
        return _Plan(cell_slots=list(slots), noisy=sigma != 0.0)

    def _plan_rows(self, group: LoweredGroup) -> _Plan:
        slot_of: dict[int, int] = {}  # id(op) -> slot, within this group
        fresh: list[Operation] = []  # the group's distinct ops, in order
        first = self._first_op + len(self.ops)
        # the distinct rows, by identity, in first-appearance order
        row_index: dict[int, int] = {}
        row_slots: list = []
        cell_rows: list[int] = []
        layout = group.layout
        firsts = None
        if layout is not None:
            firsts = self._firsts.get(id(layout))
            if firsts is None:
                firsts = np.unique(layout, return_index=True)[1].tolist()
                self._firsts[id(layout)] = firsts
        entries = range(len(group.seeds)) if group.slots is None else group.slots
        for entry in entries:
            row = group.ops[entry]
            r = row_index.get(id(row))
            if r is None:
                r = row_index[id(row)] = len(row_slots)
                if firsts is not None:
                    known = [row[p] for p in firsts]
                    if not any(id(op) in slot_of for op in known):
                        # a fresh row of the shared pattern: its distinct
                        # ops take consecutive slots in pattern order
                        start = first + len(fresh)
                        slot_of.update(
                            zip(map(id, known), range(start, start + len(known)))
                        )
                        fresh += known
                        row_slots.append(layout + start)
                        cell_rows.append(r)
                        continue
                ids = None if _repeats_one_op(row) else list(map(id, row))
                distinct = {id(row[0]): row[0]} if ids is None else dict(zip(ids, row))
                if slot_of:
                    distinct = {
                        key: op for key, op in distinct.items() if key not in slot_of
                    }
                start = first + len(fresh)
                slot_of.update(zip(distinct, range(start, start + len(distinct))))
                fresh += distinct.values()
                row_slots.append(
                    slot_of[id(row[0])]
                    if ids is None
                    else list(map(slot_of.__getitem__, ids))
                )
            cell_rows.append(r)

        self.ops += fresh
        self._op_thermals += [group.thermal] * len(fresh)
        default_sigma = self.default_sigma
        noisy = default_sigma != 0.0 and any(
            resolve_sigma(default_sigma, op.noise_sigma) for op in fresh
        )
        if all(type(s) is int for s in row_slots):
            return _Plan(cell_slots=[row_slots[r] for r in cell_rows], noisy=noisy)
        # a row that repeats one op becomes a constant row of its slot
        length = group.length
        return _Plan(
            rows=[[s] * length if type(s) is int else s for s in row_slots],
            cell_rows=cell_rows,
            noisy=noisy,
        )

    def columns(self) -> dict[str, np.ndarray]:
        """Every slot's roofline parameters; closes the per-slot lists."""
        ops = self.ops
        count = len(ops)
        gathered = {
            "flops": (op.cost.flops for op in ops),
            "total_bytes": (op.cost.total_bytes for op in ops),
            "peak_flops": (op.peak_flops for op in ops),
            "peak_bytes": (op.peak_bytes_per_s for op in ops),
            "ceff": (op.compute_efficiency for op in ops),
            "meff": (op.memory_efficiency for op in ops),
            "overhead": (op.overhead_s for op in ops),
        }
        default_sigma, memo = self.default_sigma, self._memo
        self.keys += [op.noise_key for op in ops]
        self.sigmas += (
            [resolve_sigma(default_sigma, op.noise_sigma) for op in ops]
            if default_sigma
            else [0.0] * count
        )
        self.gains += [op.noise_gain for op in ops]
        self.stretch += [
            _stretch_factor(memo, thermal, sum(op.power_draws_w.values()))
            for op, thermal in zip(ops, self._op_thermals)
        ]
        if not all(self.keys):
            raise ConfigurationError(
                "lowered-sequence ops need explicit noise keys "
                "(content-addressed, never the chip/label fallback)"
            )
        return {
            name: np.concatenate(
                [*self.arrays[name], np.fromiter(values, np.float64, count)]
            )
            for name, values in gathered.items()
        }


def _column(value: Any, size: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (size,))


def _draw_noise(
    plan: _Plan,
    seeds: Sequence[int],
    length: int,
    block: np.ndarray,
    keys: Sequence[str],
    sigmas: np.ndarray,
    gains: np.ndarray,
) -> None:
    """Multiply a group's noise factors into its ``(m, length)`` block.

    The rule of :mod:`repro.sim.noise`, cell by cell: a cell that repeats
    one op draws counters 0..length-1 of its key; a row's cells draw its
    active positions' keys in order.  Each cell hashes each of its keys
    once (:func:`~repro.sim.noise.layout_states`) over a layout computed
    once per group or row (:func:`~repro.sim.noise.draw_layout`), and the
    group draws every factor in one :func:`lognormal_factors` call.  An op
    whose sigma resolves to 0 keeps a factor of exactly 1.0 and is neither
    hashed nor drawn.  ``keys``, ``sigmas`` and ``gains`` are the batch
    table's, per slot.
    """
    # per piece: its states, sigmas and gains, and where its factors go
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, Any]] = []
    if plan.cell_slots is not None:
        slots = np.array(plan.cell_slots, dtype=np.intp)
        cell_sigmas = sigmas[slots]
        target: Any = None
        if not cell_sigmas.all():
            target = np.flatnonzero(cell_sigmas)
            if not len(target):
                return
            slots, cell_sigmas = slots[target], cell_sigmas[target]
            seeds = [seeds[i] for i in target.tolist()]
        cell_keys = [[keys[s]] for s in slots.tolist()]
        _, index, offsets = draw_layout(cell_keys[0] * length)
        pieces.append(
            (
                layout_states(seeds, cell_keys, index, offsets),
                np.repeat(cell_sigmas, length),
                np.repeat(gains[slots], length),
                target,
            )
        )
    else:
        cell_rows = np.array(plan.cell_rows, dtype=np.intp)
        for r, row in enumerate(plan.rows):
            positions = np.array(row, dtype=np.intp)
            cells = np.flatnonzero(cell_rows == r)
            position_sigmas = sigmas[positions]
            active = np.flatnonzero(position_sigmas)
            if not len(active):
                continue
            distinct, index, offsets = draw_layout(
                [keys[s] for s in positions[active].tolist()]
            )
            count = len(cells)
            pieces.append(
                (
                    layout_states(
                        [seeds[i] for i in cells.tolist()],
                        [distinct] * count,
                        index,
                        offsets,
                    ),
                    np.tile(position_sigmas[active], count),
                    np.tile(gains[positions[active]], count),
                    np.ix_(cells, active),
                )
            )
    if not pieces:
        return
    piece_gains = np.concatenate([piece[2] for piece in pieces])
    factors = lognormal_factors(
        np.concatenate([piece[0].ravel() for piece in pieces]),
        np.concatenate([piece[1] for piece in pieces]),
        piece_gains if (piece_gains != 1.0).any() else None,
    )
    del piece_gains
    offset = 0
    for states, _, _, target in pieces:
        piece = factors[offset : offset + states.size].reshape(states.shape)
        offset += states.size
        if target is None:
            block *= piece
        else:
            block[target] *= piece


def evaluate_groups(
    groups: Sequence[LoweredGroup], *, default_sigma: float = 0.015
) -> list[Sequence[Any]]:
    """Evaluate a batch of lowered groups in bulk, byte-identical to scalar.

    ``default_sigma`` is the session noise level a fresh machine would have
    been constructed with; ``0.0`` disables jitter globally, exactly like
    ``Machine(..., noise_sigma=0.0)``.  Returns, per group, its ``m``
    result records in cell order.

    Every group's slots join one table (:class:`_Table`), so validation
    and the roofline run once per batch, over one entry per distinct op of
    each group, and the thermal stretch once per (group thermal model,
    requested draw).  Groups of one clock shape then stack their cells
    into one clock array, filled with their slots' durations in one
    gather; each noisy group multiplies its noise in (:func:`_draw_noise`),
    one ``np.cumsum`` runs every clock of the shape, and each group's
    ``assemble`` reads its start and end blocks.  Without a pre-advance a
    clock row is ``[0, d1, d2, ...]`` and its column views are the starts
    and ends; with one it interleaves ``[pre, d1, pre, d2, ...]``.
    ``add.accumulate`` adds strictly left to right, so every start is the
    scalar clock's ``clock + pre`` and every end its ``start + d``, in the
    scalar order.  Each shape's array is released before the next one is
    built.
    """
    if not groups:
        return []
    table = _Table(groups, default_sigma)
    plans = [table.plan(group) for group in groups]
    columns = table.columns()
    _validate(columns)
    base = _roofline_s(columns)
    del columns
    base *= np.array(table.stretch)
    sigmas = np.array(table.sigmas)
    gains = np.array(table.gains)

    shapes: dict[tuple[int, bool], list[int]] = {}
    for g, group in enumerate(groups):
        shapes.setdefault((group.length, group.pre_advance_s != 0.0), []).append(g)
    results: list[Sequence[Any]] = [()] * len(groups)
    for (length, pre_advanced), members in shapes.items():
        counts = [len(groups[g].seeds) for g in members]
        if pre_advanced:
            clock = np.empty((sum(counts), 2 * length))
            clock[:, 0::2] = np.repeat(
                [groups[g].pre_advance_s for g in members], counts
            )[:, None]
            durations = clock[:, 1::2]
        else:
            clock = np.empty((sum(counts), length + 1))
            clock[:, 0] = 0.0
            durations = clock[:, 1:]
        # two gathers fill the shape: one slot per cell that repeats one
        # op (a row cell takes slot 0 there), one slot per position of
        # every row cell
        index: list[int] = []
        row_cells: list[int] = []
        row_positions: list[list[int]] = []
        spans: list[tuple[int, int, int]] = []
        row = 0
        for g, count in zip(members, counts):
            plan = plans[g]
            if plan.rows is None:
                index += plan.cell_slots
            else:
                index += [0] * count
                row_cells += range(row, row + count)
                row_positions += [plan.rows[r] for r in plan.cell_rows]
            spans.append((g, row, row + count))
            row += count
        durations[...] = base[index][:, None]
        if row_cells:
            durations[row_cells] = base[np.array(row_positions, dtype=np.intp)]
        del index, row_cells, row_positions
        for g, lo, hi in spans:
            if plans[g].noisy:
                _draw_noise(
                    plans[g], groups[g].seeds, length, durations[lo:hi],
                    table.keys, sigmas, gains,
                )
        del durations
        np.cumsum(clock, axis=1, out=clock)
        for g, lo, hi in spans:
            if pre_advanced:
                starts, ends = clock[lo:hi, 0::2], clock[lo:hi, 1::2]
            else:
                starts, ends = clock[lo:hi, :-1], clock[lo:hi, 1:]
            got = groups[g].assemble(starts, ends)
            if len(got) != hi - lo:
                raise ConfigurationError(
                    f"a group of {hi - lo} cells assembled {len(got)} results"
                )
            results[g] = got
        del clock, starts, ends
    return results


def _assemble_each(
    sequences: Sequence[LoweredSequence], starts: np.ndarray, ends: np.ndarray
) -> list[Any]:
    return [
        sequence.assemble(start_row, end_row)
        for sequence, start_row, end_row in zip(sequences, starts, ends)
    ]


def evaluate_sequences(
    sequences: Sequence[LoweredSequence], *, default_sigma: float = 0.015
) -> list[Any]:
    """Evaluate per-cell views in bulk, through :func:`evaluate_groups`.

    Sequences that share a thermal model, a length and a pre-advance are
    the cells of one row group, each its own row (shared ops tuples are
    walked once); each sequence's ``assemble`` receives its own 1-D start
    and end rows.  Returns one result record per sequence, in input order.
    """
    members: dict[tuple, list[int]] = {}
    for i, sequence in enumerate(sequences):
        key = (id(sequence.thermal), len(sequence.ops), sequence.pre_advance_s)
        members.setdefault(key, []).append(i)
    groups = []
    for indices in members.values():
        cells = [sequences[i] for i in indices]
        groups.append(
            LoweredGroup(
                seeds=[cell.seed for cell in cells],
                thermal=cells[0].thermal,
                ops=[cell.ops for cell in cells],
                length=len(cells[0].ops),
                assemble=functools.partial(_assemble_each, cells),
                pre_advance_s=cells[0].pre_advance_s,
            )
        )
    results: list[Any] = [None] * len(sequences)
    evaluated = evaluate_groups(groups, default_sigma=default_sigma)
    for indices, got in zip(members.values(), evaluated):
        for i, result in zip(indices, got):
            results[i] = result
    return results


# perfbench's replay still imports these two names; no lowering builds a LoweredCell.
class LoweredCell:
    pass


evaluate_cells = evaluate_sequences
