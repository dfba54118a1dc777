"""The protocol lowerings against the Table-2 and STREAM protocol drivers.

GEMM, powered-GEMM and STREAM cells execute from their workload's lowering
on every backend, so the cross-backend suites compare the lowering with
itself.  The lowerings and the executing classes share their dispatch
operations (the builders in :mod:`repro.calibration`), so this suite pins
what the lowering replays on its own: the protocol.  Its reference is the
protocol drivers — the Table-2 implementation objects timed with
``measure_ns``, the powermetrics protocol of ``measure_gemm_power``, and
the ``CpuStreamBenchmark`` / ``GpuStreamBenchmark`` classes (repetition
order, clock windows, the thread sweep's maximum selection), each on a
fresh noisy machine.  The op values themselves are pinned by
``tests/golden/protocol_envelopes.jsonl``.  It also pins the contract that
every built-in lowering accepts every cell under every numerics profile.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.calibration import paper
from repro.core.gemm.base import GemmProblem
from repro.core.gemm.registry import (
    get_implementation,
    implementation_keys,
    paper_implementation_keys,
)
from repro.core.gemm.verify import verify_result
from repro.core.power.harness import measure_gemm_power
from repro.core.stream.cpu import CpuStreamBenchmark
from repro.core.stream.gpu import GpuStreamBenchmark
from repro.core.timer import measure_ns
from repro.errors import ValidationError
from repro.experiments import (
    GemmSpec,
    PoweredGemmSpec,
    StreamSpec,
    run_gemm_spec,
    run_powered_gemm_spec,
    run_stream_spec,
)
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig, NumericsPolicy
from repro.sim.vectorized import vector_context
from repro.soc.catalog import get_chip
from repro.soc.device import device_for_chip
from repro.workloads import get_workload

SEED = 3
BUILTIN_KINDS = ("gemm", "powered-gemm", "stream", "spmv", "stencil", "batched-gemm")
PROFILES = {
    "full": NumericsConfig.full(),
    "sampled": NumericsConfig.sampled(),
    "model-only": NumericsConfig.model_only(),
}


def fresh(chip: str, numerics: str = "model-only") -> Machine:
    """A fresh machine with the study's default noise."""
    return Machine.for_chip(chip, seed=SEED, numerics=PROFILES[numerics])


def prepared(machine: Machine, impl_key: str, n: int):
    impl = get_implementation(impl_key)
    fill = machine.numerics.policy is not NumericsPolicy.MODEL_ONLY
    problem = GemmProblem.generate(n, seed=SEED, fill_random=fill)
    return impl, problem, impl.prepare(machine, problem)


@pytest.mark.parametrize("chip", paper.CHIPS)
@pytest.mark.parametrize("impl_key", implementation_keys())
@pytest.mark.parametrize("n", (64, 256, 2048))
def test_gemm_matches_table2_classes(chip, impl_key, n):
    spec = GemmSpec(chip=chip, seed=SEED, impl_key=impl_key, n=n, repeats=5)
    machine = fresh(chip)
    impl, problem, context = prepared(machine, impl_key, n)
    assert impl.supports(machine, n)
    expected = tuple(
        measure_ns(machine, lambda: impl.execute(machine, problem, context))
        for _ in range(spec.repeats)
    )
    result = run_gemm_spec(fresh(chip), spec)
    assert result.elapsed_ns == expected
    assert result.verified is None


@pytest.mark.parametrize("chip", paper.CHIPS)
@pytest.mark.parametrize("impl_key", paper_implementation_keys())
@pytest.mark.parametrize("n", (2048, 4096))
def test_powered_gemm_matches_power_protocol(chip, impl_key, n):
    spec = PoweredGemmSpec(chip=chip, seed=SEED, impl_key=impl_key, n=n, repeats=5)
    machine = fresh(chip)
    impl, problem, context = prepared(machine, impl_key, n)
    expected = tuple(
        measure_gemm_power(machine, impl, problem, context)
        for _ in range(spec.repeats)
    )
    result = run_powered_gemm_spec(fresh(chip), spec)
    assert result.measurements == expected
    assert result.gemm.elapsed_ns == tuple(
        max(1, int(m.elapsed_ms * 1e6)) for m in expected
    )


@pytest.mark.parametrize("chip", paper.CHIPS)
@pytest.mark.parametrize("target", ("cpu", "gpu"))
@pytest.mark.parametrize("n_elements", (1 << 14, 1 << 16))
@pytest.mark.parametrize("repeats", (1, 3))
def test_stream_matches_benchmark_classes(chip, target, n_elements, repeats):
    machine = fresh(chip)
    if target == "cpu":
        expected = CpuStreamBenchmark(
            machine, n_elements=n_elements, ntimes=repeats
        ).run_sweep()
    else:
        expected = GpuStreamBenchmark(
            machine, n_elements=n_elements, ntimes=repeats
        ).run()
    spec = StreamSpec(
        chip=chip, seed=SEED, target=target, n_elements=n_elements, repeats=repeats
    )
    assert run_stream_spec(fresh(chip), spec) == expected


@pytest.mark.parametrize("impl_key", implementation_keys())
def test_verified_matches_reference_verification(impl_key):
    machine = fresh("M2", "sampled")
    impl, problem, context = prepared(machine, impl_key, 64)
    impl.execute(machine, problem, context)
    expected = verify_result(
        machine, problem, reduced_precision=(impl_key == "ane-fp16")
    )
    spec = GemmSpec(chip="M2", seed=SEED, impl_key=impl_key, n=64, repeats=2)
    assert run_gemm_spec(fresh("M2", "sampled"), spec).verified is expected


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_every_builtin_kind_lowers_under_every_profile(kind, profile):
    workload = get_workload(kind)
    spec = workload.sample_spec()
    context = vector_context(spec.chip, True, PROFILES[profile])
    assert workload.vectorized_body(context, spec) is not None


def test_numerics_checks_are_memoized_on_what_the_kernel_reads(monkeypatch):
    from repro.core.stream.gpu import GpuStreamBenchmark
    from repro.workloads import gemm, stream

    verified, validated = [], []
    real_verify, real_run = gemm.verify_result, GpuStreamBenchmark.run
    monkeypatch.setattr(
        gemm,
        "verify_result",
        lambda machine, problem, **kw: verified.append(machine.chip.name)
        or real_verify(machine, problem, **kw),
    )
    monkeypatch.setattr(
        GpuStreamBenchmark,
        "run",
        lambda bench: validated.append(bench.machine.chip.name) or real_run(bench),
    )
    monkeypatch.setattr(gemm, "_VERIFIED", {})
    monkeypatch.setattr(stream, "_VALIDATED", set())
    for chip in paper.CHIPS:
        for impl_key in ("gpu-mps", "cpu-omp"):
            spec = GemmSpec(chip=chip, seed=SEED, impl_key=impl_key, n=64, repeats=1)
            assert run_gemm_spec(fresh(chip, "sampled"), spec).verified is True
        spec = StreamSpec(chip=chip, target="gpu", n_elements=1 << 14, repeats=2)
        run_stream_spec(fresh(chip, "sampled"), spec)
    # gpu-mps reads no chip property; cpu-omp partitions rows by core count
    assert [get_chip(chip).total_cores for chip in paper.CHIPS] == [8, 8, 8, 10]
    assert verified == ["M1", "M1", "M4"]
    assert validated == ["M1"]
    # a failed check is never cached: each attempt verifies again
    spec = GemmSpec(chip="M1", seed=SEED, impl_key="gpu-mps", n=64, verify=True)
    for _ in range(2):
        with pytest.raises(ValidationError):
            run_gemm_spec(fresh("M1"), spec)
    assert verified == ["M1", "M1", "M4", "M1", "M1"]


def test_same_named_custom_chip_is_not_served_catalog_ops():
    # a custom machine may carry a modified chip under a catalog name; the
    # lowerings' per-shape caches must rebuild for it, in either order
    catalog = get_chip("M1")
    starved = dataclasses.replace(
        catalog, memory=dataclasses.replace(catalog.memory, bandwidth_gbs=1.0)
    )

    def machine(chip) -> Machine:
        return Machine(
            chip, device_for_chip("M1"), seed=SEED, numerics=PROFILES["model-only"]
        )

    gemm = GemmSpec(chip="M1", seed=SEED, impl_key="gpu-mps", n=2048, repeats=2)
    stream = StreamSpec(
        chip="M1", seed=SEED, target="gpu", n_elements=1 << 14, repeats=2
    )
    timings = []
    for chip in (catalog, starved, catalog):
        reference = machine(chip)
        impl, problem, context = prepared(reference, "gpu-mps", 2048)
        expected = tuple(
            measure_ns(reference, lambda: impl.execute(reference, problem, context))
            for _ in range(2)
        )
        assert run_gemm_spec(machine(chip), gemm).elapsed_ns == expected
        assert run_stream_spec(machine(chip), stream) == GpuStreamBenchmark(
            machine(chip), n_elements=1 << 14, ntimes=2
        ).run()
        timings.append(expected)
    assert timings[0] == timings[2] != timings[1]
