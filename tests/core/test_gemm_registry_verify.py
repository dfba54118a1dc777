"""Registry (Table 2) and verification helpers."""

import tracemalloc

import numpy as np
import pytest

from repro.calibration import paper
from repro.core.gemm.base import GemmProblem
from repro.core.gemm.registry import (
    all_implementations,
    get_implementation,
    implementation_keys,
    paper_implementation_keys,
    table2_rows,
)
from repro.core.gemm.verify import fp32_gemm_tolerance, verify_result
from repro.errors import UnknownImplementationError, ValidationError
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig

from tests.conftest import make_exact_machine, make_model_machine


class TestRegistry:
    def test_paper_keys_in_legend_order(self):
        assert paper_implementation_keys() == (
            "cpu-single",
            "cpu-omp",
            "cpu-accelerate",
            "gpu-naive",
            "gpu-cutlass",
            "gpu-mps",
        )

    def test_extensions_included_on_request(self):
        keys = implementation_keys(include_extensions=True)
        assert "ane-fp16" in keys and "gpu-fp64-emulated" in keys
        assert "ane-fp16" not in implementation_keys(include_extensions=False)

    def test_unknown_key(self):
        with pytest.raises(UnknownImplementationError):
            get_implementation("gpu-vulkan")

    def test_all_implementations_instantiates(self):
        impls = all_implementations(include_extensions=True)
        assert len(impls) == 8
        assert len({impl.key for impl in impls}) == 8

    def test_table2_matches_paper(self):
        """Our registry renders exactly the paper's Table 2 rows."""
        assert tuple(table2_rows()) == paper.PAPER_IMPLEMENTATIONS

    def test_metadata_fields(self):
        mps = get_implementation("gpu-mps")
        assert mps.display_name == "Metal Performance Shaders (MPS)"
        assert mps.framework == "Metal"
        assert mps.hardware == "GPU"
        assert mps.in_table2 and not mps.extension
        omp = get_implementation("cpu-omp")
        assert not omp.in_table2  # present in the text, absent from Table 2
        ane = get_implementation("ane-fp16")
        assert ane.extension


class TestVerify:
    def test_tolerance_grows_with_n(self):
        assert fp32_gemm_tolerance(16384) > fp32_gemm_tolerance(64)

    def test_detects_wrong_result(self):
        machine = make_exact_machine("M1")
        problem = GemmProblem.generate(32)
        problem.out[...] = problem.a @ problem.b
        problem.out[3, 7] += 1.0
        with pytest.raises(ValidationError):
            verify_result(machine, problem)

    def test_passes_correct_result(self):
        machine = make_exact_machine("M1")
        problem = GemmProblem.generate(32)
        problem.out[...] = problem.a @ problem.b
        assert verify_result(machine, problem)

    def test_sampled_mode_only_checks_sampled_rows(self):
        machine = Machine.for_chip(
            "M1",
            noise_sigma=0.0,
            numerics=NumericsConfig.sampled(full_threshold=8, sample_rows=2),
        )
        n = 64
        problem = GemmProblem.generate(n)
        rows = machine.numerics.sampled_row_indices(n)
        problem.out[rows, :] = (problem.a[rows, :] @ problem.b)
        # Rows outside the sample stay zero yet verification passes.
        assert verify_result(machine, problem)

    def test_sampled_mode_promotes_only_sampled_rows(self):
        machine = Machine.for_chip(
            "M1",
            noise_sigma=0.0,
            numerics=NumericsConfig.sampled(full_threshold=512),
        )
        n = 1024
        problem = GemmProblem.generate(n)
        rows = machine.numerics.sampled_row_indices(n)
        problem.out[rows, :] = problem.a[rows, :] @ problem.b
        tracemalloc.start()
        try:
            assert verify_result(machine, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # B is promoted to float64 whole (n^2 * 8 bytes); A only in the
        # sampled rows, so a whole float64 copy of A would exceed the bound.
        assert peak < 1.5 * n * n * 8

    def test_model_only_cannot_verify(self):
        machine = make_model_machine("M1")
        problem = GemmProblem.generate(32)
        with pytest.raises(ValidationError):
            verify_result(machine, problem)

    def test_reduced_precision_loosens_tolerance(self):
        machine = make_exact_machine("M1")
        problem = GemmProblem.generate(64)
        fp16_product = problem.a.astype(np.float16).astype(np.float32) @ problem.b
        problem.out[...] = fp16_product
        with pytest.raises(ValidationError):
            verify_result(machine, problem)  # fails FP32 tolerance
        assert verify_result(machine, problem, reduced_precision=True)


class TestProblem:
    def test_memory_length_page_padded(self):
        problem = GemmProblem.generate(48)  # 48*48*4 = 9216 < one page
        assert problem.memory_length == 16384

    def test_reset_output(self):
        problem = GemmProblem.generate(16)
        problem.out[...] = 5.0
        problem.reset_output()
        assert (problem.out == 0).all()

    def test_inputs_differ_between_matrices(self):
        problem = GemmProblem.generate(16, seed=0)
        assert not np.array_equal(problem.a, problem.b)

    def test_seeds_reproduce(self):
        p1 = GemmProblem.generate(16, seed=9)
        p2 = GemmProblem.generate(16, seed=9)
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.b, p2.b)
