"""STREAM kernel semantics and stream.c-style validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stream.kernels import (
    KERNEL_ORDER,
    SCALAR,
    StreamArrays,
    expected_values,
    kernel_bytes_per_element,
    kernel_flops_per_element,
    validate_arrays,
)
from repro.errors import ConfigurationError, ValidationError


class TestAccounting:
    def test_bytes_per_element(self):
        # stream.c's accounting: 2 arrays for copy/scale, 3 for add/triad.
        assert kernel_bytes_per_element("copy", 8) == 16
        assert kernel_bytes_per_element("scale", 8) == 16
        assert kernel_bytes_per_element("add", 8) == 24
        assert kernel_bytes_per_element("triad", 8) == 24
        # the GPU (MSL) port's FP32 arrays
        assert kernel_bytes_per_element("copy", 4) * 100 == 800
        assert kernel_bytes_per_element("scale", 4) * 100 == 800
        assert kernel_bytes_per_element("add", 4) * 100 == 1200
        assert kernel_bytes_per_element("triad", 4) * 100 == 1200

    def test_flops_per_element(self):
        assert kernel_flops_per_element("copy") == 0
        assert kernel_flops_per_element("scale") == 1
        assert kernel_flops_per_element("add") == 1
        assert kernel_flops_per_element("triad") == 2

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            kernel_bytes_per_element("mul", 8)


class TestKernels:
    def test_initial_values(self):
        arrays = StreamArrays.allocate(16)
        assert (arrays.a == 1.0).all()
        assert (arrays.b == 2.0).all()
        assert (arrays.c == 0.0).all()

    def test_one_iteration_values(self):
        arrays = StreamArrays.allocate(8)
        arrays.run_iteration()
        exp_a, exp_b, exp_c = expected_values(1)
        assert (arrays.a == exp_a).all()
        assert (arrays.b == exp_b).all()
        assert (arrays.c == exp_c).all()

    def test_expected_values_first_iteration_by_hand(self):
        # copy: c=1; scale: b=3; add: c=1+3=4; triad: a=3+3*4=15.
        assert expected_values(1) == (15.0, 3.0, 4.0)

    @given(st.integers(min_value=0, max_value=6))
    def test_validation_passes_after_k_iterations_property(self, k):
        arrays = StreamArrays.allocate(32)
        for _ in range(k):
            arrays.run_iteration()
        validate_arrays(arrays, k)

    def test_validation_catches_wrong_iteration_count(self):
        arrays = StreamArrays.allocate(32)
        arrays.run_iteration()
        with pytest.raises(ValidationError):
            validate_arrays(arrays, 2)

    def test_validation_catches_corruption(self):
        arrays = StreamArrays.allocate(32)
        arrays.run_iteration()
        arrays.b[5] += 1.0
        with pytest.raises(ValidationError):
            validate_arrays(arrays, 1)

    def test_float32_arrays_supported(self):
        arrays = StreamArrays.allocate(16, np.float32)
        for _ in range(3):
            arrays.run_iteration()
        validate_arrays(arrays, 3, rtol=1e-5)

    def test_kernel_order(self):
        assert KERNEL_ORDER == ("copy", "scale", "add", "triad")
        assert SCALAR == 3.0

    def test_unknown_kernel_execution(self):
        with pytest.raises(ConfigurationError):
            StreamArrays.allocate(4).run_kernel("fma")

    def test_rejects_empty_allocation(self):
        with pytest.raises(ConfigurationError):
            StreamArrays.allocate(0)
