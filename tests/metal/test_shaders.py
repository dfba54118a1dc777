"""Shader kernels: numerics correctness and dispatch semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metal import (
    DispatchError,
    MTLCreateSystemDefaultDevice,
    MTLSize,
)
from repro.metal.shaders import ShaderContext, registered_shaders, shader_by_name
from repro.metal.shaders._gemm_common import threadgroup_tiles
from repro.metal.shaders.gemm_fp64_emulated import (
    double_float_matmul,
    merge_float_pair,
    split_to_float_pair,
)
from repro.metal.shaders.gemm_tiled import K_TILE, _k_tiled_product

from tests.conftest import make_exact_machine


@pytest.fixture
def device():
    return MTLCreateSystemDefaultDevice(make_exact_machine("M3"))


def run_gemm_shader(device, name, n, a, b):
    lib = device.new_default_library()
    pso = device.new_compute_pipeline_state_with_function(
        lib.new_function_with_name(name)
    )
    buf_a = device.new_buffer_with_bytes(a)
    buf_b = device.new_buffer_with_bytes(b)
    buf_c = device.new_buffer_with_length(n * n * 4)
    cb = device.new_command_queue().command_buffer()
    enc = cb.compute_command_encoder()
    enc.set_compute_pipeline_state(pso)
    enc.set_buffer(buf_a, 0, 0)
    enc.set_buffer(buf_b, 0, 1)
    enc.set_buffer(buf_c, 0, 2)
    enc.set_bytes(np.uint32(n), 3)
    groups = (n + 7) // 8
    enc.dispatch_threadgroups(MTLSize(groups, groups), MTLSize(8, 8))
    enc.end_encoding()
    cb.commit()
    cb.wait_until_completed()
    return buf_c.as_array(np.float32, (n, n)).copy()


class TestRegistry:
    def test_all_builtin_shaders_registered(self):
        names = registered_shaders()
        assert set(names) >= {
            "gemm_naive",
            "gemm_tiled",
            "gemm_fp64_emulated",
            "stream_copy",
            "stream_scale",
            "stream_add",
            "stream_triad",
        }

    def test_impl_keys(self):
        assert shader_by_name("gemm_naive").impl_key == "gpu-naive"
        assert shader_by_name("gemm_tiled").impl_key == "gpu-cutlass"
        assert shader_by_name("stream_triad").impl_key == "gpu-stream-triad"


class TestGemmShaders:
    @pytest.mark.parametrize("name", ["gemm_naive", "gemm_tiled"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 96])
    def test_matches_numpy(self, device, name, n):
        rng = np.random.default_rng(n)
        a = rng.random((n, n), dtype=np.float32)
        b = rng.random((n, n), dtype=np.float32)
        out = run_gemm_shader(device, name, n, a, b)
        np.testing.assert_allclose(out, a @ b, rtol=1e-4)

    def test_naive_and_tiled_agree(self, device):
        rng = np.random.default_rng(5)
        n = 48
        a = rng.random((n, n), dtype=np.float32)
        b = rng.random((n, n), dtype=np.float32)
        naive = run_gemm_shader(device, "gemm_naive", n, a, b)
        tiled = run_gemm_shader(device, "gemm_tiled", n, a, b)
        np.testing.assert_allclose(naive, tiled, rtol=1e-4)

    def test_undersized_grid_rejected(self, device):
        n = 64
        a = np.zeros((n, n), dtype=np.float32)
        lib = device.new_default_library()
        pso = device.new_compute_pipeline_state_with_function(
            lib.new_function_with_name("gemm_naive")
        )
        buf = device.new_buffer_with_bytes(a)
        cb = device.new_command_queue().command_buffer()
        enc = cb.compute_command_encoder()
        enc.set_compute_pipeline_state(pso)
        for i in range(3):
            enc.set_buffer(buf, 0, i)
        enc.set_bytes(np.uint32(n), 3)
        enc.dispatch_threadgroups(MTLSize(2, 2), MTLSize(8, 8))  # 16x16 < 64
        enc.end_encoding()
        with pytest.raises(DispatchError):
            cb.commit()

    def test_k_tiled_product_matches_reference(self):
        rng = np.random.default_rng(0)
        a = rng.random((40, 70), dtype=np.float32)
        b = rng.random((70, 40), dtype=np.float32)
        np.testing.assert_allclose(_k_tiled_product(a, b), a @ b, rtol=1e-4)
        assert K_TILE > 0

    def test_timing_accounted_to_gpu(self, device):
        machine = device.machine
        n = 16
        a = np.zeros((n, n), dtype=np.float32)
        run_gemm_shader(device, "gemm_naive", n, a, a)
        gpu_events = machine.trace.events(engine="gpu")
        assert any("gemm_naive" in e.label for e in gpu_events)


class TestThreadgroupTiles:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 96),
        gw=st.integers(1, 16),
        gh=st.integers(1, 16),
        tw=st.integers(1, 16),
        th=st.integers(1, 16),
    )
    def test_tiles_partition_output_property(self, n, gw, gh, tw, th):
        """If the grid covers the matrix, the tiles partition it exactly."""
        if gw * tw < n or gh * th < n:
            return  # undersized grids are rejected elsewhere
        machine = make_exact_machine("M1")
        device = MTLCreateSystemDefaultDevice(machine)
        ctx = ShaderContext(
            device=device,
            buffers={},
            constants={},
            threadgroups_per_grid=MTLSize(gw, gh),
            threads_per_threadgroup=MTLSize(tw, th),
        )
        covered = np.zeros((n, n), dtype=np.int32)
        for rows, cols in threadgroup_tiles(ctx, n):
            covered[rows, cols] += 1
        assert (covered == 1).all()


class TestDoubleFloat:
    def test_split_merge_roundtrip(self):
        """Double-float pairs carry ~49 bits of mantissa (24 + 24 + sign
        interplay) — the roundtrip is accurate to ~2^-45, not exact FP64."""
        rng = np.random.default_rng(0)
        values = rng.random((32, 32)) * 1000.0
        hi, lo = split_to_float_pair(values)
        assert hi.dtype == np.float32 and lo.dtype == np.float32
        np.testing.assert_allclose(merge_float_pair(hi, lo), values, rtol=2.0**-45)

    def test_double_float_matmul_beats_fp32(self):
        """The emulated product is far more accurate than plain FP32."""
        rng = np.random.default_rng(1)
        n = 64
        a = rng.random((n, n))
        b = rng.random((n, n))
        a_hi, a_lo = split_to_float_pair(a)
        b_hi, b_lo = split_to_float_pair(b)
        c_hi, c_lo = double_float_matmul(a_hi, a_lo, b_hi, b_lo)
        emulated = merge_float_pair(c_hi, c_lo)
        reference = a @ b
        fp32 = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
        err_emulated = np.abs(emulated - reference).max()
        err_fp32 = np.abs(fp32 - reference).max()
        assert err_emulated < err_fp32 / 100.0

    @given(st.integers(0, 500))
    def test_split_precision_bound_property(self, seed):
        """|hi + lo - v| <= 2^-45 |v| — the double-float guarantee."""
        rng = np.random.default_rng(seed)
        values = (rng.random(64) - 0.5) * 1e6
        hi, lo = split_to_float_pair(values)
        recombined = hi.astype(np.float64) + lo.astype(np.float64)
        err = np.abs(recombined - values)
        assert (err <= 2.0**-45 * np.abs(values) + 1e-300).all()
        # hi alone is the correctly rounded FP32 value.
        np.testing.assert_array_equal(hi, values.astype(np.float32))


class TestStreamShaders:
    def test_kernels_compute_stream_semantics(self, device):
        n = 1024
        lib = device.new_default_library()
        queue = device.new_command_queue()
        bufs = {
            name: device.new_buffer_with_bytes(
                np.full(n, value, dtype=np.float32)
            )
            for name, value in (("a", 1.0), ("b", 2.0), ("c", 0.0))
        }

        def run(kernel):
            pso = device.new_compute_pipeline_state_with_function(
                lib.new_function_with_name(f"stream_{kernel}")
            )
            cb = queue.command_buffer()
            enc = cb.compute_command_encoder()
            enc.set_compute_pipeline_state(pso)
            enc.set_buffer(bufs["a"], 0, 0)
            enc.set_buffer(bufs["b"], 0, 1)
            enc.set_buffer(bufs["c"], 0, 2)
            enc.set_bytes(np.uint32(n), 0)
            enc.set_bytes(np.float32(3.0), 1)
            enc.dispatch_threadgroups(MTLSize((n + 255) // 256), MTLSize(256))
            enc.end_encoding()
            cb.commit()
            cb.wait_until_completed()

        arr = lambda name: bufs[name].as_array(np.float32, (n,))
        run("copy")
        np.testing.assert_array_equal(arr("c"), 1.0)
        run("scale")
        np.testing.assert_array_equal(arr("b"), 3.0)
        run("add")
        np.testing.assert_array_equal(arr("c"), 4.0)
        run("triad")
        np.testing.assert_array_equal(arr("a"), 15.0)
