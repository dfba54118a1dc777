"""Calibration tables are resolved once per chip object, then shared.

``gemm_calibration`` and ``stream_calibration`` memoize on the chip name
with :func:`~repro.soc.catalog.chip_memo`'s identity rule: another
``ChipSpec`` object under the same name resolves its own table instead of
reading the memoized one.
"""

import dataclasses

import pytest

from repro.calibration.gemm import _resolve_gemm_calibration, gemm_calibration
from repro.calibration.stream import _resolve_stream_calibration, stream_calibration
from repro.soc.catalog import get_chip


def faster_gpu(chip):
    """``chip`` with a 1.5x GPU FP32 peak, under the same name."""
    low, high = chip.gpu.table_fp32_tflops
    return dataclasses.replace(
        chip,
        gpu=dataclasses.replace(chip.gpu, table_fp32_tflops=(low, high * 1.5)),
    )


def test_tables_are_shared_per_chip_object():
    chip = get_chip("M2")
    assert gemm_calibration(chip, "gpu-mps") is gemm_calibration(chip, "gpu-mps")
    assert stream_calibration(chip) is stream_calibration(chip)


@pytest.mark.parametrize("impl", ["gpu-mps", "gpu-naive", "cpu-accelerate"])
def test_gemm_table_follows_a_replaced_chip_under_a_catalog_name(impl):
    catalog = get_chip("M1")
    memoized = gemm_calibration(catalog, impl)
    custom = dataclasses.replace(
        faster_gpu(catalog),
        amx=dataclasses.replace(catalog.amx, peak_fp32_tflops=2.0),
    )
    assert custom.name == catalog.name
    table = gemm_calibration(custom, impl)
    assert table == _resolve_gemm_calibration(custom, impl)
    assert table.curve != memoized.curve
    # and the catalog object gets its own table back
    assert gemm_calibration(catalog, impl) == memoized


def test_stream_table_follows_a_replaced_chip_under_a_catalog_name():
    catalog = get_chip("M3")
    memoized = stream_calibration(catalog)
    custom = dataclasses.replace(
        catalog,
        memory=dataclasses.replace(catalog.memory, bandwidth_gbs=150.0),
    )
    table = stream_calibration(custom)
    assert table is not memoized
    assert table is stream_calibration(custom)
    # a catalog name reads the anchored Figure-1 table, whatever the object
    assert table == _resolve_stream_calibration(custom) == memoized
    assert stream_calibration(catalog) is not table


def test_stream_table_of_an_off_catalog_chip_follows_its_bandwidth():
    base = get_chip("M1")
    slow = dataclasses.replace(base, name="X9")
    fast = dataclasses.replace(
        slow, memory=dataclasses.replace(slow.memory, bandwidth_gbs=200.0)
    )
    slow_table = stream_calibration(slow)
    fast_table = stream_calibration(fast)
    assert fast_table.cpu_max_gbs() == pytest.approx(
        slow_table.cpu_max_gbs() * 200.0 / base.memory.bandwidth_gbs
    )
    assert stream_calibration(slow) == slow_table


def test_shared_stream_tables_are_read_only():
    table = stream_calibration(get_chip("M4"))
    with pytest.raises(TypeError):
        table.cpu_targets_gbs["copy"] = 1.0  # type: ignore[index]
    with pytest.raises(TypeError):
        table.gpu_targets_gbs["triad"] = 1.0  # type: ignore[index]
