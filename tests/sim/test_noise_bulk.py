"""The counter-based noise generator: exact words, the draw rule, moments.

A draw is SplitMix64 outputs 2k and 2k+1 of the stream seeded with a key's
sha256 entropy, then Box-Muller.  The tests below pin the 64-bit words
against a from-scratch pure-Python-int reference, check that bulk draws
equal scalar draws under the rule (the k-th draw of a key within one cell
uses counter k), and check the distribution: mean 1, the requested sigma,
and no correlation across counters, keys or chips.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import paper
from repro.calibration.gemm import GEMM_NOISE_GAIN, GEMM_NOISE_SIGMA
from repro.errors import ConfigurationError
from repro.sim import noise as noise_module
from repro.sim.noise import (
    DeterministicNoise,
    lognormal_factors,
    noise_entropies,
    noise_entropy,
    resolve_sigma,
)

KEYS = st.text(min_size=0, max_size=40)
#: A small alphabet, so key lists repeat keys and exercise the counters.
FEW_KEYS = st.sampled_from(["a", "b", "gemm/M1/gpu-mps/n=64", ""])
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
SIGMAS = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_words(entropy: int, counter: int) -> tuple[int, int]:
    """SplitMix64 outputs 2k and 2k+1 of the stream seeded with ``entropy``."""

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    return (
        mix((entropy + (2 * counter + 1) * GAMMA) & MASK),
        mix((entropy + (2 * counter + 2) * GAMMA) & MASK),
    )


def reference_factor(seed: int, key: str, counter: int, sigma: float) -> float:
    """One draw spelled out from scratch with Python ints and ``math``."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    w1, w2 = reference_words(int.from_bytes(digest[:8], "little"), counter)
    u1 = ((w1 >> 11) + 1) * 2.0**-53
    u2 = (w2 >> 11) * 2.0**-53
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(sigma * z - 0.5 * sigma * sigma)


def rule_factors(noise: DeterministicNoise, keys, sigmas) -> list[float]:
    """Per-key scalar draws, counting each key's active draws (the rule)."""
    counters: dict[str, int] = {}
    out = []
    for key, sigma in zip(keys, sigmas):
        counter = counters.get(key, 0)
        out.append(noise.factor(key, sigma, counter=counter))
        if resolve_sigma(noise.default_sigma, sigma):
            counters[key] = counter + 1
    return out


def standard_normals(seed: int, key: str, count: int) -> np.ndarray:
    """The z of counters 0..count-1 of one key (sigma 1, mean correction undone)."""
    factors = lognormal_factors(noise_entropies(seed, [key] * count), [1.0] * count)
    return np.log(factors) + 0.5


class TestReferenceWords:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, key=KEYS, count=st.integers(min_value=1, max_value=12))
    def test_words_equal_python_int_reference(self, seed, key, count):
        entropy = noise_entropy(seed, key)
        w1, w2 = noise_module._words(noise_entropies(seed, [key] * count))
        assert [(int(a), int(b)) for a, b in zip(w1, w2)] == [
            reference_words(entropy, k) for k in range(count)
        ]

    @pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("counter", [0, 1, 2**40])
    def test_edge_entropies_and_counters(self, entropy, counter):
        state = noise_module._states(
            np.array([entropy], dtype=np.uint64), np.array([counter], dtype=np.uint64)
        )
        w1, w2 = noise_module._words(state)
        assert (int(w1[0]), int(w2[0])) == reference_words(entropy, counter)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        key=KEYS,
        counter=st.integers(min_value=0, max_value=10_000),
        sigma=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_factor_matches_math_reference(self, seed, key, counter, sigma):
        got = DeterministicNoise(seed, sigma).factor(key, counter=counter)
        assert got == pytest.approx(
            reference_factor(seed, key, counter, sigma), rel=1e-14
        )


class TestTheRule:
    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, keys=st.lists(FEW_KEYS, min_size=1, max_size=12), sigma=SIGMAS)
    def test_factors_equal_per_key_factor(self, seed, keys, sigma):
        """A duplicate key draws the next counter."""
        noise = DeterministicNoise(seed, 0.015)
        bulk = noise.factors(keys, sigma)
        assert list(bulk) == rule_factors(noise, keys, [sigma] * len(keys))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=SEEDS,
        pairs=st.lists(st.tuples(FEW_KEYS, SIGMAS), min_size=1, max_size=12),
    )
    def test_mixed_per_key_sigmas(self, seed, pairs):
        """Zero-sigma entries are exactly 1.0 and take no counter."""
        noise = DeterministicNoise(seed, 0.01)
        keys = [k for k, _ in pairs]
        sigmas = [s for _, s in pairs]
        bulk = noise.factors(keys, sigmas)
        assert list(bulk) == rule_factors(noise, keys, sigmas)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, key=KEYS, sigma=st.floats(min_value=1e-6, max_value=0.5))
    def test_length_one_bulk_equals_scalar(self, seed, key, sigma):
        noise = DeterministicNoise(seed, sigma)
        assert noise.factors([key])[0] == noise.factor(key)
        assert lognormal_factors(noise_entropies(seed, [key]), [sigma])[0] == (
            noise.factor(key)
        )

    def test_one_call_is_one_cell(self):
        """Counters restart per call: cells differing only in length agree."""
        short = noise_entropies(3, ["gemm/M1/gpu-mps/n=64"] * 3)
        long = noise_entropies(3, ["gemm/M1/gpu-mps/n=64"] * 5)
        assert list(short) == list(long[:3])

    def test_interleaved_keys_count_separately(self):
        states = noise_entropies(1, ["a", "b", "a", "b", "a"])
        assert list(states[[0, 2, 4]]) == list(noise_entropies(1, ["a"] * 3))
        assert list(states[[1, 3]]) == list(noise_entropies(1, ["b"] * 2))

    def test_gain_scales_active_draws_only(self):
        noise = DeterministicNoise(2, 0.02)
        plain = noise.factor("k", counter=4)
        assert noise.factor("k", counter=4, gain=1.5) == plain * 1.5
        assert noise.factor("k", 0.0, gain=1.5) == 1.0
        assert DeterministicNoise(2, 0.0).factor("k", gain=1.5) == 1.0


class TestDistribution:
    def test_moments(self):
        sigma = 0.05
        count = 200_000
        factors = lognormal_factors(
            noise_entropies(11, ["moments"] * count), [sigma] * count
        )
        assert factors.mean() == pytest.approx(1.0, abs=4 * sigma / count**0.5)
        assert np.log(factors).std() == pytest.approx(sigma, rel=0.01)
        z = standard_normals(11, "moments", count)
        assert abs(z.mean()) < 4 / count**0.5
        assert z.var() == pytest.approx(1.0, abs=0.015)
        # the tails of a normal: P(|z| > 2) = 4.55 %, P(|z| > 3) = 0.27 %
        assert np.mean(np.abs(z) > 2.0) == pytest.approx(0.0455, abs=0.002)
        assert np.mean(np.abs(z) > 3.0) == pytest.approx(0.0027, abs=0.0005)

    def test_independent_across_counters(self):
        count = 100_000
        z = standard_normals(5, "counters", count)
        bound = 4 / count**0.5
        for lag in (1, 2, 3, 64):
            assert abs(np.corrcoef(z[:-lag], z[lag:])[0, 1]) < bound

    def test_independent_across_keys_and_seeds(self):
        count = 50_000
        bound = 4 / count**0.5
        base = standard_normals(5, "gemm/M1/gpu-mps/n=4096", count)
        for seed, key in (
            (5, "gemm/M1/gpu-mps/n=4097"),
            (5, "gemm/M1/cpu-accelerate/n=4096"),
            (6, "gemm/M1/gpu-mps/n=4096"),
        ):
            other = standard_normals(seed, key, count)
            assert abs(np.corrcoef(base, other)[0, 1]) < bound

    def test_independent_across_chips(self):
        count = 50_000
        bound = 4 / count**0.5
        draws = [
            standard_normals(5, f"{chip}/stream/gpu/copy/n=67108864", count)
            for chip in paper.CHIPS
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert abs(np.corrcoef(draws[i], draws[j])[0, 1]) < bound


class TestGemmNoiseGain:
    def test_gain_equals_best_of_five_quadrature(self):
        """G = exp(s^2/2) E[exp(s M)], M the max of GEMM_REPEATS normals."""
        s, r = GEMM_NOISE_SIGMA, paper.GEMM_REPEATS
        x = np.linspace(-12.0, 12.0, 240_001)
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
        density = r * pdf * cdf ** (r - 1)
        gain = np.trapezoid(np.exp(s * x + 0.5 * s * s) * density, x)
        assert round(gain, 6) == 1.014159
        assert GEMM_NOISE_GAIN == pytest.approx(gain, abs=1e-12)

    def test_best_of_five_with_gain_is_unbiased(self):
        """E[1 / min(G f_1..f_5)] = 1 over many independent cells."""
        cells = 40_000
        r = paper.GEMM_REPEATS
        noise = DeterministicNoise(9, GEMM_NOISE_SIGMA)
        best = np.empty(cells)
        for cell in range(cells // 1000):
            keys = [f"gain/{cell}/{i}" for i in range(1000) for _ in range(r)]
            factors = noise.factors(keys).reshape(1000, r) * GEMM_NOISE_GAIN
            best[cell * 1000 : (cell + 1) * 1000] = 1.0 / factors.min(axis=1)
        assert best.mean() == pytest.approx(1.0, abs=3e-4)


class TestSemantics:
    def test_disabled_source_is_all_ones(self):
        noise = DeterministicNoise(1, 0.0)
        assert list(noise.factors(["a", "b"], 0.5)) == [1.0, 1.0]

    def test_zero_sigma_entries_are_exactly_one(self):
        noise = DeterministicNoise(1, 0.02)
        factors = noise.factors(["a", "b", "c"], [0.0, None, 0.0])
        assert factors[0] == 1.0 and factors[2] == 1.0
        assert factors[1] != 1.0

    def test_negative_sigma_rejected(self):
        noise = DeterministicNoise(1, 0.02)
        with pytest.raises(ConfigurationError):
            noise.factors(["a"], -0.1)

    def test_sigma_count_mismatch_rejected(self):
        noise = DeterministicNoise(1, 0.02)
        with pytest.raises(ConfigurationError, match="one sigma per"):
            noise.factors(["a", "b"], [0.01])
        with pytest.raises(ConfigurationError, match="one sigma per"):
            lognormal_factors(noise_entropies(1, ["a", "b"]), [0.01])

    def test_entropy_is_content_addressed(self):
        assert noise_entropy(0, "k") != noise_entropy(1, "k")
        assert noise_entropy(0, "k") == noise_entropy(0, "k")

    def test_concurrent_draws_agree_with_sequential(self):
        """The generator holds no state, so threads cannot race on it."""
        import concurrent.futures

        noise = DeterministicNoise(5, 0.015)
        keys = [f"k{i}" for i in range(64)]
        expected = [noise.factor(k) for k in keys]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(noise.factor, keys))
        assert got == expected
