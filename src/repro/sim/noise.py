"""Deterministic measurement noise.

Real benchmark repeats vary run to run; the paper takes the maximum of ten to
twenty STREAM repetitions and five GEMM repetitions precisely because of that
variation (section 4).  We reproduce it with *deterministic* multiplicative
lognormal jitter: the factor depends only on a seed and a string key, so runs
are exactly reproducible while repeats still differ from one another.

Scalar and bulk draws share one implementation.  A draw is defined as::

    entropy = sha256(f"{seed}:{key}")[:8]            # content-addressed
    rng     = np.random.default_rng(entropy)          # PCG64 stream
    factor  = exp(rng.normal(0, sigma) - sigma**2/2)  # mean-corrected

The expensive step is ``default_rng`` construction (SeedSequence mixing plus
PCG64 seeding), so :func:`lognormal_factors` replicates NumPy's SeedSequence
entropy-mixing *and* PCG64's 128-bit seeding fold with vectorized uint64
arithmetic, then injects each pre-seeded state into one reused bit generator
per thread.  Injection itself has two tiers: the default writes the 32-byte
``pcg64_random_t`` struct image straight through the documented
``BitGenerator.ctypes.state_address`` interface (validated once per process
by a bit-exact probe against ``default_rng``), and when the probe fails —
unexpected struct layout, exotic platform — it degrades to the public
``.state`` dict setter.  The replication is exact either way — the normal
variate comes from the very same generator class in the very same state — so
bulk draws equal per-key draws bit for bit (enforced by a hypothesis
property test), and the sweep fast path (:mod:`repro.sim.vectorized`)
amortises the seeding across a whole grid.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DeterministicNoise",
    "lognormal_factors",
    "noise_entropies",
    "noise_entropy",
    "resolve_sigma",
]

# --- NumPy SeedSequence constants (numpy/random/bit_generator.pyx) ---------
_XSHIFT = np.uint32(16)
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)

#: The default PCG64 LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT_128 = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1  # kept for documentation of the fold domain

#: Per-thread reusable generator the PCG64 states are injected into — state
#: injection replaces the costly per-key ``default_rng`` construction, and a
#: thread-local instance keeps concurrent scalar draws (the service's job
#: threads) from racing on shared bit-generator state.
_LOCAL = threading.local()


def resolve_sigma(default_sigma: float, sigma: "float | None") -> float:
    """The effective sigma of one draw (0.0 means 'exactly 1.0').

    The one place the semantics live: a ``default_sigma`` of zero disables
    the source globally (even against per-op sigmas), ``None`` takes the
    default, and negative values are rejected.  Both the scalar
    :class:`DeterministicNoise` path and the vectorized sweep engine
    resolve through here, so they cannot drift.
    """
    if default_sigma == 0.0:
        return 0.0
    s = default_sigma if sigma is None else float(sigma)
    if s < 0.0:
        raise ConfigurationError("noise sigma must be non-negative")
    return s


def noise_entropy(seed: int, key: str) -> int:
    """The 64-bit content-addressed entropy of one (seed, key) draw."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def noise_entropies(seed: int, keys: Iterable[str]) -> list[int]:
    """Bulk :func:`noise_entropy`: the same digest per key, loop hoisted.

    At a million keys per sweep the f-string/attribute overhead of the
    scalar helper is measurable, so the grid engines hash through here.
    """
    prefix = f"{seed}:"
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    return [
        from_bytes(sha256((prefix + key).encode()).digest()[:8], "little")
        for key in keys
    ]


def _seed_state_words(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(4, uint64)`` for an array of entropies.

    An exact, vectorized replication of NumPy's entropy-mixing for integer
    entropy below 2**64 with the default pool size of four words: the same
    hash/mix chain (including the running hash constant shared across calls,
    and the one-word entropy case when the high half is zero) evaluated with
    elementwise uint32 arithmetic over all entropies at once.
    """
    n = len(entropy)
    lo = (entropy & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (entropy >> np.uint64(32)).astype(np.uint32)

    hash_const = np.full(n, _INIT_A, dtype=np.uint32)

    def hashmix(value: np.ndarray, hash_const: np.ndarray):
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        value ^= value >> _XSHIFT
        return value, hash_const

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    with np.errstate(over="ignore"):
        zero = np.zeros(n, dtype=np.uint32)
        pool: list[np.ndarray] = [zero] * 4
        pool[0], hash_const = hashmix(lo, hash_const)
        # entropy ints below 2**32 assemble to a single uint32 word, so the
        # second pool slot mixes literal zero for them, the high word else.
        pool[1], hash_const = hashmix(np.where(hi > 0, hi, zero), hash_const)
        pool[2], hash_const = hashmix(zero, hash_const)
        pool[3], hash_const = hashmix(zero, hash_const)
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    hashed, hash_const = hashmix(pool[i_src], hash_const)
                    pool[i_dst] = mix(pool[i_dst], hashed)

        hash_const = np.full(n, _INIT_B, dtype=np.uint32)
        out32: list[np.ndarray] = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            value ^= value >> _XSHIFT
            out32.append(value)
    return [
        out32[2 * w].astype(np.uint64)
        | (out32[2 * w + 1].astype(np.uint64) << np.uint64(32))
        for w in range(4)
    ]


_MULT_LO = np.uint64(_PCG_MULT_128 & 0xFFFFFFFFFFFFFFFF)
_MULT_HI = np.uint64(_PCG_MULT_128 >> 64)
_MULT_LO_LO = np.uint64(int(_MULT_LO) & 0xFFFFFFFF)
_MULT_LO_HI = np.uint64(int(_MULT_LO) >> 32)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U63 = np.uint64(63)
_LOW32 = np.uint64(0xFFFFFFFF)


def _pcg_state_rows(words: list[np.ndarray]) -> np.ndarray:
    """``pcg_setseq_128_srandom_r`` for all keys at once.

    Folds each key's four seed words into the seeded PCG64 state with
    vectorized 64-bit limb arithmetic (the two 128-bit LCG steps become a
    schoolbook low-128 multiply), and returns a C-contiguous ``(n, 4)``
    uint64 array holding each generator's ``pcg64_random_t`` struct image:
    ``state`` then ``inc``, each as (low, high) little-endian words.
    """
    w0, w1, w2, w3 = words
    with np.errstate(over="ignore"):
        # increment: the odd-ified 128-bit sequence id
        inc_hi = (w2 << _U1) | (w3 >> _U63)
        inc_lo = (w3 << _U1) | _U1
        # t = inc + initstate (mod 2**128)
        t_lo = inc_lo + w1
        carry = (t_lo < inc_lo).astype(np.uint64)
        t_hi = inc_hi + w0 + carry
        # low 128 bits of t * PCG_DEFAULT_MULTIPLIER_128: the cross terms
        # wrap mod 2**64, the low x low product needs 32-bit limbs
        a_lo = t_lo & _LOW32
        a_hi = t_lo >> _U32
        ll = a_lo * _MULT_LO_LO
        hl = a_hi * _MULT_LO_LO
        cross = (ll >> _U32) + (hl & _LOW32) + a_lo * _MULT_LO_HI
        p_lo = (cross << _U32) | (ll & _LOW32)
        p_hi = a_hi * _MULT_LO_HI + (hl >> _U32) + (cross >> _U32)
        p_hi = p_hi + t_lo * _MULT_HI + t_hi * _MULT_LO
        # pcg = t * mult + inc (mod 2**128)
        pcg_lo = p_lo + inc_lo
        carry = (pcg_lo < p_lo).astype(np.uint64)
        pcg_hi = p_hi + inc_hi + carry
    rows = np.empty((len(w0), 4), dtype=np.uint64)
    rows[:, 0] = pcg_lo
    rows[:, 1] = pcg_hi
    rows[:, 2] = inc_lo
    rows[:, 3] = inc_hi
    return rows


def _state_pointers(bit_generator: np.random.PCG64) -> tuple[int, int]:
    """(struct address, ``pcg64_random_t`` pointer) of one bit generator.

    ``BitGenerator.ctypes.state_address`` is the documented address of the
    ``pcg64_state`` struct — ``{ pcg64_random_t *pcg_state; int has_uint32;
    uint32_t uinteger; }`` — whose first member points at the 32-byte
    (state, inc) image that :func:`_pcg_state_rows` precomputes.
    """
    address = int(bit_generator.ctypes.state_address)
    pcg_ptr = ctypes.c_void_p.from_address(address).value
    if not pcg_ptr:
        raise ConfigurationError("PCG64 state pointer is NULL")
    return address, pcg_ptr


#: Whether direct struct-image injection reproduces ``default_rng`` bit for
#: bit on this platform (probed once per process; None = not yet probed).
_FAST_INJECTION: "bool | None" = None


def _fast_injection_works() -> bool:
    """Probe direct state injection end to end against ``default_rng``.

    Writes one precomputed struct image into a scratch PCG64 and requires
    the next normal variate to equal the ``default_rng(entropy)`` draw
    exactly.  Any layout surprise (non-64-bit pointers, emulated 128-bit
    integers, a reshuffled struct) fails the probe and every draw falls
    back to the public ``.state`` dict setter.
    """
    global _FAST_INJECTION
    if _FAST_INJECTION is None:
        try:
            if ctypes.sizeof(ctypes.c_void_p) != 8:
                raise ConfigurationError("direct injection needs 64-bit pointers")
            entropy = 0x9E3779B97F4A7C15
            bit_generator = np.random.PCG64(0)
            gen = np.random.Generator(bit_generator)
            address, pcg_ptr = _state_pointers(bit_generator)
            rows = _pcg_state_rows(
                _seed_state_words(np.asarray([entropy], dtype=np.uint64))
            )
            ctypes.memmove(pcg_ptr, rows.ctypes.data, 32)
            ctypes.memset(address + 8, 0, 8)  # has_uint32 + uinteger
            got = float(gen.standard_normal())
            want = float(np.random.default_rng(entropy).standard_normal())
            _FAST_INJECTION = got == want
        except Exception:
            _FAST_INJECTION = False
    return _FAST_INJECTION


def _thread_generator() -> tuple[np.random.Generator, dict]:
    """This thread's reusable generator and its mutable state dict."""
    gen = getattr(_LOCAL, "gen", None)
    if gen is None:
        bit_generator = np.random.PCG64(0)
        _LOCAL.gen = gen = np.random.Generator(bit_generator)
        _LOCAL.state = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }
        try:
            _LOCAL.fast = (
                _state_pointers(bit_generator) if _fast_injection_works() else None
            )
        except Exception:
            _LOCAL.fast = None
    return gen, _LOCAL.state


def lognormal_factors(
    entropies: "Sequence[int] | np.ndarray", sigmas: Sequence[float]
) -> np.ndarray:
    """Mean-corrected lognormal factors for pre-hashed entropies.

    The shared draw implementation behind :meth:`DeterministicNoise.factor`
    and :meth:`DeterministicNoise.factors`: one PCG64 stream per entropy,
    bit-identical to ``np.random.default_rng(entropy).normal(0, sigma)``.
    ``sigmas`` must be pre-resolved (no ``None``), one per entropy; a sigma
    of exactly zero yields exactly 1.0 without consuming the stream.
    """
    entropy_array = np.asarray(entropies, dtype=np.uint64)
    n = len(entropy_array)
    if n != len(sigmas):
        raise ConfigurationError("need exactly one sigma per noise entropy")
    sigma_arr = np.asarray(sigmas, dtype=np.float64)
    out = np.ones(n, dtype=np.float64)
    if n == 0:
        return out
    active = np.nonzero(sigma_arr)[0]
    m = len(active)
    if m == 0:
        return out
    if m == n:
        act_entropy, act_sigma = entropy_array, sigma_arr
    else:
        act_entropy, act_sigma = entropy_array[active], sigma_arr[active]
    rows = _pcg_state_rows(_seed_state_words(act_entropy))
    gen, state = _thread_generator()
    draw = gen.standard_normal
    normals = np.empty(m, dtype=np.float64)
    fast = getattr(_LOCAL, "fast", None)
    if fast is not None:
        address, pcg_ptr = fast
        memmove = ctypes.memmove
        base = rows.ctypes.data
        # has_uint32/uinteger stay zero across draws (the ziggurat consumes
        # whole uint64 words), so one clear covers the batch
        ctypes.memset(address + 8, 0, 8)
        for j in range(m):
            memmove(pcg_ptr, base + (j << 5), 32)
            normals[j] = draw()
    else:
        bit_generator = gen.bit_generator
        inner = state["state"]
        row_words = rows.tolist()
        for j in range(m):
            lo, hi, inc_lo, inc_hi = row_words[j]
            inner["state"] = (hi << 64) | lo
            inner["inc"] = (inc_hi << 64) | inc_lo
            state["has_uint32"] = 0
            state["uinteger"] = 0
            bit_generator.state = state
            normals[j] = draw()
    # normal(0, s) is loc + scale * standard_normal() in NumPy's C layer;
    # the elementwise form below performs the identical IEEE operations
    # (the +0.0 loc only canonicalizes a -0.0 product, which the mean
    # correction subtraction does anyway).
    factors = np.exp(normals * act_sigma - 0.5 * act_sigma * act_sigma)
    if m == n:
        return factors
    out[active] = factors
    return out


class DeterministicNoise:
    """Seeded multiplicative jitter source."""

    def __init__(self, seed: int = 0, default_sigma: float = 0.015) -> None:
        if default_sigma < 0.0:
            raise ConfigurationError("noise sigma must be non-negative")
        self._seed = int(seed)
        self._default_sigma = float(default_sigma)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def default_sigma(self) -> float:
        return self._default_sigma

    def _rng_for(self, key: str) -> np.random.Generator:
        return np.random.default_rng(noise_entropy(self._seed, key))

    def _resolve_sigma(self, sigma: float | None) -> float:
        """The effective sigma of one draw (see :func:`resolve_sigma`)."""
        return resolve_sigma(self._default_sigma, sigma)

    def factor(self, key: str, sigma: float | None = None) -> float:
        """Multiplicative factor ~ LogNormal(0, sigma), mean-corrected to 1.

        The mean correction (``exp(-sigma^2 / 2)``) keeps the *expected*
        duration equal to the model's prediction, so calibration targets are
        unbiased by the jitter.

        A source constructed with ``default_sigma == 0`` is *globally
        disabled*: it returns exactly 1.0 even for calls that request their
        own sigma, so ``Machine(..., noise_sigma=0.0)`` is deterministic
        end to end.
        """
        s = self._resolve_sigma(sigma)
        if s == 0.0:
            return 1.0
        return float(
            lognormal_factors([noise_entropy(self._seed, key)], [s])[0]
        )

    def factors(
        self,
        keys: Iterable[str],
        sigmas: "float | None | Sequence[float | None]" = None,
    ) -> np.ndarray:
        """Bulk draw: one factor per key, equal to per-key :meth:`factor` calls.

        ``sigmas`` is either one value applied to every key or a sequence
        with one entry per key; ``None`` entries take the default sigma.
        The scalar path and the vectorized sweep engine both draw through
        this implementation — one sha256 + one PCG64 stream per key — so
        the floats are identical however the batch is shaped.
        """
        key_list = list(keys)
        if isinstance(sigmas, (int, float)) or sigmas is None:
            sigma_list = [sigmas] * len(key_list)
        else:
            sigma_list = list(sigmas)
            if len(sigma_list) != len(key_list):
                raise ConfigurationError("need exactly one sigma per noise key")
        resolved = [self._resolve_sigma(s) for s in sigma_list]
        entropies = [noise_entropy(self._seed, k) for k in key_list]
        return lognormal_factors(entropies, resolved)

    def disabled(self) -> "DeterministicNoise":
        """A copy of this source that always returns exactly 1.0."""
        return DeterministicNoise(self._seed, 0.0)
