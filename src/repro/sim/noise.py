"""Deterministic measurement noise.

Real benchmark repeats vary run to run; the paper takes the maximum of ten to
twenty STREAM repetitions and five GEMM repetitions precisely because of that
variation (section 4).  We reproduce it with *deterministic* multiplicative
lognormal jitter: the factor depends only on a seed, a string key and a
counter, so runs are exactly reproducible while repeats still differ from one
another.

A key names what runs (chip, kernel, size); the repetition is the counter.
The rule: the k-th draw of a key within one cell uses counter k, where a cell
is one fresh :class:`~repro.sim.machine.Machine` (which counts draws per key),
one :class:`~repro.sim.vectorized.LoweredCell` or one
:class:`~repro.sim.vectorized.LoweredSequence`.  An op whose sigma resolves
to 0 does not draw: its factor is exactly 1.0 and it takes no counter.  A
draw is counter-based, in the sense of Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3" (SC'11)::

    entropy = sha256(f"{seed}:{key}")[:8]              # once per distinct key
    state   = entropy + 2k * GAMMA   (mod 2**64)        # SplitMix64 position
    w1, w2  = mix64(state + GAMMA), mix64(state + 2 * GAMMA)
    u1, u2  = ((w1 >> 11) + 1) / 2**53, (w2 >> 11) / 2**53
    z       = sqrt(-2 ln u1) * cos(2 pi u2)             # Box-Muller
    factor  = gain * exp(sigma * z - sigma**2 / 2)      # mean-corrected

``w1, w2`` are outputs 2k and 2k+1 of the SplitMix64 stream seeded with the
key's entropy.  :func:`noise_entropies` applies the rule to one cell's keys
and returns each draw's ``state``; :func:`lognormal_factors` turns states
into factors in pure NumPy.  The scalar path (:meth:`DeterministicNoise.factor`)
and the bulk sweep engine (:mod:`repro.sim.vectorized`) both draw through
that one function, so their floats are identical however a batch is shaped.
A sigma of zero yields exactly 1.0, gain included.
"""

from __future__ import annotations

import functools
import hashlib
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

#: The SplitMix64 increment (2**64 / golden ratio) and finalizer multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_GAMMA2 = np.uint64((2 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_PI = 2.0 * np.pi


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
    """The 64-bit content-addressed entropy of one (seed, key) stream."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _states(entropies: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The SplitMix64 stream position of draw ``counter`` of each entropy."""
    return entropies + counters * _GAMMA2


@functools.lru_cache(maxsize=256)
def _counter_offsets(count: int) -> np.ndarray:
    """``_states(0, k)`` for k < count: a repeated key's offsets, built once."""
    offsets = _states(np.uint64(0), np.arange(count, dtype=np.uint64))
    offsets.flags.writeable = False
    return offsets


def noise_entropies(seed: int, keys: Iterable[str]) -> np.ndarray:
    """The state of every draw of one cell, under the rule.

    ``keys`` lists one cell's draws in order: the k-th occurrence of a key
    draws counter k, and each distinct key is hashed once.  One call is one
    cell: the counters never carry over between calls, so two cells that
    share a seed and a key (GEMM cells differing only in ``repeats``) draw
    the same leading factors.  Returns one uint64 state per key, for
    :func:`lognormal_factors`.
    """
    keys = keys if isinstance(keys, (tuple, list)) else list(keys)
    n = len(keys)
    if n and keys.count(keys[0]) == n:
        # one key repeated: the shape of every repetition-grid cell
        return _counter_offsets(n) + np.uint64(noise_entropy(seed, keys[0]))
    streams: dict[str, list[int]] = {}
    entropies: list[int] = []
    counters: list[int] = []
    for key in keys:
        stream = streams.get(key)
        if stream is None:
            stream = streams[key] = [noise_entropy(seed, key), 0]
        entropies.append(stream[0])
        counters.append(stream[1])
        stream[1] += 1
    return _states(
        np.array(entropies, dtype=np.uint64), np.array(counters, dtype=np.uint64)
    )


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output finalizer (Stafford's Mix13), in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _words(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two 64-bit SplitMix64 outputs each draw state yields."""
    return _mix64(states + _GAMMA), _mix64(states + _GAMMA2)


def lognormal_factors(
    entropies: "Sequence[int] | np.ndarray",
    sigmas: "Sequence[float] | np.ndarray",
    gains: "Sequence[float] | np.ndarray | None" = None,
) -> np.ndarray:
    """Mean-corrected lognormal factors, one per draw state.

    ``entropies`` are draw states from :func:`noise_entropies`; ``sigmas``
    must be pre-resolved (no ``None``), one per state, and ``gains`` (1.0
    when omitted) scale each active draw.  A sigma of exactly zero yields
    exactly 1.0 and never touches its state.
    """
    states = np.asarray(entropies, dtype=np.uint64)
    sigma = np.asarray(sigmas, dtype=np.float64)
    n = len(states)
    if n != len(sigma):
        raise ConfigurationError("need exactly one sigma per noise entropy")
    out = np.ones(n)
    active = np.flatnonzero(sigma)
    if len(active) == 0:
        return out
    if len(active) < n:
        states, sigma = states[active], sigma[active]
    # Box-Muller on 53-bit uniforms u1 in (0, 1] and u2 in [0, 1), in place:
    # z = sqrt(-2 ln u1) cos(2 pi u2), then exp(sigma z - sigma^2 / 2).
    w1, w2 = _words(states)
    w1 >>= np.uint64(11)
    z = w1.astype(np.float64)
    z += 1.0
    z *= 2.0**-53
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    w2 >>= np.uint64(11)
    angle = w2.astype(np.float64)
    angle *= 2.0**-53
    angle *= _TWO_PI
    z *= np.cos(angle, out=angle)
    z *= sigma
    z -= 0.5 * sigma * sigma
    factors = np.exp(z, out=z)
    if gains is not None:
        factors *= np.asarray(gains, dtype=np.float64)[active]
    if len(active) == n:
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

    def _resolve_sigma(self, sigma: float | None) -> float:
        """The effective sigma of one draw (see :func:`resolve_sigma`)."""
        return resolve_sigma(self._default_sigma, sigma)

    def factor(
        self,
        key: str,
        sigma: float | None = None,
        *,
        counter: int = 0,
        gain: float = 1.0,
    ) -> float:
        """Draw ``counter`` of ``key``: ~ LogNormal(0, sigma), mean-corrected.

        The mean correction (``exp(-sigma^2 / 2)``) keeps the *expected*
        duration equal to the model's prediction, so calibration targets are
        unbiased by the jitter; ``gain`` scales an active draw (see
        :data:`~repro.calibration.gemm.GEMM_NOISE_GAIN`).

        A source constructed with ``default_sigma == 0`` is *globally
        disabled*: it returns exactly 1.0 even for calls that request their
        own sigma, so ``Machine(..., noise_sigma=0.0)`` is deterministic
        end to end.
        """
        s = self._resolve_sigma(sigma)
        if s == 0.0:
            return 1.0
        state = _states(
            np.array([noise_entropy(self._seed, key)], dtype=np.uint64),
            np.array([counter], dtype=np.uint64),
        )
        return float(lognormal_factors(state, [s], [gain])[0])

    def factors(
        self,
        keys: Iterable[str],
        sigmas: "float | None | Sequence[float | None]" = None,
    ) -> np.ndarray:
        """Bulk draw for one cell's keys, under the rule.

        Equal to per-key :meth:`factor` calls where a repeated key takes
        the next counter of its active draws.  ``sigmas`` is either one
        value applied to every key or a sequence with one entry per key;
        ``None`` entries take the default sigma.
        """
        key_list = list(keys)
        if isinstance(sigmas, (int, float)) or sigmas is None:
            sigma_list = [sigmas] * len(key_list)
        else:
            sigma_list = list(sigmas)
            if len(sigma_list) != len(key_list):
                raise ConfigurationError("need exactly one sigma per noise key")
        resolved = [self._resolve_sigma(s) for s in sigma_list]
        active = [i for i, s in enumerate(resolved) if s]
        out = np.ones(len(key_list))
        if active:
            out[active] = lognormal_factors(
                noise_entropies(self._seed, [key_list[i] for i in active]),
                [resolved[i] for i in active],
            )
        return out

    def disabled(self) -> "DeterministicNoise":
        """A copy of this source that always returns exactly 1.0."""
        return DeterministicNoise(self._seed, 0.0)
