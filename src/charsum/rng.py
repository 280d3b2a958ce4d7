"""Deterministic, portable randomness for seeded experiments.

Everything seeded in this package flows through splitmix64 so that runs
are reproducible bit for bit across platforms and process counts.  The
generator state advances by the 64-bit golden-ratio constant and each
output is finalized with two xorshift-multiply rounds; doubles take the
top 53 bits, integer draws use rejection sampling (no modulo bias), and
unit-disc samples are drawn by rejection from the square [-1,1]^2.
`randrange_cells` draws the first integers of many derived streams at once
in numpy uint64 arithmetic, bit for bit equal to the scalar stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The coefficient models `SplitMix64.coefficient` draws from, in CLI order.
COEFF_MODELS = ("unit-disc", "signs", "zero")


def _mix64(z):
    """The splitmix64 output mix of a Python int, or of a numpy uint64 array."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Stable subseed from a base seed and integer tags.

    Used to give every (check, modulus, trial) cell its own stream, so
    results do not depend on sweep order or thread count.
    """
    s = _mix64(seed & _MASK64)
    for t in tags:
        s = _mix64(s ^ _mix64((t & _MASK64) + _GOLDEN))
    return s


def randrange_cells(seed: int, tags: tuple[int, ...], cells: np.ndarray, n: int, count: int) -> np.ndarray:
    """The first `count` randrange(n) draws of every cell's stream, as uint64.

    Row i equals the draws of SplitMix64(derive_seed(seed, *tags, *cells[i]))
    bit for bit: seeds and draws run in uint64 arithmetic, and a row with a
    rejected draw (probability below count * n / 2^64) is redrawn by the
    scalar stream.  cells is an integer array of shape (rows, trailing tags).
    """
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"randrange_cells requires 1 <= n <= 2^64, got {n}")
    cells = np.asarray(cells, dtype=np.int64).astype(np.uint64)
    seeds = np.full(len(cells), derive_seed(seed, *tags), dtype=np.uint64)
    for column in cells.T:
        seeds = _mix64(seeds ^ _mix64(column + np.uint64(_GOLDEN)))
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    u = _mix64(seeds[:, None] + steps)
    if n & (n - 1) == 0:  # 2^64 % n == 0: no draw is rejected
        return u & np.uint64(n - 1)
    limit = (1 << 64) - (1 << 64) % n
    out = u % np.uint64(n)
    for i in np.flatnonzero((u >= np.uint64(limit)).any(axis=1)).tolist():
        rng = SplitMix64(int(seeds[i]))
        out[i] = [rng.randrange(n) for _ in range(count)]
    return out


class SplitMix64:
    """splitmix64 stream with helpers for the sampling this package needs."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError(f"randrange requires n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sign(self) -> int:
        return 1 if self.next_u64() >> 63 == 0 else -1

    def unit_disc(self) -> complex:
        """Uniform point of the closed unit disc, by rejection from the square."""
        while True:
            x = 2.0 * self.next_double() - 1.0
            y = 2.0 * self.next_double() - 1.0
            if x * x + y * y <= 1.0:
                return complex(x, y)

    def coefficient(self, model: str) -> complex:
        """One coefficient under the named model, one of COEFF_MODELS."""
        if model == "unit-disc":
            return self.unit_disc()
        if model == "signs":
            return complex(self.sign(), 0.0)
        if model == "zero":
            return 0j
        raise ValueError(f"unknown coefficient model {model!r}, expected one of {', '.join(COEFF_MODELS)}")
