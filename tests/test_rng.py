"""Deterministic RNG: splitmix64 stream, derived seeds, coefficient draws.

The reference mixer is reimplemented here from the published algorithm so the
library stream is checked against an independent transcription, plus the
well-known first outputs for seed 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charsum.rng import COEFF_MODELS, SplitMix64, derive_seed, randrange_cells

MASK = (1 << 64) - 1


def splitmix64_direct(seed: int, count: int) -> list[int]:
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_reference_transcription():
    for seed in (0, 1, 42, 1234567, 2**64 - 1):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(20)] == splitmix64_direct(seed, 20)


def test_seed_zero_known_values():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


@given(st.integers(0, MASK))
def test_next_double_in_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(5):
        x = rng.next_double()
        assert 0.0 <= x < 1.0


@given(st.integers(0, MASK), st.integers(1, 10**9))
def test_randrange_in_bounds(seed, n):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.randrange(n) < n


def test_randrange_covers_small_range():
    rng = SplitMix64(5)
    seen = {rng.randrange(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_sign_values():
    rng = SplitMix64(11)
    values = {rng.sign() for _ in range(100)}
    assert values == {-1, 1}


def test_unit_disc_inside_disc():
    rng = SplitMix64(13)
    for _ in range(200):
        z = rng.unit_disc()
        assert abs(z) <= 1.0


def test_coefficient_models():
    rng = SplitMix64(17)
    assert rng.coefficient("zero") == 0
    s = rng.coefficient("signs")
    assert s in (-1.0, 1.0) or s in (-1, 1)
    z = rng.coefficient("unit-disc")
    assert abs(z) <= 1.0
    for model in COEFF_MODELS:
        rng.coefficient(model)
    with pytest.raises(ValueError):
        rng.coefficient("gauss")


def test_derive_seed_is_stable_and_tag_sensitive():
    base = derive_seed(42, 3, 7, 1)
    assert base == derive_seed(42, 3, 7, 1)
    assert base != derive_seed(42, 3, 7, 2)
    assert base != derive_seed(42, 3, 8, 1)
    assert base != derive_seed(43, 3, 7, 1)
    assert derive_seed(42, 3, 7) != derive_seed(42, 7, 3)
    assert 0 <= base <= MASK


def test_derived_streams_differ():
    a = SplitMix64(derive_seed(0, 1))
    b = SplitMix64(derive_seed(0, 2))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_unit_disc_statistics_roughly_uniform():
    # mean of |z|^2 over the unit disc is 1/2; a loose sanity window
    rng = SplitMix64(99)
    n = 4000
    mean_sq = sum(abs(rng.unit_disc()) ** 2 for _ in range(n)) / n
    assert math.isclose(mean_sq, 0.5, abs_tol=0.05)


def scalar_cell_draws(seed, tags, cells, n, count):
    out = []
    for cell in cells:
        rng = SplitMix64(derive_seed(seed, *tags, *cell))
        out.append([rng.randrange(n) for _ in range(count)])
    return out


CELLS = [(index, trial) for index in range(1, 13) for trial in range(4)]


@pytest.mark.parametrize(
    "moduli",
    [
        [1],
        # powers of two: 2^64 % n == 0, so the rejection limit 2^64 has no uint64
        [2, 64, 2**32, 2**63, 2**64],
        list(range(3, 101)),
        # just above 2^63 about half of all draws are rejected
        [2**63 + 1, 2**63 + 12345, 2**64 - 1],
    ],
    ids=["one", "powers-of-two", "3..100", "above-2^63"],
)
def test_randrange_cells_matches_scalar_stream(moduli):
    for n in moduli:
        for seed, tags in ((0, ()), (5, (101, 37)), (-3, (2**64 - 1,))):
            got = randrange_cells(seed, tags, np.array(CELLS, dtype=np.int64), n, 2)
            assert got.dtype == np.uint64 and got.shape == (len(CELLS), 2)
            assert got.tolist() == scalar_cell_draws(seed, tags, CELLS, n, 2), (n, seed)


def test_randrange_cells_fallback_runs_on_rejected_draws():
    # the rows with a rejected draw come from the scalar stream, and there are some
    n = 2**63 + 1
    rejected = 0
    for cell in CELLS:
        rng = SplitMix64(derive_seed(9, 4, *cell))
        rejected += any(rng.next_u64() >= n for _ in range(3))
    assert rejected > 0
    got = randrange_cells(9, (4,), np.array(CELLS, dtype=np.int64), n, 3)
    assert got.tolist() == scalar_cell_draws(9, (4,), CELLS, n, 3)


def test_randrange_cells_edge_shapes():
    assert randrange_cells(1, (2,), np.zeros((0, 2), dtype=np.int64), 7, 2).shape == (0, 2)
    # cells with no trailing tag draw from derive_seed(seed, *tags) itself
    got = randrange_cells(1, (2, 3), np.zeros((2, 0), dtype=np.int64), 10, 4)
    assert got.tolist() == scalar_cell_draws(1, (2, 3), [(), ()], 10, 4)
    for n in (0, -1, 2**64 + 1):
        with pytest.raises(ValueError):
            randrange_cells(1, (), np.zeros((1, 1), dtype=np.int64), n, 1)
