"""Sum evaluators against independent brute-force oracles.

Every evaluator in charsum.sums has a plain-python `*_direct` counterpart
here, written from the definitions with no shared code beyond character
evaluation; the two are compared exhaustively at small moduli and on frozen
witness values.
"""

import cmath
import math

import numpy as np
import pytest

import charsum.character as character_module
import charsum.sums as sums_module
from charsum.arith import divisors
from charsum.character import character_group, enumerate_characters, evaluate, is_primitive
from charsum.sums import (
    BilinearInstance,
    CapacityError,
    IntervalSpec,
    WeightVector,
    bilinear_form,
    character_pair_sum,
    character_value_table,
    complete_lambda,
    complete_lambda_row,
    complete_lambda_table,
    congruence_pair_count,
    gauss_sum,
    gauss_sum_all,
    incomplete_lambda,
    orthogonality_average,
    quadratic_expsum,
    quadratic_expsum_table,
    second_moment,
    tolerance,
    unit_root_char_sum,
    weighted_second_moment,
)

TOL = 1e-10


def units(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


def chi_of(q: int, index: int):
    return character_group(q).character_at(index)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def complete_lambda_direct(chi, m: int, n: int) -> complex:
    q = chi.modulus
    total = 0j
    for a in units(q):
        abar = pow(a, -1, q) if q > 1 else 0
        total += evaluate(chi, (m * a + n * abar) % q).to_complex()
    return total


def incomplete_lambda_direct(chi, m: int, n: int, start: int, length: int) -> complex:
    q = chi.modulus
    total = 0j
    for offset in range(length):
        a = (start + offset) % q
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q) if q > 1 else 0
        total += evaluate(chi, (m * a + n * abar) % q).to_complex()
    return total


def gauss_sum_direct(chi, n: int) -> complex:
    q = chi.modulus
    return sum(
        evaluate(chi, a).to_complex() * cmath.exp(2j * cmath.pi * n * a / q)
        for a in range(q)
    )


def unit_root_char_sum_direct(chi) -> complex:
    q = chi.modulus
    return sum(
        evaluate(chi, y).to_complex() for y in range(q) if (y * y - 1) % q == 0 or q == 1
    )


def second_moment_direct(chi) -> float:
    q = chi.modulus
    return sum(
        abs(complete_lambda_direct(chi, m, n)) ** 2 for m in range(q) for n in range(q)
    )


def quadratic_direct(a: int, b: int, q: int, restricted: bool) -> complex:
    xs = units(q) if restricted else range(q)
    return sum(cmath.exp(2j * cmath.pi * ((a * x * x + b * x) % q) / q) for x in xs)


def orthogonality_direct(chi, c: int, b: int) -> complex:
    q = chi.modulus
    us = units(q)
    return sum(evaluate(chi, (c * a + b) % q).to_complex() for a in us) / len(us)


def pair_sum_direct(chi, y: int, ell: int) -> complex:
    q = chi.modulus
    total = 0j
    for c in units(q):
        for d in units(q):
            if (c - d * y) % ell == 0:
                total += evaluate(chi, c).to_complex() * evaluate(chi, d).to_complex().conjugate()
    return total


def congruence_count_direct(a: int, b: int, c: int, d: int, q: int) -> int:
    abar = pow(a, -1, q)
    bbar = pow(b, -1, q)
    return sum(
        1
        for x in range(q)
        for y in range(q)
        if (a * x + abar * y - c) % q == 0 and (b * x + bbar * y - d) % q == 0
    )


def bilinear_direct(chi, inst: BilinearInstance) -> complex:
    q = chi.modulus
    total = 0j
    for i, m in enumerate(range(inst.m_scale + 1, 2 * inst.m_scale + 1)):
        for j, n in enumerate(range(inst.n_scale + 1, 2 * inst.n_scale + 1)):
            for a in range(inst.a_scale + 1, 2 * inst.a_scale + 1):
                if math.gcd(a, q) != 1:
                    continue
                abar = pow(a % q, -1, q)
                term = evaluate(chi, (m * a + n * abar) % q).to_complex()
                total += inst.alpha[i] * inst.beta[j] * term
    return total


# ---------------------------------------------------------------------------
# complete sums
# ---------------------------------------------------------------------------


def test_complete_lambda_frozen_values():
    # q=5, order-2 character: the four unit terms are chi(2)+chi(4)+chi(1)+chi(3)
    assert complete_lambda(chi_of(5, 2), 1, 1) == -2 + 0j
    # odd character: the sum cancels identically
    assert complete_lambda(chi_of(5, 1), 1, 1) == 0j
    # degenerate modulus: single unit a=0 with value 1
    assert complete_lambda(character_group(1).trivial_character(), 3, 4) == 1 + 0j


def test_complete_lambda_matches_oracle_exhaustively():
    for q in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        for chi in enumerate_characters(character_group(q)):
            for m in range(q):
                for n in range(q):
                    got = complete_lambda(chi, m, n)
                    want = complete_lambda_direct(chi, m, n)
                    assert abs(got - want) < TOL, (q, chi.index, m, n)


def test_complete_lambda_spot_checks_larger_moduli():
    for q, index, m, n in [(25, 10, 1, 2), (27, 6, 1, 1), (16, 3, 3, 5), (21, 2, 4, 1)]:
        chi = chi_of(q, index)
        assert abs(complete_lambda(chi, m, n) - complete_lambda_direct(chi, m, n)) < TOL


def test_imprimitive_lift_overshoots_envelope():
    # quadratic character mod 25 (induced from mod 5): the complete sum
    # reaches phi(25)-size, far above sqrt(25)*2^omega(25) = 10
    chi = chi_of(25, 10)
    assert not is_primitive(chi)
    value = complete_lambda(chi, 1, 2)
    assert abs(value - (-20 + 0j)) < TOL


def test_lambda_table_and_row_consistency():
    # 36, 48, 60 and 64 have many non-unit rows, gathered from divisor rows
    for q in (5, 8, 12, 15, 36, 48, 60, 64):
        for chi in enumerate_characters(character_group(q)):
            table = complete_lambda_table(chi)
            row1 = complete_lambda_row(chi)
            for t in range(q):
                assert abs(row1[t] - complete_lambda(chi, 1, t)) < TOL
            for m in range(q):
                for n in range(q):
                    assert abs(table[m, n] - complete_lambda(chi, m, n)) < TOL


def test_lambda_reduction_row_permutation():
    # for unit m, Lambda(m, n) = Lambda(1, m*n): row m permutes row 1
    for q in (7, 12, 15):
        for chi in enumerate_characters(character_group(q)):
            for m in units(q):
                for n in range(q):
                    lhs = complete_lambda(chi, m, n)
                    rhs = complete_lambda(chi, 1, m * n % q)
                    assert abs(lhs - rhs) < TOL


def test_lambda_divisor_orbit_identity():
    # with g | q and u a unit, Lambda(g*u, n) = Lambda(g, u*n): every row of
    # the table is its divisor row gcd(m, q) permuted
    for q in (12, 18, 20, 24, 36):
        for chi in enumerate_characters(character_group(q)):
            direct = {
                (m, n): complete_lambda_direct(chi, m, n) for m in range(q) for n in range(q)
            }
            for g in divisors(q):
                for u in units(q):
                    for n in range(q):
                        lhs = direct[g * u % q, n]
                        rhs = direct[g % q, u * n % q]
                        assert abs(lhs - rhs) < TOL, (q, chi.index, g, u, n)


def test_divisor_rows_match_direct_oracle():
    # each divisor row is a correlation taken by FFT; every row against direct
    # sums of exact character values, at primes, prime powers and composites
    for q in (1, 2, 12, 25, 36, 60, 64, 101, 125):
        us = np.array(units(q), dtype=np.int64)
        ubar = np.array([pow(int(a), -1, q) if q > 1 else 0 for a in us], dtype=np.int64)
        t = np.arange(q, dtype=np.int64)
        divs = divisors(q)
        for chi in enumerate_characters(character_group(q)):
            values = np.array([evaluate(chi, r).to_complex() for r in range(q)])
            rows = sums_module._divisor_rows(character_value_table(chi), divs)
            for g, row in zip(divs, rows):
                direct = values[(g * us[None, :] + t[:, None] * ubar[None, :]) % q].sum(axis=1)
                assert np.abs(row - direct).max() <= tolerance(len(us)), (q, chi.index, g)


def test_cached_tables_are_read_only():
    # cached arrays are shared by every caller: an in-place write must fail
    q = 12
    cached = [
        *sums_module._modulus_tables(q),
        *character_module._scaled_logs(q),
        character_value_table(chi_of(q, 1)),
        character_module._roots_for_denominator(character_group(q).exponent_lcm),
    ]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_lambda_periodicity_in_m_and_n():
    chi = chi_of(9, 2)
    assert abs(complete_lambda(chi, 1 + 9, 2 - 9) - complete_lambda(chi, 1, 2)) < TOL


# ---------------------------------------------------------------------------
# incomplete sums
# ---------------------------------------------------------------------------


def test_incomplete_full_period_equals_complete():
    for q in (5, 8, 12):
        for chi in enumerate_characters(character_group(q)):
            for start in range(q):
                got = incomplete_lambda(chi, 1, 1, IntervalSpec(start, q))
                assert abs(got - complete_lambda(chi, 1, 1)) < TOL


def test_incomplete_matches_oracle():
    for q in (5, 9, 12):
        for chi in enumerate_characters(character_group(q)):
            for start in range(q):
                for length in range(q + 1):
                    got = incomplete_lambda(chi, 2, 3, IntervalSpec(start, length))
                    want = incomplete_lambda_direct(chi, 2, 3, start, length)
                    assert abs(got - want) < TOL


def test_incomplete_rejects_oversize_interval():
    chi = chi_of(5, 1)
    with pytest.raises(ValueError):
        incomplete_lambda(chi, 1, 1, IntervalSpec(0, 6))
    with pytest.raises(ValueError):
        IntervalSpec(0, -1)
    assert incomplete_lambda(chi, 1, 1, IntervalSpec(3, 0)) == 0j


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def test_gauss_sum_matches_oracle():
    for q in (1, 2, 3, 4, 5, 8, 9, 12, 15):
        for chi in enumerate_characters(character_group(q)):
            for n in range(q):
                assert abs(gauss_sum(chi, n) - gauss_sum_direct(chi, n)) < TOL


def test_gauss_sum_all_consistent():
    for q in (1, 2, 5, 8, 12, 13, 36, 64, 100):
        for chi in enumerate_characters(character_group(q)):
            table = gauss_sum_all(chi)
            assert table.shape == (q,)
            for n in range(q):
                assert abs(table[n] - gauss_sum(chi, n)) < TOL


def test_gauss_sum_frozen_quadratic_mod_5():
    value = gauss_sum(chi_of(5, 2), 1)
    assert abs(value - math.sqrt(5)) < 1e-12  # real and positive


def test_gauss_modulus_primitive():
    for q in (3, 4, 5, 7, 8, 9, 11, 16, 25):
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi) and q > 1:
                assert abs(abs(gauss_sum(chi, 1)) - math.sqrt(q)) < 1e-10


# ---------------------------------------------------------------------------
# square-roots-of-unity sum
# ---------------------------------------------------------------------------


def test_unit_root_char_sum_exact_integer():
    for q in (1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 24, 35, 40, 45):
        for chi in enumerate_characters(character_group(q)):
            exact = unit_root_char_sum(chi)
            assert isinstance(exact, int)
            direct = unit_root_char_sum_direct(chi)
            assert abs(exact - direct) < TOL


def test_unit_root_char_sum_case_table():
    # trivial character mod 2 -> 1; even characters mod 4 -> 2;
    # primitive even characters mod p^s (odd p) -> 2; primitive mod 2^s, s>=3 -> 0
    assert unit_root_char_sum(character_group(2).trivial_character()) == 1
    assert unit_root_char_sum(character_group(4).trivial_character()) == 2
    for q in (5, 7, 9, 25, 27, 49, 121, 125, 243, 343):
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi) and evaluate(chi, q - 1).to_complex() == 1 + 0j:
                assert unit_root_char_sum(chi) == 2, (q, chi.index)
    for q in (8, 16, 32):
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi):
                assert unit_root_char_sum(chi) == 0, (q, chi.index)


def test_unit_root_char_sum_odd_modulus_completely_even():
    # for odd q and completely even primitive chi the sum counts all
    # 2^omega(q) square roots of unity
    from charsum.arith import factorize, multiplicative_profile
    from charsum.character import parity_flags

    for q in (5, 7, 15, 21, 35, 105):
        prof = multiplicative_profile(factorize(q))
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi) and parity_flags(chi).is_completely_even:
                assert unit_root_char_sum(chi) == 2**prof.omega


# ---------------------------------------------------------------------------
# second moments: the two routes must agree
# ---------------------------------------------------------------------------


def test_second_moment_naive_vs_reduced_exhaustive():
    for q in [*range(1, 30), 32, 36, 48, 60, 64, 72, 96]:
        for chi in enumerate_characters(character_group(q)):
            naive = second_moment(chi, "naive")
            reduced = second_moment(chi, "reduced")
            assert abs(naive - reduced) <= tolerance(q * q * len(units(q)), 1.0) + 1e-9, (
                q,
                chi.index,
            )


def test_second_moment_matches_direct_oracle():
    for q in (5, 8, 9, 12):
        for chi in enumerate_characters(character_group(q)):
            assert abs(second_moment(chi) - second_moment_direct(chi)) < 1e-6


def test_second_moment_frozen_values():
    assert abs(second_moment(chi_of(5, 2)) - 160.0) < 1e-9
    assert abs(second_moment(chi_of(8, 1)) - 0.0) < 1e-9  # primitive completely even mod 8


def test_second_moment_naive_capacity():
    chi = character_group(401).trivial_character()
    with pytest.raises(CapacityError):
        second_moment(chi, "naive")
    with pytest.raises(ValueError):
        second_moment(chi, "bogus")


def test_weighted_second_moment_reduces_to_plain():
    for q, index in [(5, 2), (7, 2), (8, 1)]:
        chi = chi_of(q, index)
        ones = WeightVector.constant(q, 1.0)
        assert abs(weighted_second_moment(chi, ones) - second_moment(chi)) < 1e-8
    zeros = WeightVector.constant(5, 0.0)
    assert weighted_second_moment(chi_of(5, 2), zeros) == 0.0


def test_weighted_second_moment_direct_small():
    # independent accumulation of |sum_a lambda_a chi(m a + n abar)|^2
    cases = [(6, {1: 0.5, 5: -0.25 + 0.1j})]
    for q in (1, 2, 12, 36, 60):
        cases.append((q, {a: complex(math.cos(a), math.sin(3 * a)) / 2 for a in units(q)}))
    for q, lam in cases:
        group = character_group(q)
        chi = group.character_at(1 % group.size)
        weights = WeightVector(q, lam)
        values = [evaluate(chi, r).to_complex() for r in range(q)]
        direct = 0.0
        for m in range(q):
            for n in range(q):
                inner = 0j
                for a in units(q):
                    abar = pow(a, -1, q) if q > 1 else 0
                    inner += lam[a] * values[(m * a + n * abar) % q]
                direct += abs(inner) ** 2
        assert abs(weighted_second_moment(chi, weights) - direct) < 1e-9, q


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(6, {2: 1.0})  # 2 is not a unit mod 6
    w = WeightVector(6, {1: 0.5, 5: 2.0})
    assert w.bound == 2.0


# ---------------------------------------------------------------------------
# quadratic exponential sums
# ---------------------------------------------------------------------------


def test_quadratic_matches_oracle():
    for q in (1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 25):
        for a in range(q):
            for b in range(q):
                for restricted in (False, True):
                    got = quadratic_expsum(a, b, q, restricted=restricted)
                    want = quadratic_direct(a, b, q, restricted)
                    assert abs(got - want) < TOL


def test_quadratic_table_matches_pointwise():
    for q in [*range(1, 31), 64, 81, 100]:
        for restricted in (False, True):
            table = quadratic_expsum_table(q, restricted=restricted)
            assert table.shape == (q, q)
            for a in range(q):
                for b in range(q):
                    want = quadratic_expsum(a, b, q, restricted=restricted)
                    assert abs(table[a, b] - want) <= tolerance(q)


def test_quadratic_frozen_values():
    assert abs(quadratic_expsum(0, 0, 7) - 7) < TOL
    assert abs(quadratic_expsum(0, 3, 7)) < TOL
    assert abs(abs(quadratic_expsum(1, 0, 25)) - 5.0) < 1e-9
    for q in (3, 5, 7, 9, 11, 13, 15):
        for a in units(q):
            assert abs(abs(quadratic_expsum(a, 0, q)) - math.sqrt(q)) < 1e-9


# ---------------------------------------------------------------------------
# unit averages and pair sums
# ---------------------------------------------------------------------------


def test_orthogonality_average_matches_oracle():
    for q in (3, 4, 5, 8, 9, 12):
        for chi in enumerate_characters(character_group(q)):
            if not is_primitive(chi):
                continue
            for c in range(q):
                for b in range(q):
                    got = orthogonality_average(chi, c, b)
                    want = orthogonality_direct(chi, c, b)
                    assert abs(got - want) < TOL


def test_orthogonality_average_closed_form():
    from charsum.verify import unit_average_coefficient

    for q in (3, 4, 5, 8, 9, 12, 18, 24):
        for chi in enumerate_characters(character_group(q)):
            if not is_primitive(chi):
                continue
            for c in range(q):
                coeff = unit_average_coefficient(c, q)
                for b in range(q):
                    got = orthogonality_average(chi, c, b)
                    want = coeff * evaluate(chi, b).to_complex()
                    assert abs(got - want) < TOL


def test_orthogonality_average_nonzero_off_multiples():
    # the naive "vanishes unless q | c" reading fails: q=3, c=1, b=1
    chi = chi_of(3, 1)
    assert abs(orthogonality_average(chi, 1, 1) - (-0.5)) < TOL


def test_orthogonality_average_warns_imprimitive():
    chi = character_group(4).trivial_character()
    with pytest.warns(UserWarning):
        orthogonality_average(chi, 1, 1)


def test_pair_sum_matches_oracle():
    for q in (3, 4, 5, 8, 9, 12, 16, 24):
        for chi in enumerate_characters(character_group(q)):
            if not is_primitive(chi):
                continue
            for ell in [d for d in range(1, q + 1) if q % d == 0]:
                for y in range(q):
                    got = character_pair_sum(chi, y, ell)
                    want = pair_sum_direct(chi, y, ell)
                    assert abs(got - want) < TOL


def test_pair_sum_closed_form():
    phi9 = len(units(9))
    for chi in enumerate_characters(character_group(9)):
        if not is_primitive(chi):
            continue
        for ell in (1, 3):
            for y in range(9):
                assert abs(character_pair_sum(chi, y, ell)) < TOL
        for y in range(9):
            got = character_pair_sum(chi, y, 9)
            if math.gcd(y, 9) == 1:
                want = evaluate(chi, y).to_complex() * phi9
            else:
                want = 0j
            assert abs(got - want) < TOL


def test_pair_sum_rejects_non_divisor():
    with pytest.raises(ValueError):
        character_pair_sum(chi_of(9, 1), 1, 2)


# ---------------------------------------------------------------------------
# congruence solution counts
# ---------------------------------------------------------------------------


def test_congruence_count_matches_oracle_small():
    for q in (2, 3, 4, 5, 6, 8, 9, 12, 15):
        for a in units(q):
            for b in units(q):
                for c in range(q):
                    for d in range(0, q, max(1, q // 3)):
                        got = congruence_pair_count(a, b, c, d, q)
                        want = congruence_count_direct(a, b, c, d, q)
                        assert got == want, (a, b, c, d, q)


def test_congruence_count_frozen():
    assert congruence_pair_count(1, 2, 0, 0, 5) == 1
    assert congruence_pair_count(1, 4, 0, 0, 15) == 15
    # identical equations: q solutions whenever consistent
    assert congruence_pair_count(3, 3, 1, 1, 7) == 7
    with pytest.raises(ValueError):
        congruence_pair_count(2, 1, 0, 0, 4)


# ---------------------------------------------------------------------------
# bilinear forms: optimized vs exact triple loop
# ---------------------------------------------------------------------------


def test_bilinear_matches_direct_oracle():
    inst = BilinearInstance(
        a_scale=4,
        m_scale=3,
        n_scale=2,
        alpha=(0.5, -0.25 + 0.5j, 1.0),
        beta=(1.0, -1.0),
    )
    for q in (7, 11, 12):
        for chi in enumerate_characters(character_group(q)):
            got = bilinear_form(chi, inst, "optimized")
            naive = bilinear_form(chi, inst, "naive")
            want = bilinear_direct(chi, inst)
            assert abs(got - want) < 1e-10
            assert abs(naive - want) < 1e-10


def test_bilinear_norms_and_capacity():
    inst = BilinearInstance(2, 2, 2, (3.0, 4.0), (1.0, 0.0))
    assert abs(inst.alpha_norm - 5.0) < 1e-12
    assert abs(inst.beta_norm - 1.0) < 1e-12
    assert inst.term_count == 8
    with pytest.raises(ValueError):
        BilinearInstance(2, 3, 2, (1.0,), (1.0, 1.0))
    big = BilinearInstance(10**3, 10**3, 10**3, (1.0,) * 10**3, (1.0,) * 10**3)
    with pytest.raises(CapacityError):
        bilinear_form(chi_of(7, 1), big, "naive")


def test_bilinear_dyadic_convention():
    # x ~ X means X < x <= 2X: scale 1 sums exactly over {2}
    inst = BilinearInstance(1, 1, 1, (1.0,), (1.0,))
    chi = character_group(5).trivial_character()
    # single term: m=2, n=2, a=2, abar=3: chi(2*2 + 2*3) = chi(10 mod 5) = chi(0) = 0
    assert bilinear_form(chi, inst, "naive") == 0j
    chi1 = chi_of(5, 1)
    direct = evaluate(chi1, (2 * 2 + 2 * 3) % 5).to_complex()
    assert abs(bilinear_form(chi1, inst, "naive") - direct) < 1e-12
    assert abs(bilinear_form(chi1, inst, "optimized") - direct) < 1e-12
