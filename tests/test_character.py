"""Dirichlet characters: group structure, exact values, conductors, labels.

The enumeration is validated against the defining properties of the dual
group (complete multiplicativity, orthogonality, cardinality), and the
conductor fast path against a from-scratch factor-through oracle.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import charsum.character as character_module
from charsum.arith import euler_phi, factorize, multiplicative_profile
from charsum.sums import character_value_table
from charsum.character import (
    _definitional_conductors,
    CHAR_ONE,
    CHAR_ZERO,
    MINUS_ONE,
    ONE,
    DirichletCharacter,
    RootOfUnity,
    character_group,
    character_label,
    character_tables,
    conductor,
    enumerate_characters,
    evaluate,
    is_primitive,
    parity_flags,
    parse_character_label,
    product_character,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def conductor_direct(chi: DirichletCharacter) -> int:
    """Smallest f | q with chi(a) = 1 for every unit a = 1 (mod f)."""
    q = chi.modulus
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        ok = True
        for a in range(q):
            if math.gcd(a, q) != 1 or a % f != 1 % f:
                continue
            if evaluate(chi, a) != CHAR_ONE:
                ok = False
                break
        if ok:
            return f
    return q


def units(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]


# ---------------------------------------------------------------------------
# RootOfUnity exact algebra
# ---------------------------------------------------------------------------


def test_root_normalization():
    assert RootOfUnity(3, 6) == RootOfUnity(1, 2) == MINUS_ONE
    assert RootOfUnity(8, 4) == ONE
    assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)


def test_roots_table_is_root_of_unity_bit_for_bit():
    # the cached table behind every character value table and e(t/q)
    for d in [*range(1, 101), 128, 210, 256, 1000]:
        table = character_module._roots_for_denominator(d)
        for t in range(d):
            want = RootOfUnity(t, d).to_complex()
            assert (table[t].real, table[t].imag) == (want.real, want.imag), (t, d)
            assert math.copysign(1.0, table[t].imag) == math.copysign(1.0, want.imag), (t, d)


def test_root_products_exact():
    assert RootOfUnity(1, 3) * RootOfUnity(1, 6) == MINUS_ONE
    assert RootOfUnity(1, 4) ** 2 == MINUS_ONE
    assert RootOfUnity(1, 5) ** 5 == ONE
    assert RootOfUnity(1, 8).conjugate() == RootOfUnity(7, 8)


def test_root_quarter_turns_are_exact_complex():
    assert ONE.to_complex() == 1 + 0j
    assert MINUS_ONE.to_complex() == -1 + 0j
    assert RootOfUnity(1, 4).to_complex() == 1j
    assert RootOfUnity(3, 4).to_complex() == -1j


@given(st.integers(0, 500), st.integers(1, 120), st.integers(0, 500), st.integers(1, 120))
def test_root_multiplication_matches_cmath(n1, d1, n2, d2):
    a, b = RootOfUnity(n1, d1), RootOfUnity(n2, d2)
    prod = (a * b).to_complex()
    direct = cmath.exp(2j * cmath.pi * (n1 / d1 + n2 / d2))
    assert abs(prod - direct) < 1e-9


@given(st.integers(0, 300), st.integers(1, 100), st.integers(-6, 6))
def test_root_powers_match_cmath(n, d, k):
    val = (RootOfUnity(n, d) ** k).to_complex()
    direct = cmath.exp(2j * cmath.pi * n * k / d)
    assert abs(val - direct) < 1e-9


def test_character_value_zero_absorbs():
    assert (CHAR_ZERO * CHAR_ONE).is_zero
    assert CHAR_ZERO.to_complex() == 0j
    assert CHAR_ZERO.conjugate().is_zero


# ---------------------------------------------------------------------------
# the character enumeration is the dual group
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 24, 27, 35, 36, 40])
def test_enumeration_is_the_full_dual_group(q):
    group = character_group(q)
    chars = enumerate_characters(group)
    assert len(chars) == euler_phi(q) == group.size
    assert chars[0].is_trivial
    us = units(q)

    tables = []
    for chi in chars:
        values = {a: evaluate(chi, a) for a in range(q)}
        # nonzero exactly on units, with chi(1) = 1
        for a in range(q):
            assert values[a].is_zero == (math.gcd(a, q) != 1)
        assert values[1 % q] == CHAR_ONE
        # complete multiplicativity on units (exact root arithmetic)
        for a in us:
            for b in us:
                assert values[a * b % q] == values[a] * values[b]
        tables.append(tuple(values[a].root for a in us))
    # characters are pairwise distinct
    assert len(set(tables)) == len(chars)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 12, 15, 16, 21, 24])
def test_orthogonality_relations(q):
    chars = enumerate_characters(character_group(q))
    us = units(q)
    for chi in chars:
        total = sum(evaluate(chi, a).to_complex() for a in us)
        if chi.is_trivial:
            assert abs(total - len(us)) < TOL
        else:
            assert abs(total) < TOL
    for a in us:
        total = sum(evaluate(chi, a).to_complex() for chi in chars)
        if a == 1 % q:
            assert abs(total - len(chars)) < TOL
        else:
            assert abs(total) < TOL


def test_character_index_round_trip():
    for q in (1, 2, 5, 8, 12, 24, 45):
        group = character_group(q)
        for i in range(group.size):
            chi = group.character_at(i)
            assert chi.index == i
            assert group.index_of(chi) == i
    with pytest.raises(ValueError):
        character_group(5).character_at(4)


def test_evaluate_agrees_with_component_product():
    for q in (15, 24, 45, 56):
        group = character_group(q)
        for chi in enumerate_characters(group):
            comps = chi.component_characters()
            for a in units(q):
                direct = evaluate(chi, a).to_complex()
                via = 1 + 0j
                for comp in comps:
                    via *= evaluate(comp, a % comp.modulus).to_complex()
                assert abs(direct - via) < TOL


def test_conjugate_character():
    for q in (5, 8, 13):
        for chi in enumerate_characters(character_group(q)):
            bar = chi.conjugate()
            for a in units(q):
                assert evaluate(bar, a) == evaluate(chi, a).conjugate()


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def test_parity_against_direct_evaluation():
    for q in (1, 2, 3, 4, 5, 8, 9, 15, 16, 21, 24, 40):
        for chi in enumerate_characters(character_group(q)):
            flags = parity_flags(chi)
            minus_one = evaluate(chi, q - 1 if q > 1 else 0)
            assert flags.is_even == (minus_one == CHAR_ONE)
            comp_even = all(
                evaluate(comp, comp.modulus - 1 if comp.modulus > 1 else 0) == CHAR_ONE
                for comp in chi.component_characters()
            )
            assert flags.is_completely_even == comp_even


def test_even_but_not_completely_even_exists_mod_15():
    found = [
        chi
        for chi in enumerate_characters(character_group(15))
        if parity_flags(chi).is_even and not parity_flags(chi).is_completely_even
    ]
    assert found, "mod 15 must admit an even character with odd components"


# ---------------------------------------------------------------------------
# conductor and primitivity
# ---------------------------------------------------------------------------


def test_conductor_matches_definition_up_to_60():
    for q in range(1, 61):
        for chi in enumerate_characters(character_group(q)):
            assert conductor(chi) == conductor_direct(chi)


def test_definitional_conductor_table_matches_oracle():
    for q in [*range(1, 101), 128, 144, 150, 180, 192, 200]:
        table = _definitional_conductors(q)
        chars = enumerate_characters(character_group(q))
        assert len(table) == len(chars)
        for chi in chars:
            assert table[chi.index] == conductor_direct(chi)


def test_conductor_crosscheck_fires_on_mismatch(monkeypatch):
    # a wrong component formula must be caught by the definitional table
    monkeypatch.setattr(character_module, "_local_conductor", lambda struct, exps: struct.modulus)
    conductor.cache_clear()
    chi = character_group(9).character_from_exponents(((3,),))
    try:
        with pytest.raises(RuntimeError, match="conductor mismatch"):
            conductor(chi)
        # character_tables runs the same cross-check on every character
        with pytest.raises(RuntimeError, match="conductor mismatch"):
            character_tables(9)
    finally:
        conductor.cache_clear()


def test_character_tables_match_per_character_oracles():
    # character_tables against each per-character counterpart
    for q in [*range(1, 61), 64, 128, 144, 150, 180, 192, 200, 210, 256, 300]:
        tables = character_tables(q)
        chars = enumerate_characters(character_group(q))
        assert tables.exponents.shape[0] == len(chars) == tables.values.shape[0]
        assert tables.values.shape[1] == q
        for i, chi in enumerate(chars):
            assert tables.exponents[i].tolist() == [k for comp in chi.exponents for k in comp]
            assert np.array_equal(tables.values[i], character_value_table(chi)), (q, i)
            exact = [evaluate(chi, a).to_complex() for a in range(q)]
            assert tables.values[i].tolist() == exact, (q, i)
            assert tables.labels[i] == chi.label
            assert tables.conductors[i] == conductor_direct(chi), (q, i)
            assert tables.completely_even[i] == parity_flags(chi).is_completely_even, (q, i)
            assert tables.conjugate[i] == chi.conjugate().index, (q, i)
        no_values = character_tables(q, values=False)
        assert no_values.values is None and no_values.labels == tables.labels
        assert np.array_equal(no_values.conductors, tables.conductors)


def test_conductor_frozen_values():
    group9 = character_group(9)
    # exponent 3 has order 2, factors through mod 3
    chi = group9.character_from_exponents(((3,),))
    assert conductor(chi) == 3
    assert not is_primitive(chi)
    assert conductor(group9.trivial_character()) == 1


def test_primitive_counts_frozen():
    def count(q):
        return sum(is_primitive(c) for c in enumerate_characters(character_group(q)))

    assert count(1) == 1
    assert count(2) == 0
    assert count(4) == 1
    assert count(8) == 2
    assert count(5) == 3
    assert count(9) == 4
    # multiplicative over coprime parts: primitive mod 45 = prim(9)*prim(5)
    assert count(45) == count(9) * count(5)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_label_round_trip_exhaustive_small():
    for q in list(range(1, 50)) + [64, 72, 90, 128]:
        for chi in enumerate_characters(character_group(q)):
            label = character_label(chi)
            assert label == chi.label
            back = parse_character_label(label)
            assert back.modulus == q
            assert back.exponents == chi.exponents
            assert back.index == chi.index


def test_label_frozen_forms():
    assert character_group(5).character_at(2).label == "5:5^1=2"
    assert character_group(8).character_at(1).label == "8:2^3=0.1"
    assert character_group(15).character_at(3).label.startswith("15:3^1=")


def test_label_contains_no_csv_delimiters():
    for q in range(1, 130):
        for chi in enumerate_characters(character_group(q)):
            assert "," not in chi.label


def test_parse_label_rejects_malformed():
    for bad in (
        "",
        "5",
        "5:5^1=7",        # exponent out of range
        "5:3^1=1",        # wrong prime block
        "15:3^1=1",       # missing component
        "8:2^3=1",        # wrong shape for two-generator component
        "8:2^3=0.1.2",    # too many exponents
        "abc:5^1=1",
    ):
        with pytest.raises(ValueError):
            parse_character_label(bad)


# ---------------------------------------------------------------------------
# products across coprime moduli
# ---------------------------------------------------------------------------


def test_product_character_values():
    g3, g5 = character_group(3), character_group(5)
    for chi1 in enumerate_characters(g3):
        for chi2 in enumerate_characters(g5):
            chi = product_character(chi1, chi2)
            assert chi.modulus == 15
            for a in units(15):
                expected = evaluate(chi1, a % 3).to_complex() * evaluate(chi2, a % 5).to_complex()
                assert abs(evaluate(chi, a).to_complex() - expected) < TOL


def test_product_character_rejects_common_factor():
    chi6 = character_group(6).trivial_character()
    chi4 = character_group(4).trivial_character()
    with pytest.raises(ValueError):
        product_character(chi6, chi4)


def test_group_modulus_capacity():
    with pytest.raises(ValueError):
        character_group(10**6 + 1)


def test_values_have_order_dividing_group_exponent():
    for q in (5, 8, 16, 21):
        group = character_group(q)
        prof = multiplicative_profile(factorize(q))
        assert prof.phi == group.size
        for chi in enumerate_characters(group):
            for a in units(q):
                root = evaluate(chi, a).root
                assert group.exponent_lcm % root.den == 0
