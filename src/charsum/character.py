"""Dirichlet characters mod q over explicit generators of each (Z/p^a)*.

A character is addressed by its exponent vector relative to the canonical
generators from `charsum.arith`, so enumeration order, serialized labels,
and everything derived from them is reproducible run to run.  Values are
exact roots of unity e(t/L) = exp(2*pi*i*t/L); they are converted to
floating complex only inside sum accumulators.

Value tables come from one exact integer product: with L the per-modulus
matrix of scaled discrete logs, the flat exponent vectors k of any set of
characters give every value exponent as (k @ L) mod D.  One row is
`charsum.sums.character_value_table`; every character of q at once, with
labels, conductors, parities and conjugates, is `character_tables(q)`.
The per-character routines (`conductor`, `parity_flags`, `evaluate`) stay
as the oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from charsum.arith import (
    Factorization,
    UnitGroupStructure,
    discrete_log_table,
    divisors,
    factorize,
    multiplicative_profile,
    unit_group_structure,
)

GROUP_MODULUS_LIMIT = 10**6


# ---------------------------------------------------------------------------
# exact roots of unity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_complex(num: int, den: int) -> complex:
    # exact on the quarter turns so that +-1-valued characters stay integral
    if den == 1:
        return complex(1.0, 0.0)
    if den == 2:
        return complex(-1.0, 0.0)
    if den == 4:
        return complex(0.0, 1.0) if num == 1 else complex(0.0, -1.0)
    angle = 2.0 * math.pi * num / den
    return complex(math.cos(angle), math.sin(angle))


@lru_cache(maxsize=None)
def _roots_for_denominator(d: int) -> np.ndarray:
    """e(t/d) for t in [0, d) as a read-only complex array.

    Entry t is RootOfUnity(t, d).to_complex(): the reduced fraction's root.
    """
    gcds = [math.gcd(t, d) for t in range(d)]
    roots = np.array([_root_complex(t // g, d // g) for t, g in enumerate(gcds)], dtype=np.complex128)
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class RootOfUnity:
    """e(num/den), stored reduced with 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"denominator must be positive, got {self.den}")
        num = self.num % self.den
        g = math.gcd(num, self.den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        den = math.lcm(self.den, other.den)
        num = self.num * (den // self.den) + other.num * (den // other.den)
        return RootOfUnity(num, den)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.num * k, self.den)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.num, self.den)

    def to_complex(self) -> complex:
        return _root_complex(self.num, self.den)


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


@dataclass(frozen=True)
class CharacterValue:
    """A character value: zero, or an exact root of unity."""

    root: RootOfUnity | None

    @property
    def is_zero(self) -> bool:
        return self.root is None

    def __mul__(self, other: "CharacterValue") -> "CharacterValue":
        if self.root is None or other.root is None:
            return CHAR_ZERO
        return CharacterValue(self.root * other.root)

    def conjugate(self) -> "CharacterValue":
        if self.root is None:
            return CHAR_ZERO
        return CharacterValue(self.root.conjugate())

    def to_complex(self) -> complex:
        return 0j if self.root is None else self.root.to_complex()


CHAR_ZERO = CharacterValue(None)
CHAR_ONE = CharacterValue(ONE)


# ---------------------------------------------------------------------------
# character groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterGroup:
    """The character group mod q, one UnitGroupStructure per prime power."""

    modulus: int
    factorization: Factorization
    structures: tuple[UnitGroupStructure, ...]
    phi: int
    exponent_lcm: int

    def factor_orders(self) -> tuple[int, ...]:
        """All cyclic factor orders, flattened in component order."""
        return tuple(n for s in self.structures for n in s.factor_orders)

    @property
    def size(self) -> int:
        return self.phi

    def trivial_character(self) -> "DirichletCharacter":
        exps = tuple(tuple(0 for _ in s.factor_orders) for s in self.structures)
        return DirichletCharacter(self, exps)

    def character_from_exponents(
        self, exponents: tuple[tuple[int, ...], ...]
    ) -> "DirichletCharacter":
        if len(exponents) != len(self.structures):
            raise ValueError("exponent vector has the wrong number of components")
        normalized = []
        for s, comp in zip(self.structures, exponents):
            if len(comp) != len(s.factor_orders):
                raise ValueError("component exponent vector has the wrong shape")
            normalized.append(tuple(k % n for k, n in zip(comp, s.factor_orders)))
        return DirichletCharacter(self, tuple(normalized))

    def character_at(self, index: int) -> "DirichletCharacter":
        """The index-th character in canonical (lexicographic) order."""
        if not 0 <= index < self.phi:
            raise ValueError(f"character index {index} out of range for phi = {self.phi}")
        orders = self.factor_orders()
        flat = [0] * len(orders)
        rem = index
        for j in range(len(orders) - 1, -1, -1):
            flat[j] = rem % orders[j]
            rem //= orders[j]
        return self.character_from_exponents(self._unflatten(tuple(flat)))

    def index_of(self, chi: "DirichletCharacter") -> int:
        index = 0
        for k, n in zip(self._flatten(chi.exponents), self.factor_orders()):
            index = index * n + k
        return index

    def _flatten(self, exponents) -> tuple[int, ...]:
        return tuple(k for comp in exponents for k in comp)

    def _unflatten(self, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        out = []
        pos = 0
        for s in self.structures:
            width = len(s.factor_orders)
            out.append(tuple(flat[pos : pos + width]))
            pos += width
        return tuple(out)


@lru_cache(maxsize=None)
def character_group(q: int) -> CharacterGroup:
    """The Dirichlet character group mod q (q >= 1)."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q > GROUP_MODULUS_LIMIT:
        raise ValueError(f"character groups are capped at q <= {GROUP_MODULUS_LIMIT}")
    f = factorize(q)
    structures = tuple(unit_group_structure(p**a) for p, a in f.factors)
    phi = multiplicative_profile(f).phi
    exponent_lcm = math.lcm(1, *(n for s in structures for n in s.factor_orders))
    return CharacterGroup(q, f, structures, phi, exponent_lcm)


@dataclass(frozen=True)
class DirichletCharacter:
    """One character, addressed by exponents against the canonical generators."""

    group: CharacterGroup
    exponents: tuple[tuple[int, ...], ...]

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for comp in self.exponents for k in comp)

    def __call__(self, a: int) -> CharacterValue:
        return evaluate(self, a)

    def conjugate(self) -> "DirichletCharacter":
        return self.group.character_from_exponents(
            tuple(tuple(-k for k in comp) for comp in self.exponents)
        )

    def component_characters(self) -> tuple["DirichletCharacter", ...]:
        """The restriction to each prime power, as a character mod p^a."""
        comps = []
        for s, exps in zip(self.group.structures, self.exponents):
            comps.append(DirichletCharacter(character_group(s.modulus), (exps,)))
        return tuple(comps)

    @property
    def label(self) -> str:
        return character_label(self)


def enumerate_characters(group: CharacterGroup) -> list[DirichletCharacter]:
    """All phi(q) characters in lexicographic exponent order (trivial first)."""
    return [group.character_at(i) for i in range(group.phi)]


def evaluate(chi: DirichletCharacter, a: int) -> CharacterValue:
    """chi(a): zero when gcd(a, q) > 1, else an exact root of unity."""
    q = chi.group.modulus
    if math.gcd(a, q) != 1:
        return CHAR_ZERO
    D = chi.group.exponent_lcm
    num = 0
    for struct, comp in zip(chi.group.structures, chi.exponents):
        t = discrete_log_table(struct)[a % struct.modulus]
        for k, tj, order in zip(comp, t, struct.factor_orders):
            num += k * tj * (D // order)
    return CharacterValue(RootOfUnity(num, D))


# ---------------------------------------------------------------------------
# value tables: the values of many characters from one integer product
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _scaled_logs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(non-unit mask, L) for one modulus, both read-only.

    Row j of L holds the discrete log of every residue a mod q along the j-th
    cyclic factor, scaled by D/order (0 off the units), so the character with
    flat exponent vector k has chi(a) = e((k @ L)[a] / D) on the units, with
    D = exponent_lcm.
    """
    group = character_group(q)
    D = group.exponent_lcm
    a = np.arange(q, dtype=np.int64)
    rows = []
    for struct in group.structures:
        table = discrete_log_table(struct)
        local = a % struct.modulus
        for j, order in enumerate(struct.factor_orders):
            tj = np.array([t[j] if t is not None else 0 for t in table], dtype=np.int64)
            rows.append(tj[local] * (D // order))
    logs = np.array(rows, dtype=np.int64).reshape(len(rows), q)
    nonunit = np.gcd(a, q) != 1
    for arr in (nonunit, logs):
        arr.setflags(write=False)
    return nonunit, logs


def _exponent_rows(group: CharacterGroup) -> np.ndarray:
    """The flat exponent vector of every character, in enumeration order, as (phi, r)."""
    orders = group.factor_orders()
    rows = np.array(list(itertools.product(*(range(n) for n in orders))), dtype=np.int64)
    return rows.reshape(group.phi, len(orders))


def _index_radix(group: CharacterGroup) -> np.ndarray:
    """Mixed radix of the enumeration: the character with flat exponent row k has index k @ radix."""
    orders = group.factor_orders()
    return np.array([math.prod(orders[j + 1 :]) for j in range(len(orders))], dtype=np.int64)


def _value_exponents(group: CharacterGroup, exponents: np.ndarray) -> np.ndarray:
    """num with chi(a) = e(num[..., a] / D) on the units, for each flat exponent row.

    One exact integer product, (exponents @ L) mod D.
    """
    _, logs = _scaled_logs(group.modulus)
    num = exponents @ logs
    num %= group.exponent_lcm
    return num


def _value_table(group: CharacterGroup, exponents: np.ndarray) -> np.ndarray:
    """chi(a) for a in [0, q) for each flat exponent row (0 off the units)."""
    nonunit, _ = _scaled_logs(group.modulus)
    table = _roots_for_denominator(group.exponent_lcm)[_value_exponents(group, exponents)]
    table[..., nonunit] = 0
    return table


class ParityFlags(NamedTuple):
    is_even: bool
    is_completely_even: bool


def parity_flags(chi: DirichletCharacter) -> ParityFlags:
    """Parity of chi and of every prime-power component.

    is_even means chi(-1) = 1; is_completely_even means every component
    satisfies chi_i(-1) = 1, which is strictly stronger for composite q.
    """
    comp_even = []
    for comp in chi.component_characters():
        pp = comp.modulus
        comp_even.append(evaluate(comp, pp - 1).root == ONE)
    is_completely_even = all(comp_even)
    q = chi.group.modulus
    is_even = evaluate(chi, q - 1).root == ONE
    return ParityFlags(is_even=is_even, is_completely_even=is_completely_even)


# ---------------------------------------------------------------------------
# conductor and primitivity
# ---------------------------------------------------------------------------


def _local_conductor(struct: UnitGroupStructure, exps: tuple[int, ...]) -> int:
    p, alpha = struct.prime, struct.alpha
    if struct.kind == "cyclic":
        (k,) = exps
        if k == 0:
            return 1
        v = 0
        while k % p == 0 and v < alpha - 1:
            k //= p
            v += 1
        return p ** (alpha - v)
    eps, k = exps
    if k == 0:
        return 1 if eps == 0 else 4
    v = 0
    while k % 2 == 0:
        k //= 2
        v += 1
    return 2 ** (alpha - v)


@lru_cache(maxsize=None)
def _definitional_conductors(q: int) -> tuple[int, ...]:
    """The conductor of every character mod q by definition, indexed by chi.index.

    With num the exact value exponents of every character (`_value_exponents`,
    the product behind every value table), chi_i is trivial at the unit u
    when num[i, u] = 0.  The conductor of chi_i is the smallest f | q with
    num[i, u] = 0 for every unit u = 1 (mod f).
    """
    group = character_group(q)
    nonunit, _ = _scaled_logs(q)
    units = np.flatnonzero(~nonunit)
    trivial = _value_exponents(group, _exponent_rows(group))[:, units] == 0
    found = np.zeros(group.phi, dtype=np.int64)
    for f in divisors(q):
        ok = trivial[:, units % f == 1 % f].all(axis=1)
        found[(found == 0) & ok] = f
    return tuple(int(f) for f in found)


_CONDUCTOR_CROSSCHECK_LIMIT = 200


@lru_cache(maxsize=1 << 16)
def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi factors through a character mod f.

    Computed per component from exponent divisibility; for small moduli the
    definitional factor-through test, one exact integer table per modulus,
    runs as a safety net.
    """
    f = 1
    for struct, exps in zip(chi.group.structures, chi.exponents):
        f *= _local_conductor(struct, exps)
    if chi.group.modulus <= _CONDUCTOR_CROSSCHECK_LIMIT:
        direct = _definitional_conductors(chi.group.modulus)[chi.index]
        if direct != f:
            raise _conductor_mismatch(character_label(chi), f, direct)
    return f


def _conductor_mismatch(label: str, components: int, direct: int) -> RuntimeError:
    return RuntimeError(
        f"conductor mismatch for {label}: components give {components}, definition gives {direct}"
    )


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.group.modulus


# ---------------------------------------------------------------------------
# labels and products
# ---------------------------------------------------------------------------


def character_label(chi: DirichletCharacter) -> str:
    """Textual form "q:p^a=k;..." with one exponent block per prime power.

    Two-generator components (moduli 2^a, a >= 3) serialize both exponents
    separated by a dot, e.g. "8:2^3=0.1".  No label character collides with
    the CSV delimiter.
    """
    parts = []
    for (p, a), comp in zip(chi.group.factorization.factors, chi.exponents):
        parts.append(f"{p}^{a}=" + ".".join(str(k) for k in comp))
    return f"{chi.group.modulus}:" + ";".join(parts)


def parse_character_label(label: str) -> DirichletCharacter:
    """Inverse of character_label; round-trips bit for bit."""
    head, sep, tail = label.partition(":")
    if not sep:
        raise ValueError(f"malformed character label {label!r}")
    q = int(head)
    group = character_group(q)
    blocks = tail.split(";") if tail else []
    if len(blocks) != len(group.structures):
        raise ValueError(f"label {label!r} has the wrong number of components for q = {q}")
    exponents = []
    for block, (p, a), struct in zip(blocks, group.factorization.factors, group.structures):
        name, sep, exps = block.partition("=")
        if not sep or name != f"{p}^{a}":
            raise ValueError(f"label component {block!r} does not match prime power {p}^{a}")
        comp = tuple(int(x) for x in exps.split("."))
        if len(comp) != len(struct.factor_orders):
            raise ValueError(f"label component {block!r} has the wrong shape")
        for k, order in zip(comp, struct.factor_orders):
            if not 0 <= k < order:
                raise ValueError(f"exponent {k} out of range [0, {order}) in {label!r}")
        exponents.append(comp)
    return DirichletCharacter(group, tuple(exponents))


def product_character(
    chi1: DirichletCharacter, chi2: DirichletCharacter
) -> DirichletCharacter:
    """chi1*chi2 as a character mod q1*q2, for coprime moduli."""
    q1, q2 = chi1.group.modulus, chi2.group.modulus
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli {q1} and {q2} are not coprime")
    group = character_group(q1 * q2)
    by_prime = {}
    for chi in (chi1, chi2):
        for (p, _), comp in zip(chi.group.factorization.factors, chi.exponents):
            by_prime[p] = comp
    exponents = tuple(by_prime[p] for p, _ in group.factorization.factors)
    return group.character_from_exponents(exponents)


# ---------------------------------------------------------------------------
# every character of one modulus at once
# ---------------------------------------------------------------------------


class CharacterTables(NamedTuple):
    """Every character mod q; row i is the character of index i."""

    exponents: np.ndarray  # (phi, r) flat exponent vectors
    labels: list[str]  # character_label of each character
    conductors: np.ndarray  # (phi,) int64
    completely_even: np.ndarray  # (phi,) bool, parity_flags(chi).is_completely_even
    conjugate: np.ndarray  # (phi,) int64, the index of conj(chi)
    values: np.ndarray | None  # (phi, q) complex128, chi(a) and 0 off the units


def character_tables(q: int, values: bool = True) -> CharacterTables:
    """Everything the sweeps read about the characters mod q, in enumeration order.

    The values are one exact integer product, the same one that gives
    character_value_table its single row.  Label blocks, local conductors and
    chi_p(-1) are found once per component exponent vector and combined by
    outer products: enumeration order is lexicographic in the flat exponent
    vector, whose components are contiguous.  Conductors keep the component
    formula and, for q <= 200, the definitional cross-check.  Not cached:
    the value table has phi * q entries, so callers that need no values
    (and may pass a large q) leave it out with values=False.
    """
    group = character_group(q)
    exps = _exponent_rows(group)
    blocks: list[list[str]] = []
    conductors = np.ones(1, dtype=np.int64)
    even = np.ones(1, dtype=bool)
    for (p, a), struct in zip(group.factorization.factors, group.structures):
        local = list(itertools.product(*(range(n) for n in struct.factor_orders)))
        blocks.append([f"{p}^{a}=" + ".".join(str(k) for k in e) for e in local])
        local_conductors = [_local_conductor(struct, e) for e in local]
        conductors = np.multiply.outer(conductors, local_conductors).ravel()
        # chi_p(-1) = 1 iff sum_j k_j * t_j / order_j is an integer, t = dlog(-1)
        t = discrete_log_table(struct)[struct.modulus - 1]
        d = math.lcm(*struct.factor_orders)
        steps = [d // n for n in struct.factor_orders]
        local_even = [sum(k * tj * s for k, tj, s in zip(e, t, steps)) % d == 0 for e in local]
        even = np.logical_and.outer(even, local_even).ravel()
    labels = [f"{q}:" + ";".join(parts) for parts in itertools.product(*blocks)]
    if q <= _CONDUCTOR_CROSSCHECK_LIMIT:
        direct = np.array(_definitional_conductors(q), dtype=np.int64)
        wrong = np.flatnonzero(direct != conductors)
        if wrong.size:
            i = int(wrong[0])
            raise _conductor_mismatch(labels[i], int(conductors[i]), int(direct[i]))
    conjugate = (-exps % np.array(group.factor_orders(), dtype=np.int64)) @ _index_radix(group)
    table = _value_table(group, exps) if values else None
    return CharacterTables(exps, labels, conductors, even, conjugate, table)
