"""Exact integer arithmetic underneath the character machinery.

Factorization is deterministic trial division (the moduli this library
targets are desk scale), and each unit group (Z/p^a)* is realized through
explicit generators: the smallest primitive root for odd prime powers and
for 2 and 4, and the pair (-1, 5) for 2^a with a >= 3.  Residues are
normalized to [0, q-1] throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

FACTOR_INPUT_LIMIT = 10**12

_TRIAL_DIVISION_LIMIT = 10**6


class NotInvertibleError(ValueError):
    """Raised when an inverse is requested mod q for gcd(a, q) > 1."""


# ---------------------------------------------------------------------------
# factorization and multiplicative functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """n = prod p_i^a_i with primes strictly ascending; empty for n = 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**a for p, a in self.factors)

    @property
    def smallest_prime(self) -> int | None:
        return self.factors[0][0] if self.factors else None

    @property
    def greatest_prime(self) -> int | None:
        return self.factors[-1][0] if self.factors else None


@dataclass(frozen=True)
class MultiplicativeProfile:
    """phi(n), omega(n), tau(n), mu(n) read off one factorization."""

    phi: int
    omega: int
    tau: int
    mu: int


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Canonical prime-power decomposition of n by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > FACTOR_INPUT_LIMIT:
        raise ValueError(f"factorize is capped at n <= {FACTOR_INPUT_LIMIT}, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    p = 2
    while p <= _TRIAL_DIVISION_LIMIT and p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        # no prime factor <= 10^6 and m <= 10^12, so the cofactor is prime
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def multiplicative_profile(f: Factorization) -> MultiplicativeProfile:
    phi = 1
    tau = 1
    for p, a in f.factors:
        phi *= p ** (a - 1) * (p - 1)
        tau *= a + 1
    squarefree = all(a == 1 for _, a in f.factors)
    mu = (-1) ** len(f.factors) if squarefree else 0
    return MultiplicativeProfile(phi=phi, omega=len(f.factors), tau=tau, mu=mu)


@lru_cache(maxsize=1 << 16)
def euler_phi(n: int) -> int:
    return multiplicative_profile(factorize(n)).phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, a in factorize(n).factors:
        divs = [d * p**e for d in divs for e in range(a + 1)]
    return sorted(divs)


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n).factors)


# ---------------------------------------------------------------------------
# modular inverses, CRT, square roots of unity
# ---------------------------------------------------------------------------


def mod_inverse(a: int, q: int) -> int:
    """The inverse of a mod q, normalized to [0, q-1]; q = 1 gives 0."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return 0
    try:
        return pow(a, -1, q)
    except ValueError as exc:
        raise NotInvertibleError(f"{a} is not invertible mod {q}") from exc


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """x mod m1*m2 with x = r1 (mod m1) and x = r2 (mod m2), coprime moduli."""
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    m = m1 * m2
    x = r1 * m2 * mod_inverse(m2, m1) + r2 * m1 * mod_inverse(m1, m2)
    return x % m


def _local_square_roots_of_unity(p: int, a: int) -> list[int]:
    pp = p**a
    if p != 2:
        return [1, pp - 1]
    if a == 1:
        return [1]
    if a == 2:
        return [1, 3]
    half = pp // 2
    return [1, half - 1, half + 1, pp - 1]


def square_roots_of_unity(q: int) -> list[int]:
    """All y in [0, q) with y^2 = 1 (mod q), ascending.

    Composed by CRT from the local solutions: +-1 for odd prime powers,
    {1} mod 2, {1, 3} mod 4, and +-1, +-1 + 2^(a-1) mod 2^a for a >= 3.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    sols: list[tuple[int, int]] = [(0, 1)]
    for p, a in factorize(q).factors:
        pp = p**a
        local = _local_square_roots_of_unity(p, a)
        sols = [(crt_pair(r, m, s, pp), m * pp) for r, m in sols for s in local]
    return sorted(r for r, _ in sols)


# ---------------------------------------------------------------------------
# unit group structure of (Z/p^a)*
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupStructure:
    """(Z/modulus)* as an explicit product of cyclic factors.

    Odd prime powers, 2 and 4 are cyclic: generators = (g,) with g the
    smallest primitive root (g = 1 for modulus 2, where the group is
    trivial).  For 2^a with a >= 3 the generators are (-1, 5) with factor
    orders (2, 2^(a-2)).
    """

    modulus: int
    prime: int
    alpha: int
    generators: tuple[int, ...]
    factor_orders: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "two-adic" if len(self.generators) == 2 else "cyclic"

    @property
    def phi(self) -> int:
        return math.prod(self.factor_orders)

    def discrete_log(self, a: int) -> tuple[int, ...]:
        """Exponent vector (t_j) with a = prod g_j^t_j (mod modulus)."""
        pp = self.modulus
        a %= pp
        if math.gcd(a, pp) != 1:
            raise ValueError(f"{a} is not a unit mod {pp}")
        if self.kind == "cyclic":
            (g,) = self.generators
            (order,) = self.factor_orders
            return (_cyclic_discrete_log(g, a, order, pp),)
        eps = 0 if a % 4 == 1 else 1
        b = a if eps == 0 else (pp - a) % pp
        k = _cyclic_discrete_log(5, b, self.factor_orders[1], pp)
        return (eps, k)

    def residue(self, exponents: tuple[int, ...]) -> int:
        """Reconstruct prod g_j^t_j mod modulus from an exponent vector."""
        if len(exponents) != len(self.generators):
            raise ValueError("exponent vector has the wrong shape")
        x = 1
        for g, t in zip(self.generators, exponents):
            x = x * pow(g, t % self.phi, self.modulus) % self.modulus
        return x % self.modulus


def _cyclic_discrete_log(base: int, target: int, order: int, modulus: int) -> int:
    """Discrete log in the cyclic group <base> of the given order, by baby-step giant-step."""
    target %= modulus
    m = math.isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * base % modulus
    factor = pow(mod_inverse(base, modulus), m, modulus)
    y = target
    for i in range(m + 1):
        j = baby.get(y)
        if j is not None:
            return (i * m + j) % order
        y = y * factor % modulus
    raise ValueError(f"{target} is not a power of {base} mod {modulus}")


def _smallest_primitive_root(pp: int, p: int, phi: int) -> int:
    if phi == 1:
        return 1
    checks = [phi // r for r in distinct_prime_factors(phi)]
    for g in range(2, pp):
        if g % p == 0:
            continue
        if all(pow(g, c, pp) != 1 for c in checks):
            return g
    raise ValueError(f"no primitive root mod {pp}")  # cannot happen for prime powers


def _verify_generator_orders(struct: UnitGroupStructure) -> None:
    pp = struct.modulus
    for g, order in zip(struct.generators, struct.factor_orders):
        if pow(g, order, pp) != 1 % pp:
            raise RuntimeError(f"generator {g} mod {pp} does not have order {order}")
        for r in distinct_prime_factors(order) if order > 1 else ():
            if pow(g, order // r, pp) == 1:
                raise RuntimeError(f"generator {g} mod {pp} has order below {order}")


@lru_cache(maxsize=None)
def unit_group_structure(pp: int) -> UnitGroupStructure:
    """Structure of (Z/pp)* for a prime power pp."""
    f = factorize(pp)
    if len(f.factors) != 1:
        raise ValueError(f"{pp} is not a prime power")
    p, a = f.factors[0]
    if p == 2 and a >= 3:
        struct = UnitGroupStructure(pp, p, a, (pp - 1, 5), (2, 2 ** (a - 2)))
    else:
        phi = p ** (a - 1) * (p - 1)
        g = _smallest_primitive_root(pp, p, phi)
        struct = UnitGroupStructure(pp, p, a, (g,), (phi,))
    _verify_generator_orders(struct)
    return struct


@lru_cache(maxsize=None)
def discrete_log_table(struct: UnitGroupStructure) -> tuple[tuple[int, ...] | None, ...]:
    """Exponent vectors for every residue mod struct.modulus (None off the units)."""
    pp = struct.modulus
    table: list[tuple[int, ...] | None] = [None] * pp
    if struct.kind == "cyclic":
        (g,) = struct.generators
        (order,) = struct.factor_orders
        x = 1 % pp
        for t in range(order):
            table[x] = (t,)
            x = x * g % pp
    else:
        order2 = struct.factor_orders[1]
        for eps in (0, 1):
            x = 1 if eps == 0 else pp - 1
            for t in range(order2):
                table[x] = (eps, t)
                x = x * 5 % pp
    return tuple(table)
