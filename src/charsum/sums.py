"""Character-sum evaluation: complete and incomplete Kloosterman-type sums
chi(m*a + n*abar), Gauss sums, quadratic exponential sums, second moments,
and bilinear forms over dyadic ranges.

All accumulation happens in double precision from exact root-of-unity
terms.  Wherever two evaluation strategies exist (second moments, bilinear
forms) both are exposed and must agree to `tolerance`.

The complete-sum kernels rest on the divisor-orbit reduction.  Write any m
mod q as m = g*u with g = gcd(m, q) and u a unit; the substitution
a -> u^{-1} a turns chi(g*u*a + n*abar) into chi(g*b + (u*n)*bbar), so
Lambda(g*u, n) = Lambda(g, u*n).  Row m of the q x q table is therefore row
gcd(m, q) permuted, and only the tau(q) divisor rows are computed (row 1
for the units, row q = 0 for m = 0).

Each divisor row is one cyclic correlation.  On the units,
chi(m*a + n*abar) = conj(chi(a)) * chi(n + m*a^2), so row g is
sum over x of H_g(x) chi(n + x), where H_g is the histogram of g*a^2 weighted
by conj(chi(a)); one FFT along each row gives every n, in O(tau*q) memory.
The weighted second moment follows from the same identity.  With P the
lambda_a conj(chi(a))-weighted histogram of a^2, row m has spectrum
P^(k*m) times C^(k), where C^ is the FFT of chi's table.  Parseval and a
sum over m then give (1/q) * sum over k of |C^(k)|^2 * d * S_d, with
d = gcd(k, q) and S_d the sum of |P^(j)|^2 over the multiples j of d.

Sums against e(n*x/q) at every twist n at once (all Gauss sums of a
character, all quadratic sums e((a*x^2 + b*x)/q) of a modulus) share one
kernel, `twist_sums`: an unscaled inverse FFT along the last axis.

Each pointwise evaluator of one character that a sweep also needs (complete
sums, the complete-sum table, unit averages, pair sums, the reduced and
weighted second moments) is a thin wrapper over a private core that takes
chi's value table, so the sweeps can pass a row of `character_tables(q)`
and get the same arithmetic.  Incomplete sums and Gauss sums have no core:
the sweeps sum those directly over their stacked rows, in the same order.

Dyadic ranges follow the convention x ~ X meaning X < x <= 2X.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from charsum.arith import divisors, mod_inverse, square_roots_of_unity
from charsum.character import (
    GROUP_MODULUS_LIMIT,
    DirichletCharacter,
    _roots_for_denominator,
    _value_table,
    evaluate,
    is_primitive,
)

NAIVE_SECOND_MOMENT_LIMIT = 400
BILINEAR_TERM_LIMIT = 10**8
# The naive bilinear oracle costs about 4 us per term: 10**6 terms is about 4 s.
NAIVE_BILINEAR_TERM_LIMIT = 10**6


class CapacityError(RuntimeError):
    """The requested computation exceeds the documented desk-scale caps."""


def tolerance(terms: int | float, bound: float = 1.0) -> float:
    """Absolute error budget for a sum of `terms` terms of modulus <= bound."""
    return 2.0**-40 * terms * bound


@dataclass(frozen=True)
class IntervalSpec:
    """The residues start, start+1, ..., start+length-1 taken mod q."""

    start: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"interval length must be >= 0, got {self.length}")


class WeightVector:
    """Coefficients lambda_a on the reduced residues mod q.

    Missing units carry weight 0; keys off the units are rejected.  `bound`
    is the sup of |lambda_a|, used in envelope reports.
    """

    def __init__(self, q: int, values: dict[int, complex]):
        if q < 1:
            raise ValueError(f"modulus must be positive, got {q}")
        self.q = q
        self.values: dict[int, complex] = {}
        for a, v in values.items():
            a %= q
            if math.gcd(a, q) != 1:
                raise ValueError(f"weight attached to non-unit {a} mod {q}")
            self.values[a] = complex(v)
        self.bound = max((abs(v) for v in self.values.values()), default=0.0)

    @classmethod
    def constant(cls, q: int, value: complex = 1.0) -> "WeightVector":
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        return cls(q, {a: value for a in units})

    def as_array(self) -> np.ndarray:
        arr = np.zeros(self.q, dtype=np.complex128)
        for a, v in self.values.items():
            arr[a] = v
        return arr


@dataclass(frozen=True)
class BilinearInstance:
    """One bilinear-form instance: coefficient vectors over dyadic ranges.

    alpha is indexed by m in (m_scale, 2*m_scale], beta by n in
    (n_scale, 2*n_scale]; the inner variable a runs over the units in
    (a_scale, 2*a_scale].
    """

    a_scale: int
    m_scale: int
    n_scale: int
    alpha: tuple[complex, ...]
    beta: tuple[complex, ...]

    def __post_init__(self):
        for name, scale in (("a", self.a_scale), ("m", self.m_scale), ("n", self.n_scale)):
            if scale < 1:
                raise ValueError(f"{name}_scale must be >= 1, got {scale}")
        if len(self.alpha) != self.m_scale:
            raise ValueError("alpha must have one entry per m in (M, 2M]")
        if len(self.beta) != self.n_scale:
            raise ValueError("beta must have one entry per n in (N, 2N]")

    @property
    def term_count(self) -> int:
        return self.a_scale * self.m_scale * self.n_scale

    @property
    def alpha_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.alpha))

    @property
    def beta_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.beta))


# ---------------------------------------------------------------------------
# per-modulus and per-character tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _modulus_tables(q: int):
    """(units, inverse table, unit mask, e(t/q) table) for one modulus, read-only.

    Every per-modulus table starts here, so the modulus cap of the character
    groups holds for the sums that take no character too.
    """
    if q > GROUP_MODULUS_LIMIT:
        raise ValueError(f"per-modulus tables are capped at q <= {GROUP_MODULUS_LIMIT}, got {q}")
    unit_mask = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    units = np.nonzero(unit_mask)[0].astype(np.int64)
    inv = np.zeros(q, dtype=np.int64)
    if q > 1:
        for a in units:
            inv[a] = pow(int(a), -1, q)
    for arr in (units, inv, unit_mask):
        arr.setflags(write=False)
    return units, inv, unit_mask, _roots_for_denominator(q)


@lru_cache(maxsize=None)
def _divisor_orbits(q: int):
    """(divisors, slot, unit) for one modulus, all read-only.

    m = divisors[slot[m]] * unit[m] (mod q) for every m in [0, q): slot[m]
    indexes gcd(m, q) in the ascending divisor list, and unit[m] is the
    smallest unit with that property, so unit[m] = m on the units.
    """
    units, _, _, _ = _modulus_tables(q)
    divs = np.array(divisors(q), dtype=np.int64)
    slot = np.empty(q, dtype=np.int64)
    unit = np.full(q, q, dtype=np.int64)
    for i, g in enumerate(divs):
        m = g * units % q
        slot[m] = i
        np.minimum.at(unit, m, units)
    for arr in (divs, slot, unit):
        arr.setflags(write=False)
    return divs, slot, unit


@lru_cache(maxsize=None)
def character_value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(a) for a in [0, q) as a read-only complex array (0 off the units).

    The one-row case of the integer product behind `character_tables`.
    """
    flat = np.array([k for comp in chi.exponents for k in comp], dtype=np.int64)
    table = _value_table(chi.group, flat)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# complete and incomplete sums
# ---------------------------------------------------------------------------


def complete_lambda(chi: DirichletCharacter, m: int, n: int) -> complex:
    """Sum of chi(m*a + n*abar) over all units a mod q."""
    return _complete_lambda(character_value_table(chi), m, n)


def _complete_lambda(tab: np.ndarray, m: int, n: int) -> complex:
    """complete_lambda on chi's value table (its length is q)."""
    q = len(tab)
    units, inv, _, _ = _modulus_tables(q)
    r = (m % q * units + n % q * inv[units]) % q
    return complex(tab[r].sum())


def _divisor_rows(tab: np.ndarray, gs) -> np.ndarray:
    """Complete sums at (g, t) for t in [0, q), one row per g in gs, by FFT.

    tab is chi's value table.  Row g is the correlation sum over x of
    H_g(x) chi(t + x), with H_g the conj(chi(a))-weighted histogram of g*a^2
    over the units a.  Any residues g work; the callers pass one per divisor
    class.
    """
    q = len(tab)
    units, _, _, _ = _modulus_tables(q)
    tau = len(gs)
    pos = np.asarray(gs, dtype=np.int64)[:, None] * (units * units % q)
    pos %= q
    pos += np.arange(tau, dtype=np.int64)[:, None] * q
    weights = np.broadcast_to(np.conj(tab[units]), pos.shape).ravel()
    pos = pos.ravel()
    hist = np.bincount(pos, weights.real, tau * q) + 1j * np.bincount(pos, weights.imag, tau * q)
    spectra = twist_sums(hist.reshape(tau, q))
    spectra *= np.fft.fft(tab)
    return np.fft.ifft(spectra, axis=1)


def complete_lambda_row(chi: DirichletCharacter) -> np.ndarray:
    """The values of the complete sum at (1, t) for every t in [0, q)."""
    return _divisor_rows(character_value_table(chi), (1,))[0]


def complete_lambda_table(chi: DirichletCharacter) -> np.ndarray:
    """The full q x q table of complete sums at (m, n)."""
    return _complete_lambda_table(character_value_table(chi))


def _complete_lambda_table(tab: np.ndarray) -> np.ndarray:
    """complete_lambda_table on chi's value table (its length is q).

    One gather from the tau(q) divisor rows: with m = g*u, g = gcd(m, q) and
    u a unit, Lambda(m, n) = Lambda(g, u*n).  The unit rows are row 1
    permuted by n -> m*n.
    """
    q = len(tab)
    divs, slot, unit = _divisor_orbits(q)
    rows = _divisor_rows(tab, divs)
    t = np.arange(q, dtype=np.int64)
    idx = unit[:, None] * t[None, :]
    idx %= q
    idx += slot[:, None] * q
    return rows.ravel().take(idx)


def incomplete_lambda(
    chi: DirichletCharacter, m: int, n: int, interval: IntervalSpec
) -> complex:
    """Sum of chi(m*a + n*abar) over units a in the given interval."""
    tab = character_value_table(chi)
    q = len(tab)
    if interval.length > q:
        raise ValueError(f"interval length {interval.length} exceeds the modulus {q}")
    if interval.length == 0:
        return 0j
    units, inv, unit_mask, _ = _modulus_tables(q)
    idx = (interval.start + np.arange(interval.length, dtype=np.int64)) % q
    r = (m % q * idx + n % q * inv[idx]) % q
    return complex((tab[r] * unit_mask[idx]).sum())


def gauss_sum(chi: DirichletCharacter, n: int) -> complex:
    """Sum of chi(a) e(n*a/q) over a mod q."""
    tab = character_value_table(chi)
    q = len(tab)
    _, _, _, e = _modulus_tables(q)
    t = np.arange(q, dtype=np.int64)
    return complex((tab * e[(n % q) * t % q]).sum())


def twist_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of rows[..., x] e(n*x/q) over x mod q, for every n in [0, q).

    q is the length of the last axis; one unscaled inverse FFT along it gives
    every twist n of every row at once.
    """
    return np.fft.ifft(rows, axis=-1, norm="forward")


def gauss_sum_all(chi: DirichletCharacter) -> np.ndarray:
    """Gauss sums at every twist n in [0, q), as one inverse FFT."""
    return twist_sums(character_value_table(chi))


def unit_root_char_sum(chi: DirichletCharacter) -> int:
    """Sum of chi(y) over the square roots of unity mod q.

    Each chi(y) is +-1 exactly (y^2 = 1 forces chi(y)^2 = 1), so the result
    is an exact integer.
    """
    q = chi.group.modulus
    total = 0
    for y in square_roots_of_unity(q):
        value = evaluate(chi, y)
        if value.is_zero:  # only q = 1, where y = 0 is the lone residue
            continue
        root = value.root
        if root.den == 1:
            total += 1
        elif root.den == 2:
            total -= 1
        else:
            raise RuntimeError(f"chi(y) is not +-1 at y = {y} mod {q}")
    return total


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------


def second_moment(chi: DirichletCharacter, strategy: str = "auto") -> float:
    """Sum over all (m, n) mod q of |complete_lambda(chi, m, n)|^2.

    strategy "naive" sums every (m, n) pair directly (capped at q <= 400).
    "reduced" uses the divisor-orbit reduction: row m of the table is row
    gcd(m, q) permuted, and phi(q/g) rows share gcd g, so the moment is
    sum over g | q of phi(q/g) * ||row g||^2.  "auto" picks "reduced".
    """
    q = chi.group.modulus
    if strategy == "auto":
        strategy = "reduced"
    units, inv, _, _ = _modulus_tables(q)
    tab = character_value_table(chi)
    t = np.arange(q, dtype=np.int64)
    ubar = inv[units]
    if strategy == "naive":
        if q > NAIVE_SECOND_MOMENT_LIMIT:
            raise CapacityError(
                f"naive second moment is capped at q <= {NAIVE_SECOND_MOMENT_LIMIT}, got {q}"
            )
        total = 0.0
        for m in range(q):
            r = (m * units[None, :] + t[:, None] * ubar[None, :]) % q
            rows = tab[r].sum(axis=1)
            total += float((rows.real**2 + rows.imag**2).sum())
        return total
    if strategy != "reduced":
        raise ValueError(f"unknown second-moment strategy {strategy!r}")
    return _reduced_second_moment(tab)


def _reduced_second_moment(tab: np.ndarray) -> float:
    """The "reduced" second moment on chi's value table (its length is q)."""
    divs, slot, _ = _divisor_orbits(len(tab))
    rows = _divisor_rows(tab, divs)
    norms = (rows.real**2 + rows.imag**2).sum(axis=1)
    return float((np.bincount(slot) * norms).sum())


def weighted_second_moment(chi: DirichletCharacter, weights: WeightVector) -> float:
    """Second moment of the lambda_a-weighted complete sums over (m, n).

    Spectral: (1/q) * sum over k of |C^(k)|^2 * d * S_d with d = gcd(k, q),
    where C^ is the FFT of chi's table and S_d sums |P^(j)|^2 over the
    multiples j of d, P^ being the twists of the lambda_a conj(chi(a))-weighted
    histogram of a^2.
    """
    q = chi.group.modulus
    if weights.q != q:
        raise ValueError(f"weights live mod {weights.q}, character mod {q}")
    return _weighted_second_moment(character_value_table(chi), weights)


def _weighted_second_moment(tab: np.ndarray, weights: WeightVector) -> float:
    """weighted_second_moment on chi's value table (its length is q = weights.q)."""
    q = len(tab)
    units, _, _, _ = _modulus_tables(q)
    lam = weights.as_array()[units] * np.conj(tab[units])
    squares = units * units % q
    hist = np.bincount(squares, lam.real, q) + 1j * np.bincount(squares, lam.imag, q)
    power = np.abs(twist_sums(hist)) ** 2
    sums_by_d = np.zeros(q + 1)
    for d in divisors(q):
        sums_by_d[d] = power[::d].sum()
    d_of_k = np.gcd(np.arange(q, dtype=np.int64), q)
    return float((np.abs(np.fft.fft(tab)) ** 2 * d_of_k * sums_by_d[d_of_k]).sum() / q)


# ---------------------------------------------------------------------------
# auxiliary sums
# ---------------------------------------------------------------------------


def quadratic_expsum(a: int, b: int, q: int, restricted: bool = False) -> complex:
    """Sum of e((a*x^2 + b*x)/q) over x mod q, or over units when restricted."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    units, _, _, e = _modulus_tables(q)
    x = units if restricted else np.arange(q, dtype=np.int64)
    r = (a % q * (x * x % q) + b % q * x) % q
    return complex(e[r].sum())


def quadratic_expsum_table(q: int, restricted: bool = False) -> np.ndarray:
    """quadratic_expsum(a, b, q, restricted) at every (a, b), as a q x q array.

    Entry (a, b) is the twist b of the row x -> e(a*x^2/q), which is zeroed
    off the units when restricted, so one inverse FFT per row gives every b.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    _, _, unit_mask, e = _modulus_tables(q)
    x = np.arange(q, dtype=np.int64)
    idx = x[:, None] * (x * x % q)[None, :]
    idx %= q
    rows = e[idx]
    if restricted:
        rows[:, ~unit_mask] = 0
    return twist_sums(rows)


def orthogonality_average(chi: DirichletCharacter, c: int, b: int) -> complex:
    """(1/phi) * sum of chi(c*a + b) over units a mod q.

    The closed form (chi(b) when q | c, else 0) holds for primitive chi;
    the raw average is still computed otherwise, with a warning.
    """
    if not is_primitive(chi):
        warnings.warn(
            "orthogonality_average called with a non-primitive character; "
            "the closed form does not apply",
            stacklevel=2,
        )
    return _orthogonality_average(character_value_table(chi), c, b)


def _orthogonality_average(tab: np.ndarray, c: int, b: int) -> complex:
    """orthogonality_average on chi's value table (its length is q), without the warning."""
    q = len(tab)
    units, _, _, _ = _modulus_tables(q)
    r = (c % q * units + b % q) % q
    return complex(tab[r].sum() / len(units))


def character_pair_sum(chi: DirichletCharacter, y: int, ell: int) -> complex:
    """Sum of chi(c) conj(chi(d)) over unit pairs with c = d*y (mod ell)."""
    return _character_pair_sum(character_value_table(chi), y, ell)


def _character_pair_sum(tab: np.ndarray, y: int, ell: int) -> complex:
    """character_pair_sum on chi's value table (its length is q)."""
    q = len(tab)
    if ell < 1 or q % ell != 0:
        raise ValueError(f"{ell} does not divide the modulus {q}")
    units, _, _, _ = _modulus_tables(q)
    buckets = np.zeros(ell, dtype=np.complex128)
    np.add.at(buckets, units % ell, tab[units])
    return complex((np.conj(tab[units]) * buckets[(units * (y % ell)) % ell]).sum())


def congruence_pair_count(a: int, b: int, c: int, d: int, q: int) -> int:
    """Number of (x, y) mod q with a*x + abar*y = c and b*x + bbar*y = d.

    Solvable iff gcd(a^2 - b^2, q) divides a*d - b*c, and then the count is
    exactly that gcd.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if math.gcd(a * b, q) != 1:
        raise ValueError(f"a = {a} and b = {b} must both be units mod {q}")
    g = math.gcd(a * a - b * b, q)
    return g if (a * d - b * c) % g == 0 else 0


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------


def _dyadic_values(scale: int) -> range:
    return range(scale + 1, 2 * scale + 1)


def _require_bilinear_capacity(term_count: int, strategy: str) -> None:
    """Raise CapacityError when term_count is over the cap of `strategy`."""
    if term_count > BILINEAR_TERM_LIMIT:
        raise CapacityError(f"bilinear form has {term_count} terms, cap is {BILINEAR_TERM_LIMIT}")
    if strategy == "naive" and term_count > NAIVE_BILINEAR_TERM_LIMIT:
        raise CapacityError(
            f"naive bilinear form has {term_count} terms, cap is {NAIVE_BILINEAR_TERM_LIMIT}"
        )


def bilinear_form(
    chi: DirichletCharacter, inst: BilinearInstance, strategy: str = "optimized"
) -> complex:
    """Sum of alpha_m beta_n chi(m*a + n*abar) over the dyadic box.

    strategy "naive" is the reference triple loop over exact character
    values; "optimized" precomputes a chi(m*a + n*abar) grid per a.
    """
    q = chi.group.modulus
    _require_bilinear_capacity(inst.term_count, strategy)
    a_vals = _dyadic_values(inst.a_scale)
    m_vals = _dyadic_values(inst.m_scale)
    n_vals = _dyadic_values(inst.n_scale)
    if strategy == "naive":
        total = 0j
        for a in a_vals:
            if math.gcd(a, q) != 1:
                continue
            abar = mod_inverse(a, q)
            for alpha_m, m in zip(inst.alpha, m_vals):
                for beta_n, n in zip(inst.beta, n_vals):
                    total += alpha_m * beta_n * evaluate(chi, m * a + n * abar).to_complex()
        return total
    if strategy != "optimized":
        raise ValueError(f"unknown bilinear strategy {strategy!r}")
    tab = character_value_table(chi)
    alpha = np.asarray(inst.alpha, dtype=np.complex128)
    beta = np.asarray(inst.beta, dtype=np.complex128)
    marr = np.fromiter(m_vals, dtype=np.int64)
    narr = np.fromiter(n_vals, dtype=np.int64)
    total = 0j
    for a in a_vals:
        if math.gcd(a, q) != 1:
            continue
        abar = mod_inverse(a, q)
        r = (marr[:, None] * (a % q) + narr[None, :] * abar) % q
        total += complex(alpha @ tab[r] @ beta)
    return total
