"""Verification checks: identity and bound sweeps packaged as reports.

Every check walks a family of cases, records one row per tested statement
(worst-case witness parameters included so any row can be replayed), and
aggregates into a VerificationReport.  One registry, `_CHECKS`, maps each
check name in canonical `verify all` order to its q window, its per-modulus
worker `(q, cfg) -> (cases, notes)` and its replay `(case, cfg) -> complex`;
`ALL_CHECKS`, `run_check` (name check, window clamping, sweep) and
`replay_case` (keyed by `case.check`) all read it, so adding a check is one
entry.  A single modulus is checked with
`run_check(name, ExperimentConfig(q_lo=q, q_hi=q))`.  Reports are
deterministic: seeded draws derive a private subseed per (check, modulus,
trial) cell, so results do not depend on sweep order.  Sweeps run serially in ascending q;
CHARSUM_THREADS is still validated (`thread_count`) but changes nothing else.
Each output schema is defined once: `CSV_COLUMNS`, `CaseRecord.to_json_obj()`
and `ExperimentConfig.to_dict()` are read off the dataclass fields.  Both
report writers live here: `reports_csv` joins `to_csv_row()` under the
`CSV_COLUMNS` header, and `reports_json` writes the report text from a fixed
template per case, byte-identical to the json module's two-space indented
dump of `to_json_obj()`, which stays as the reference.

Per-modulus workers batch across a modulus where they can.  Each takes
the characters of q from one `character_tables(q)` call (exponent rows,
labels, conductors, the completely-even mask, conjugate indices and the
(phi, q) value table, built by one integer product and dropped when the
worker returns) and loops over character indices only to build records;
no character object is made except for the bilinear naive oracle.
theorem1 reads S off the exact +-1 entries of its rows at the square roots
of unity, and multiplicativity finds each product character's index by
mixed-radix arithmetic on the exponent rows of q1 and q2.  lemma1 takes
every twist of every primitive character's Gauss sum from one FFT over the
primitive rows, lemma4 every quadratic sum from one FFT per q x q table,
and bound5 scans the interval windows of a block of seeded draws at once.
bound4 and vanishing read the maximum of the complete sums from the tau(q)
divisor rows and never build the q x q table.  Every witness is recomputed
pointwise, by the core of its evaluator applied to the character's row.

Witnesses picked among near-equal or noise-level values (bound4, vanishing,
multiplicativity, the lemma1 twist, lemma3, pairsum) follow one tie rule,
`_first_near_max`: the first entry in row-major order within the check's
own tolerance of the maximum, so a change of summation order moves no
witness.  lemma4 and bound5 take the first exact maximum.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from charsum.arith import divisors, factorize, multiplicative_profile, square_roots_of_unity
from charsum.character import _index_radix, character_group, character_tables, parse_character_label
from charsum.rng import COEFF_MODELS, SplitMix64, derive_seed
from charsum.sums import (
    BilinearInstance,
    IntervalSpec,
    WeightVector,
    bilinear_form,
    complete_lambda,
    gauss_sum,
    incomplete_lambda,
    orthogonality_average,
    character_pair_sum,
    quadratic_expsum,
    quadratic_expsum_table,
    second_moment,
    tolerance,
    twist_sums,
    weighted_second_moment,
    _character_pair_sum,
    _complete_lambda,
    _complete_lambda_table,
    _divisor_orbits,
    _divisor_rows,
    _gauss_sum,
    _incomplete_lambda,
    _modulus_tables,
    _orthogonality_average,
    _reduced_second_moment,
    _require_bilinear_capacity,
    _weighted_second_moment,
)

_TAG_BOUND5 = 101
_TAG_LEMMA4 = 102
_TAG_T2_CHI = 103
_TAG_T2_LAM = 104
_TAG_BIL_Q = 105
_TAG_BIL_SIZE = 106
_TAG_BIL_CHI = 107
_TAG_BIL_COEFF = 108

_LEMMA4_SAMPLES = 200
_LEMMA4_EXHAUSTIVE_LIMIT = 100
# Elements of the (draws, start, length) window block in bound5: about 1.5 MB.
_BOUND5_BLOCK_ELEMENTS = 1 << 16
_WITNESS_COUNT = 3


class UsageError(ValueError):
    """Bad or empty request (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for seeded sweeps; identical configs give identical reports."""

    q_lo: int = 3
    q_hi: int = 30
    seed: int = 0
    trials: int = 4
    coeff_model: str = "unit-disc"
    epsilon: float = 0.1
    gamma: float = 2.0

    def __post_init__(self):
        for name in ("epsilon", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value!r}")
        # a negative count would run no trial and pass vacuously
        if self.trials < 0:
            raise UsageError(f"trials must be >= 0, got {self.trials}")
        # an unknown model would fail only once a check draws weights
        if self.coeff_model not in COEFF_MODELS:
            raise UsageError(f"coeff_model must be one of {', '.join(COEFF_MODELS)}, got {self.coeff_model!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class CaseRecord:
    """One tested statement, with enough parameters to replay its value."""

    check: str
    q: int
    chi_index: int
    chi_label: str
    kind: str
    params: dict
    value_re: float
    value_im: float
    defect: float
    ratio: float
    passed: bool

    def params_string(self) -> str:
        return ";".join(f"{k}={_fmt_scalar(v)}" for k, v in self.params.items())

    def to_json_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_csv_row(self) -> list[str]:
        """The CSV cells in CSV_COLUMNS order: floats by repr, params by params_string."""
        return [
            self.check,
            str(self.q),
            str(self.chi_index),
            self.chi_label,
            self.kind,
            self.params_string(),
            repr(self.value_re),
            repr(self.value_im),
            repr(self.defect),
            repr(self.ratio),
            "true" if self.passed else "false",
        ]


CSV_COLUMNS = [f.name for f in fields(CaseRecord)]


def _case(
    check: str,
    q: int,
    chi: tuple[int, str] | None,
    kind: str,
    params: dict,
    value: complex,
    defect: float,
    ratio: float,
    passed: bool,
) -> CaseRecord:
    """One record; chi is the character's (index, label), or None."""
    chi_index, chi_label = chi if chi is not None else (-1, "")
    return CaseRecord(
        check, q, chi_index, chi_label, kind, params,
        float(value.real), float(value.imag), float(defect), float(ratio), bool(passed)
    )


@dataclass
class VerificationReport:
    check: str
    descriptor: str
    config: ExperimentConfig | None
    cases: list[CaseRecord]
    notes: list[str] = field(default_factory=list)

    @property
    def cases_tested(self) -> int:
        return len(self.cases)

    @property
    def cases_passed(self) -> int:
        return sum(c.passed for c in self.cases)

    @property
    def max_abs_defect(self) -> float:
        return max((c.defect for c in self.cases), default=0.0)

    @property
    def max_ratio(self) -> float:
        return max((c.ratio for c in self.cases), default=0.0)

    @property
    def passed_all(self) -> bool:
        return all(c.passed for c in self.cases)

    def witnesses(self, k: int = _WITNESS_COUNT) -> list[CaseRecord]:
        order = sorted(
            range(len(self.cases)),
            key=lambda i: (-self.cases[i].defect, -self.cases[i].ratio, i),
        )
        return [self.cases[i] for i in order[:k]]

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "descriptor": self.descriptor,
            "config": self.config.to_dict() if self.config else None,
            "cases": [c.to_json_obj() for c in self.cases],
            "summary": {
                "tested": self.cases_tested,
                "passed": self.cases_passed,
                "max_defect": self.max_abs_defect,
                "max_ratio": self.max_ratio,
                "witnesses": [c.to_json_obj() for c in self.witnesses()],
                "notes": list(self.notes),
            },
        }


# ---------------------------------------------------------------------------
# report encoder: the json module's two-space indented bytes, written from a
# fixed template per case instead of by its pure-Python indenting encoder
# ---------------------------------------------------------------------------


def _json_scalar(v) -> str:
    """One JSON scalar, spelled as json.dumps spells it."""
    if isinstance(v, str):
        return _json_string(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_flat_dict(d: dict, pad: str) -> str:
    """A dict of str keys and scalar values whose closing brace sits at `pad`."""
    if not d:
        return "{}"
    inner = ",\n".join(
        f"{pad}  {_json_string(k)}: {int.__repr__(v) if type(v) is int else _json_scalar(v)}"
        for k, v in d.items()
    )
    return f"{{\n{inner}\n{pad}}}"


def _json_list(items: list, pad: str, encode) -> str:
    """A list whose closing bracket sits at `pad`; encode(item, item_pad) -> text."""
    if not items:
        return "[]"
    item_pad = pad + "  "
    inner = ",\n".join(item_pad + encode(item, item_pad) for item in items)
    return f"[\n{inner}\n{pad}]"


def _json_case(c: CaseRecord, pad: str, strings: dict) -> str:
    """One case, keys in CSV_COLUMNS order; strings caches the JSON text of each str field within one report."""
    p = pad + "  "
    check, label, kind = c.check, c.chi_label, c.kind
    if type(check) is str and type(label) is str and type(kind) is str:
        check_text = strings.get(check) or strings.setdefault(check, _json_string(check))
        label_text = strings.get(label) or strings.setdefault(label, _json_string(label))
        kind_text = strings.get(kind) or strings.setdefault(kind, _json_string(kind))
    else:
        check_text, label_text, kind_text = _json_scalar(check), _json_scalar(label), _json_scalar(kind)
    q, index, passed = c.q, c.chi_index, c.passed
    re, im, defect, ratio = c.value_re, c.value_im, c.defect, c.ratio
    # x - x is 0.0 exactly when x is a finite float: NaN and +-Infinity go to _json_scalar
    if (
        type(re) is float
        and type(im) is float
        and type(defect) is float
        and type(ratio) is float
        and (re - re) + (im - im) + (defect - defect) + (ratio - ratio) == 0.0
    ):
        re_text, im_text = float.__repr__(re), float.__repr__(im)
        defect_text, ratio_text = float.__repr__(defect), float.__repr__(ratio)
    else:
        re_text, im_text = _json_scalar(re), _json_scalar(im)
        defect_text, ratio_text = _json_scalar(defect), _json_scalar(ratio)
    return (
        f'{{\n{p}"check": {check_text},\n'
        f'{p}"q": {int.__repr__(q) if type(q) is int else _json_scalar(q)},\n'
        f'{p}"chi_index": {int.__repr__(index) if type(index) is int else _json_scalar(index)},\n'
        f'{p}"chi_label": {label_text},\n'
        f'{p}"kind": {kind_text},\n'
        f'{p}"params": {_json_flat_dict(c.params, p)},\n'
        f'{p}"value_re": {re_text},\n'
        f'{p}"value_im": {im_text},\n'
        f'{p}"defect": {defect_text},\n'
        f'{p}"ratio": {ratio_text},\n'
        f'{p}"passed": {"true" if passed is True else "false" if passed is False else _json_scalar(passed)}'
        f"\n{pad}}}"
    )


def _json_report(r: VerificationReport, pad: str) -> str:
    p = pad + "  "
    s = p + "  "
    config = r.config.to_dict() if r.config else None
    strings: dict[str, str] = {}

    def case(c: CaseRecord, item_pad: str) -> str:
        return _json_case(c, item_pad, strings)

    return (
        f'{{\n{p}"check": {_json_scalar(r.check)},\n'
        f'{p}"descriptor": {_json_scalar(r.descriptor)},\n'
        f'{p}"config": {"null" if config is None else _json_flat_dict(config, p)},\n'
        f'{p}"cases": {_json_list(r.cases, p, case)},\n'
        f'{p}"summary": {{\n'
        f'{s}"tested": {_json_scalar(r.cases_tested)},\n'
        f'{s}"passed": {_json_scalar(r.cases_passed)},\n'
        f'{s}"max_defect": {_json_scalar(r.max_abs_defect)},\n'
        f'{s}"max_ratio": {_json_scalar(r.max_ratio)},\n'
        f'{s}"witnesses": {_json_list(r.witnesses(), s, case)},\n'
        f'{s}"notes": {_json_list(r.notes, s, lambda note, _: _json_scalar(note))}\n'
        f"{p}}}\n{pad}}}"
    )


def reports_json(reports: list[VerificationReport], bundle: bool) -> str:
    """The JSON text of one report, or of the array of all of them (bundle).

    Byte-identical to the json module's dump of ``to_json_obj()`` (of the
    report, or the list of them) at indent 2, plus a newline.  Params and config
    hold str keys and scalar values; any other value raises TypeError.
    """
    if bundle:
        return _json_list(reports, "", _json_report) + "\n"
    return _json_report(reports[0], "") + "\n"


def reports_csv(reports: list[VerificationReport]) -> str:
    """The CSV text of every case of the reports, under one CSV_COLUMNS header."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(case.to_csv_row()) for report in reports for case in report.cases]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-modulus workers
# ---------------------------------------------------------------------------


def _profile(q: int):
    return multiplicative_profile(factorize(q))


def _epsilon_power(q: int, epsilon: float, shift: float = 0.0) -> float:
    """q ** (shift + epsilon), the epsilon factor of an envelope.

    A usage error unless it is a positive finite float: past that range the
    envelope, and every ratio to it, means nothing.
    """
    try:
        value = q ** (shift + epsilon)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise UsageError(
            f"epsilon = {epsilon!r} puts q^{shift + epsilon!r} out of floating-point range at q = {q}"
        )
    return value


def _log_power(n: int, gamma: float) -> float:
    """log(n) ** gamma, taken as +inf where it overflows or is 0 ** (negative gamma)."""
    try:
        return math.log(n) ** gamma
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _first_near_max(values: np.ndarray, tol: float) -> np.ndarray:
    """Index of the first entry along the last axis within tol of its maximum."""
    return np.argmax(values >= values.max(axis=-1, keepdims=True) - tol, axis=-1)


def _lambda_peak(tab: np.ndarray, tol: float) -> tuple[int, int, float]:
    """(m, n, max of |Lambda(m, n)|) over the q x q table of the character
    whose value table is tab, from the divisor rows.

    Table row m is divisor row gcd(m, q) permuted, and the first m with
    gcd(m, q) = g is g itself (0 for g = q), whose table row is divisor row g
    unpermuted.  With the rows taken at those first m in ascending order, the
    first entry within tol of the maximum is therefore the table's.
    """
    q = len(tab)
    divs, _, _ = _divisor_orbits(q)
    first_m = np.sort(divs % q)
    magnitudes = np.abs(_divisor_rows(tab, first_m))
    i, n = divmod(int(_first_near_max(magnitudes.ravel(), tol)), q)
    return int(first_m[i]), n, float(magnitudes.max())


def _theorem1_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    prof = _profile(q)
    phi, omega = prof.phi, prof.omega
    envelope = q * phi * phi * 2**omega
    tol = 2.0**-40 * q**3
    chars = character_tables(q)
    rows = np.flatnonzero(chars.completely_even & (chars.conductors == q))
    # chi(y) is +-1 exactly at y^2 = 1 (value tables are exact on the quarter turns)
    roots = square_roots_of_unity(q)
    signs = chars.values[rows][:, roots]
    bad = np.argwhere((signs != 1) & (signs != -1))
    if bad.size:
        raise RuntimeError(f"chi(y) is not +-1 at y = {roots[bad[0, 1]]} mod {q}")
    totals = signs.real.sum(axis=1).astype(np.int64)
    cases: list[CaseRecord] = []
    for index, s in zip(rows.tolist(), totals.tolist()):
        moment = _reduced_second_moment(chars.values[index])
        target = q * phi * phi * s
        defect = abs(moment - target)
        ok = defect <= tol
        if q % 8 == 0:
            ok = ok and moment <= tol
        else:
            ok = ok and (q * phi * phi - tol <= moment <= envelope + tol)
        cases.append(
            _case(
                "theorem1",
                q,
                (index, chars.labels[index]),
                kind="theorem1",
                params={"S": s},
                value=complex(moment),
                defect=defect,
                ratio=moment / envelope,
                passed=ok,
            )
        )
    notes = [] if cases else [f"q={q}: no primitive completely even character"]
    return cases, notes


def _bound4_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    prof = _profile(q)
    bound = math.sqrt(q) * 2**prof.omega
    tol = tolerance(prof.phi)
    tol_ratio = tol / bound
    chars = character_tables(q)
    cases = []
    notes = []
    for index in range(1, len(chars.labels)):  # index 0 is the trivial character
        tab = chars.values[index]
        label = chars.labels[index]
        m, n, peak = _lambda_peak(tab, tol)
        value = _complete_lambda(tab, m, n)
        primitive = bool(chars.conductors[index] == q)
        passed = peak <= bound * (1.0 + tol_ratio)
        if not passed and not primitive:
            notes.append(
                f"q={q}: envelope exceeded only by the imprimitive character "
                f"{label} (|value|={abs(value):.6g} > {bound:.6g})"
            )
        cases.append(
            _case(
                "bound4",
                q,
                (index, label),
                kind="bound4",
                params={"m": m, "n": n, "primitive": primitive},
                value=value,
                defect=max(0.0, peak - bound),
                ratio=abs(value) / bound,
                passed=passed,
            )
        )
    return cases, notes


def _lemma1_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    root_q = math.sqrt(q)
    chars = character_tables(q)
    primitive = np.flatnonzero(chars.conductors == q).tolist()
    if not primitive:
        return [], []
    # one row per primitive character: every twist of every Gauss sum at once
    tabs = chars.values[primitive]
    all_twists = twist_sums(tabs)
    g1_all = all_twists[:, 1 % q]
    twist_defects = np.abs(all_twists - np.conj(tabs) * g1_all[:, None])
    n_stars = _first_near_max(twist_defects, tolerance(2 * q))
    row_of = {index: i for i, index in enumerate(primitive)}
    cases = []
    for i, index in enumerate(primitive):
        chi = (index, chars.labels[index])
        g1 = complex(g1_all[i])
        defect_mod = abs(abs(g1) - root_q)
        cases.append(
            _case(
                "lemma1",
                q,
                chi,
                kind="gauss_modulus",
                params={},
                value=g1,
                defect=defect_mod,
                ratio=abs(g1) / root_q,
                passed=defect_mod <= tolerance(q),
            )
        )
        n_star = int(n_stars[i])
        defect_twist = float(twist_defects[i].max())
        cases.append(
            _case(
                "lemma1",
                q,
                chi,
                kind="gauss_twist",
                params={"n": n_star},
                value=_gauss_sum(tabs[i], n_star),
                defect=defect_twist,
                ratio=0.0,
                passed=defect_twist <= tolerance(2 * q),
            )
        )
        # the conjugate is primitive too; its own row gives G(conj chi, 1)
        sign = complex(tabs[i, q - 1])
        conj_g1 = complex(g1_all[row_of[int(chars.conjugate[index])]])
        conj_defect = abs(np.conj(g1) - sign * conj_g1)
        cases.append(
            _case(
                "lemma1",
                q,
                chi,
                kind="gauss_conj",
                params={},
                value=g1,
                defect=conj_defect,
                ratio=0.0,
                passed=conj_defect <= tolerance(2 * q),
            )
        )
    return cases, []


def _bound5_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    denom = _epsilon_power(q, cfg.epsilon, 0.5)
    _, inv, _, _ = _modulus_tables(q)
    chars = character_tables(q)
    tables = chars.values
    draws = []
    for index in range(1, len(tables)):  # index 0 is the trivial character
        for trial in range(cfg.trials):
            rng = SplitMix64(derive_seed(cfg.seed, _TAG_BOUND5, q, index, trial))
            m = rng.randrange(q)
            n = rng.randrange(q)
            draws.append((index, trial, m, n))
    # deltas[k, s, l] = |terms of draw k summed over [s, s + l)|, for a block
    # of draws at a time: every draw's windows are scanned as in a loop of its own
    a = np.arange(q, dtype=np.int64)
    block = max(1, _BOUND5_BLOCK_ELEMENTS // (q * (q + 1)))
    cases = []
    for lo in range(0, len(draws), block):
        chunk = draws[lo : lo + block]
        rows = np.array([index for index, _, _, _ in chunk], dtype=np.int64)
        m = np.array([mk for _, _, mk, _ in chunk], dtype=np.int64)
        n = np.array([nk for _, _, _, nk in chunk], dtype=np.int64)
        # inv is 0 off the units, where m*a + n*inv[a] is a non-unit: terms are 0
        terms = tables[rows[:, None], (m[:, None] * a + n[:, None] * inv) % q]
        prefix = np.zeros((len(chunk), 2 * q + 1), dtype=np.complex128)
        np.cumsum(np.concatenate([terms, terms], axis=1), axis=1, out=prefix[:, 1:])
        windows = np.lib.stride_tricks.sliding_window_view(prefix, q + 1, axis=1)[:, :q]
        deltas = np.abs(windows - prefix[:, :q, None])
        best = deltas.reshape(len(chunk), -1).argmax(axis=1)
        for (index, trial, mk, nk), flat in zip(chunk, best):
            start, length = divmod(int(flat), q + 1)
            value = _incomplete_lambda(tables[index], mk, nk, IntervalSpec(start, length))
            cases.append(
                _case(
                    "bound5",
                    q,
                    (index, chars.labels[index]),
                    kind="bound5",
                    params={"m": mk, "n": nk, "start": start, "length": length, "trial": trial},
                    value=value,
                    defect=0.0,
                    ratio=abs(value) / denom,
                    passed=True,
                )
            )
    return cases, []


def unit_average_coefficient(c: int, q: int) -> float:
    """Closed-form scale: unit average of chi(c*a+b) equals this times chi(b).

    Equals prod over p^alpha || q of (f(p^alpha) - f(p^(alpha-1))/p) times
    q/phi(q), where f(p^k) is 1 when p^k | c and 0 otherwise.  It collapses
    to 1 when q | c, and to 0 exactly when some p^alpha || q has
    p^(alpha-1) not dividing c.
    """
    prof = _profile(q)
    w = 1.0
    for p, alpha in factorize(q).factors:
        f_hi = 1.0 if c % p**alpha == 0 else 0.0
        f_lo = 1.0 if c % p ** (alpha - 1) == 0 else 0.0
        w *= f_hi - f_lo / p
    return w * q / prof.phi


def _lemma3_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    chars = character_tables(q)
    units, _, _, _ = _modulus_tables(q)
    phi = len(units)
    b_all = np.arange(q, dtype=np.int64)
    coeffs = np.array([unit_average_coefficient(c, q) for c in range(q)])
    cases = []
    for index in np.flatnonzero(chars.conductors == q).tolist():
        tab = chars.values[index]
        # defects[c, b]; the witness is the first near-maximum (c, b)
        defects = np.stack(
            [
                np.abs(tab[(c * units[:, None] + b_all) % q].sum(axis=0) / phi - coeffs[c] * tab)
                for c in range(q)
            ]
        )
        c, b = divmod(int(_first_near_max(defects.ravel(), 2.0**-40)), q)
        defect = float(defects.max())
        cases.append(
            _case(
                "lemma3",
                q,
                (index, chars.labels[index]),
                kind="lemma3",
                params={"c": c, "b": b},
                value=_orthogonality_average(tab, c, b),
                defect=defect,
                ratio=0.0,
                passed=defect <= 2.0**-40,
            )
        )
    return cases, []


def _pairsum_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    chars = character_tables(q)
    units, _, _, _ = _modulus_tables(q)
    phi = len(units)
    b_all = np.arange(q, dtype=np.int64)
    divs = divisors(q)
    cases = []
    for index in np.flatnonzero(chars.conductors == q).tolist():
        tab = chars.values[index]
        conj_units = np.conj(tab[units])
        rows = []
        for ell in divs:
            buckets = np.zeros(ell, dtype=np.complex128)
            np.add.at(buckets, units % ell, tab[units])
            grid = buckets[(units[:, None] * (b_all[None, :] % ell)) % ell]
            values = (conj_units[:, None] * grid).sum(axis=0)
            target = tab * phi if ell == q else 0.0
            rows.append(np.abs(values - target))
        # defects[ell index, y]; the witness is the first near-maximum (ell, y)
        defects = np.stack(rows)
        i, y = divmod(int(_first_near_max(defects.ravel(), tolerance(phi * phi))), q)
        ell = divs[i]
        defect = float(defects.max())
        cases.append(
            _case(
                "pairsum",
                q,
                (index, chars.labels[index]),
                kind="pairsum",
                params={"y": y, "ell": ell},
                value=_character_pair_sum(tab, y, ell),
                defect=defect,
                ratio=0.0,
                passed=defect <= tolerance(phi * phi),
            )
        )
    return cases, []


def _lemma4_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    omega = _profile(q).omega
    units, _, _, _ = _modulus_tables(q)
    korobov = np.sqrt(q * np.gcd(np.arange(q, dtype=np.int64), q))
    if q <= _LEMMA4_EXHAUSTIVE_LIMIT:
        pair_a, pair_b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    else:
        rng = SplitMix64(derive_seed(cfg.seed, _TAG_LEMMA4, q))
        drawn = set()
        for _ in range(_LEMMA4_SAMPLES):
            a = rng.randrange(q)
            drawn.add((a, rng.randrange(q)))
        pair_a, pair_b = np.array(sorted(drawn), dtype=np.int64).T
    full = quadratic_expsum_table(q)

    def worst(table: np.ndarray, envelope: np.ndarray) -> tuple[float, int, int]:
        # pairs run in lexicographic order, so ties go to the first (a, b)
        ratios = np.abs(table[pair_a, pair_b]) / envelope[pair_a]
        i = int(ratios.argmax())
        return float(ratios[i]), int(pair_a[i]), int(pair_b[i])

    cases = []
    ratio_r, a_r, b_r = worst(quadratic_expsum_table(q, restricted=True), korobov * 2**omega)
    value_r = quadratic_expsum(a_r, b_r, q, restricted=True)
    cases.append(
        _case(
            "lemma4",
            q,
            None,
            kind="lemma4_restricted",
            params={"a": a_r, "b": b_r},
            value=value_r,
            defect=max(0.0, ratio_r - 2.0),
            ratio=ratio_r,
            passed=ratio_r <= 2.0,
        )
    )
    ratio_k, a_k, b_k = worst(full, korobov)
    cases.append(
        _case(
            "lemma4",
            q,
            None,
            kind="lemma4_korobov",
            params={"a": a_k, "b": b_k},
            value=quadratic_expsum(a_k, b_k, q, restricted=False),
            defect=0.0,
            ratio=ratio_k,
            passed=True,
        )
    )
    if q % 2 == 1:
        # classical complete quadratic sums: |sum| = sqrt(q) exactly for unit a
        ratios = np.abs(full[units, 0]) / math.sqrt(q)
        worst_g = int(np.abs(ratios - 1.0).argmax())
        a_g = int(units[worst_g])
        defect_g = float(np.abs(ratios - 1.0).max())
        cases.append(
            _case(
                "lemma4",
                q,
                None,
                kind="lemma4_gauss",
                params={"a": a_g, "b": 0},
                value=quadratic_expsum(a_g, 0, q, restricted=False),
                defect=defect_g,
                ratio=float(ratios[worst_g]),
                passed=defect_g <= tolerance(q) / math.sqrt(q),
            )
        )
    return cases, []


def _theorem2_weights(cfg: ExperimentConfig, q: int, trial: int) -> WeightVector:
    rng = SplitMix64(derive_seed(cfg.seed, _TAG_T2_LAM, q, trial))
    units, _, _, _ = _modulus_tables(q)
    return WeightVector(q, {a: rng.coefficient(cfg.coeff_model) for a in units.tolist()})


def _theorem2_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    chars = character_tables(q)
    prof = _profile(q)
    envelope = q * prof.phi**2 * 2**prof.omega
    cases = []
    for trial in range(cfg.trials):
        rng_chi = SplitMix64(derive_seed(cfg.seed, _TAG_T2_CHI, q, trial))
        index = rng_chi.randrange(len(chars.labels))
        weights = _theorem2_weights(cfg, q, trial)
        moment = _weighted_second_moment(chars.values[index], weights)
        ratio = moment / envelope
        cases.append(
            _case(
                "theorem2",
                q,
                (index, chars.labels[index]),
                kind="theorem2",
                params={"trial": trial},
                value=complex(moment),
                defect=max(0.0, ratio - 10.0),
                ratio=ratio,
                passed=ratio <= 10.0,
            )
        )
    return cases, []


def _coprime_splittings(q: int) -> list[tuple[int, int]]:
    """Proper splittings q = q1*q2, gcd(q1,q2) = 1, 2 <= q1 < q2."""
    pps = factorize(q).prime_powers()
    out = set()
    for mask in range(1, (1 << len(pps)) - 1):
        q1 = math.prod(pp for i, pp in enumerate(pps) if mask >> i & 1)
        q2 = q // q1
        if q1 < q2:
            out.add((q1, q2))
    return sorted(out)


def _vanishing_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    prof = _profile(q)
    tol = tolerance(prof.phi)
    chars = character_tables(q)
    cases = []
    for index in np.flatnonzero(~chars.completely_even).tolist():
        tab = chars.values[index]
        m, n, peak = _lambda_peak(tab, tol)
        value = _complete_lambda(tab, m, n)
        cases.append(
            _case(
                "vanishing",
                q,
                (index, chars.labels[index]),
                kind="vanishing",
                params={"m": m, "n": n},
                value=value,
                defect=peak,
                ratio=0.0,
                passed=peak <= tol,
            )
        )
    return cases, []


def _multiplicativity_q(q: int, cfg: ExperimentConfig) -> tuple[list[CaseRecord], list[str]]:
    tol = tolerance(3 * _profile(q).phi)
    group = character_group(q)
    chars = character_tables(q)
    # chi1*chi2 has chi1's flat exponent row on the columns of q1's primes and
    # chi2's on the rest; owner holds the prime of each flat column
    radix = _index_radix(group)
    owner = np.repeat(
        [p for p, _ in group.factorization.factors], [len(s.factor_orders) for s in group.structures]
    )
    residues = np.arange(q, dtype=np.int64)
    cases: list[CaseRecord] = []
    for q1, q2 in _coprime_splittings(q):
        chars1, chars2 = character_tables(q1), character_tables(q2)
        in1 = q1 % owner == 0
        product = (chars1.exponents @ radix[in1])[:, None] + chars2.exponents @ radix[~in1]
        m1, m2 = residues % q1, residues % q2
        # q1 < q2, so the q1 tables are the small ones to keep; each q2 table is
        # built and lifted once.  Cases stay in (chi1, chi2) order.
        lifted1 = [_complete_lambda_table(tab)[m1[:, None], m1[None, :]] for tab in chars1.values]
        blocks: list[list[CaseRecord]] = [[] for _ in lifted1]
        for j2, tab2 in enumerate(chars2.values):
            lifted2 = _complete_lambda_table(tab2)[m2[:, None], m2[None, :]]
            for j1, (table1, block) in enumerate(zip(lifted1, blocks)):
                index = int(product[j1, j2])
                tab = chars.values[index]
                defects = np.abs(_complete_lambda_table(tab) - table1 * lifted2)
                m, n = divmod(int(_first_near_max(defects.ravel(), tol)), q)
                defect = float(defects.max())
                block.append(
                    _case(
                        "multiplicativity",
                        q,
                        (index, chars.labels[index]),
                        kind="multiplicativity",
                        params={"q1": q1, "q2": q2, "chi1_index": j1, "chi2_index": j2, "m": m, "n": n},
                        value=_complete_lambda(tab, m, n),
                        defect=defect,
                        ratio=0.0,
                        passed=defect <= tol,
                    )
                )
        cases.extend(case for block in blocks for case in block)
    return cases, []


# ---------------------------------------------------------------------------
# bilinear experiment
# ---------------------------------------------------------------------------


def bilinear_experiment(
    cfg: ExperimentConfig,
    q: int | None = None,
    a_scale: int | None = None,
    m_scale: int | None = None,
    n_scale: int | None = None,
) -> VerificationReport:
    """Seeded bilinear instances: naive/optimized agreement plus envelope ratios.

    When q or the scales are not pinned they are drawn per trial: q uniform
    over the primes in the configured range, scales uniform over {4, 8, 16}
    (one draw applied to all unpinned scales).
    """
    if q is not None and q < 2:
        raise UsageError(f"bilinear needs a modulus q >= 2, got {q}")
    primes = [
        p
        for p in range(max(cfg.q_lo, 3), cfg.q_hi + 1)
        if factorize(p).factors == ((p, 1),)
    ]
    if q is None and not primes:
        raise UsageError(f"no primes in q-range {cfg.q_lo}..{cfg.q_hi}")
    draws = []
    for trial in range(cfg.trials):
        qq = q
        if qq is None:
            rng_q = SplitMix64(derive_seed(cfg.seed, _TAG_BIL_Q, trial))
            qq = primes[rng_q.randrange(len(primes))]
        if a_scale is None or m_scale is None or n_scale is None:
            rng_s = SplitMix64(derive_seed(cfg.seed, _TAG_BIL_SIZE, trial))
            drawn = (4, 8, 16)[rng_s.randrange(3)]
        a_sc = a_scale if a_scale is not None else drawn
        m_sc = m_scale if m_scale is not None else drawn
        n_sc = n_scale if n_scale is not None else drawn
        # every instance runs the naive oracle: refuse before any trial runs
        _require_bilinear_capacity(a_sc * m_sc * n_sc, "naive")
        draws.append((trial, qq, a_sc, m_sc, n_sc, _epsilon_power(qq, cfg.epsilon)))
    cases = []
    notes: list[str] = []
    for trial, qq, a_sc, m_sc, n_sc, q_eps in draws:
        # only the conductors: q may be far too large for a (phi, q) value table
        chars = character_tables(qq, values=False)
        primitive = np.flatnonzero(chars.conductors == qq).tolist()
        if not primitive:
            notes.append(f"trial {trial}: no primitive character mod {qq}, skipped")
            continue
        rng_chi = SplitMix64(derive_seed(cfg.seed, _TAG_BIL_CHI, trial))
        index = primitive[rng_chi.randrange(len(primitive))]
        chi = character_group(qq).character_at(index)
        inst = _bilinear_instance(cfg, trial, a_sc, m_sc, n_sc)
        optimized = bilinear_form(chi, inst, "optimized")
        naive = bilinear_form(chi, inst, "naive")
        defect = abs(optimized - naive)
        tol = tolerance(inst.term_count)
        norms = inst.alpha_norm * inst.beta_norm
        prof = _profile(qq)
        poly = qq**0.75 * prof.tau**2.5 * math.log(qq) ** 2
        env3 = norms * math.sqrt(n_sc) * poly
        env6 = norms * math.sqrt(m_sc * n_sc * qq) * q_eps
        env_sym = norms * math.sqrt(min(m_sc, n_sc)) * poly
        magnitude = abs(optimized)
        hypothesis_ok = factorize(qq).smallest_prime >= _log_power(n_sc, cfg.gamma)
        cases.append(
            _case(
                "bilinear",
                qq,
                (index, chars.labels[index]),
                kind="bilinear",
                params={
                    "trial": trial,
                    "a_scale": a_sc,
                    "m_scale": m_sc,
                    "n_scale": n_sc,
                    "ratio_eq6": magnitude / env6 if env6 > 0 else 0.0,
                    "ratio_sym": magnitude / env_sym if env_sym > 0 else 0.0,
                    "hypothesis_ok": hypothesis_ok,
                },
                value=optimized,
                defect=defect,
                ratio=magnitude / env3 if env3 > 0 else 0.0,
                passed=defect <= tol,
            )
        )
    descriptor = f"{cfg.trials} instances, q-range {cfg.q_lo}..{cfg.q_hi}"
    return VerificationReport("bilinear", descriptor, cfg, cases, notes)


def _bilinear_instance(
    cfg: ExperimentConfig, trial: int, a_scale: int, m_scale: int, n_scale: int
) -> BilinearInstance:
    rng = SplitMix64(derive_seed(cfg.seed, _TAG_BIL_COEFF, trial))
    alpha = tuple(rng.coefficient(cfg.coeff_model) for _ in range(m_scale))
    beta = tuple(rng.coefficient(cfg.coeff_model) for _ in range(n_scale))
    return BilinearInstance(a_scale, m_scale, n_scale, alpha, beta)


# ---------------------------------------------------------------------------
# check registry and sweep driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """A check's q window, its per-modulus worker and its witness replay."""

    window: tuple[int, int]
    worker: Callable[[int, ExperimentConfig], tuple[list[CaseRecord], list[str]]]
    replay: Callable[[CaseRecord, ExperimentConfig | None], complex]


def _chi(case: CaseRecord):
    return parse_character_label(case.chi_label)


def _replay_complete(case: CaseRecord, config: ExperimentConfig | None) -> complex:
    return complete_lambda(_chi(case), case.params["m"], case.params["n"])


def _replay_bound5(case: CaseRecord, config: ExperimentConfig | None) -> complex:
    p = case.params
    return incomplete_lambda(_chi(case), p["m"], p["n"], IntervalSpec(p["start"], p["length"]))


def _replay_theorem2(case: CaseRecord, config: ExperimentConfig | None) -> complex:
    if config is None:
        raise ValueError("theorem2 replay needs the experiment config")
    weights = _theorem2_weights(config, case.q, case.params["trial"])
    return complex(weighted_second_moment(_chi(case), weights))


# Every check in canonical `verify all` order: adding a check is one entry.
_CHECKS = {
    "theorem1": _Check((3, 200), _theorem1_q, lambda case, _: complex(second_moment(_chi(case)))),
    "bound4": _Check((3, 150), _bound4_q, _replay_complete),
    "bound5": _Check((3, 100), _bound5_q, _replay_bound5),
    # gauss_twist records its n; gauss_modulus and gauss_conj are at n = 1
    "lemma1": _Check((1, 150), _lemma1_q, lambda case, _: gauss_sum(_chi(case), case.params.get("n", 1))),
    "lemma3": _Check(
        (1, 60), _lemma3_q, lambda case, _: orthogonality_average(_chi(case), case.params["c"], case.params["b"])
    ),
    "pairsum": _Check(
        (1, 60), _pairsum_q, lambda case, _: character_pair_sum(_chi(case), case.params["y"], case.params["ell"])
    ),
    "lemma4": _Check(
        (1, 300),
        _lemma4_q,
        lambda case, _: quadratic_expsum(
            case.params["a"], case.params["b"], case.q, restricted=case.kind == "lemma4_restricted"
        ),
    ),
    "theorem2": _Check((3, 100), _theorem2_q, _replay_theorem2),
    "vanishing": _Check((1, 100), _vanishing_q, _replay_complete),
    "multiplicativity": _Check((1, 100), _multiplicativity_q, _replay_complete),
}

ALL_CHECKS = tuple(_CHECKS)


def thread_count() -> int:
    """Worker count from CHARSUM_THREADS (0 or unset = automatic).

    Sweeps run serially whatever the value: with the interpreter lock, a
    thread pool made them slower, not faster.  The variable is still
    validated, so a malformed value is a usage error.
    """
    raw = os.environ.get("CHARSUM_THREADS", "0")
    try:
        n = int(raw)
    except ValueError as exc:
        raise UsageError(f"CHARSUM_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise UsageError(f"CHARSUM_THREADS must be >= 0, got {n}")
    if n == 0:
        n = min(os.cpu_count() or 1, 8)
    return max(n, 1)


def run_check(name: str, cfg: ExperimentConfig) -> VerificationReport:
    """One named check swept over the configured q-range, clamped to its window."""
    if name not in _CHECKS:
        raise UsageError(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
    thread_count()  # validates CHARSUM_THREADS; the sweep itself is serial
    check = _CHECKS[name]
    lo, hi = check.window
    lo2, hi2 = max(cfg.q_lo, lo), min(cfg.q_hi, hi)
    if lo2 > hi2:
        raise UsageError(
            f"check {name}: q-range {cfg.q_lo}..{cfg.q_hi} is empty after clamping to {lo}..{hi}"
        )
    notes = []
    if (lo2, hi2) != (cfg.q_lo, cfg.q_hi):
        notes.append(f"q-range clamped to {lo2}..{hi2}")
    cases: list[CaseRecord] = []
    for q in range(lo2, hi2 + 1):
        qcases, qnotes = check.worker(q, cfg)
        cases.extend(qcases)
        notes.extend(qnotes)
    return VerificationReport(name, f"q-range {lo2}..{hi2}", cfg, cases, notes)


def run_all(cfg: ExperimentConfig) -> list[VerificationReport]:
    """Every check in canonical order under one configuration."""
    return [run_check(name, cfg) for name in ALL_CHECKS]


def replay_case(case: CaseRecord, config: ExperimentConfig | None = None) -> complex:
    """Recompute the value of a recorded case from its check and parameters."""
    if case.check == "bilinear":
        if config is None:
            raise ValueError("bilinear replay needs the experiment config")
        p = case.params
        inst = _bilinear_instance(config, p["trial"], p["a_scale"], p["m_scale"], p["n_scale"])
        return bilinear_form(_chi(case), inst, "optimized")
    if case.check not in _CHECKS:
        raise ValueError(f"unknown check {case.check!r}")
    return _CHECKS[case.check].replay(case, config)
