"""Output checks behind the benchmark's correctness verdict.

Sweep reports are checked against expectations that do not depend on the
seed: exit code, case count (from closed-form character counts), the exact
set of failing cases, and a replay of every summary witness.  Point queries
are recomputed by an independent route: plain sums of exact
``character.evaluate`` values for lambda, gauss and pairsum, the naive
second moment for k2, and an exact integer match for srsum.

Witness ``m``/``n`` and noise-level defects are not compared: a correct
kernel may break argmax ties differently.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

TOL = 2.0**-40

# Defaults of the CLI options the plans leave unset.
DEFAULT_TRIALS = {"verify": 4, "bilinear": 20}


def _factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _phi(n: int) -> int:
    return math.prod(p ** (a - 1) * (p - 1) for p, a in _factor(n))


def _primitive(p: int, a: int) -> int:
    """Primitive characters mod p^a."""
    if p == 2:
        return {1: 0, 2: 1}.get(a, 2 ** (a - 2))
    return p - 2 if a == 1 else p ** (a - 2) * (p - 1) ** 2


def _primitive_even(p: int, a: int) -> int:
    """Primitive characters mod p^a with chi(-1) = 1."""
    if p == 2:
        return 0 if a <= 2 else 2 ** (a - 3)
    if a == 1:
        return (p - 1) // 2 - 1
    return (_phi(p**a) - _phi(p ** (a - 1))) // 2


def _even(p: int, a: int) -> int:
    """Characters mod p^a with chi(-1) = 1."""
    return 1 if p**a == 2 else _phi(p**a) // 2


def _prod(q: int, local) -> int:
    return math.prod(local(p, a) for p, a in _factor(q))


def _cases_per_q(check: str, q: int, trials: int) -> int:
    if check == "bound4":
        return _phi(q) - 1
    if check == "theorem1":
        return _prod(q, _primitive_even)
    if check == "vanishing":
        return _phi(q) - _prod(q, _even)
    if check == "multiplicativity":
        k = len(_factor(q))
        return _phi(q) * (2 ** (k - 1) - 1) if k >= 2 else 0
    if check == "lemma1":
        return 3 * _prod(q, _primitive)
    if check in ("lemma3", "pairsum"):
        return _prod(q, _primitive)
    if check == "lemma4":
        return 2 + q % 2
    if check == "bound5":
        return trials * (_phi(q) - 1)
    if check == "theorem2":
        return trials
    raise ValueError(f"no case count for check {check!r}")


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _replay_scale(kind: str, q: int, params: dict) -> float:
    """Magnitude bound of the accumulated terms behind a replayed value."""
    phi = _phi(q)
    if kind in ("theorem1", "theorem2"):
        return float(q * q * phi * phi)
    if kind == "pairsum":
        return float(phi * phi)
    if kind == "bilinear":
        return float(params["a_scale"] * params["m_scale"] * params["n_scale"])
    return float(q)


class SweepChecker:
    """Checks one `verify` or `bilinear` report."""

    def __init__(self, violators_path: Path):
        with open(violators_path) as handle:
            data = json.load(handle)
        self.violators = {(q, label) for q, label in data["violators"]}

    def check(self, argv: list[str], code, text: str) -> list[str]:
        from charsum.verify import CaseRecord, ExperimentConfig, replay_case

        problems = []
        command = argv[0]
        check = argv[1] if command == "verify" else "bilinear"
        default_range = "3..30" if command == "verify" else "50..200"
        lo, hi = (int(x) for x in _option(argv, "--q-range", default_range).split(".."))
        trials = int(_option(argv, "--trials", str(DEFAULT_TRIALS[command])))
        expected_failing = {
            (q, label) for q, label in self.violators if check == "bound4" and lo <= q <= hi
        }
        expected_code = 1 if expected_failing else 0
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        try:
            report = json.loads(text)
        except ValueError as exc:
            return problems + [f"report is not JSON: {exc}"]
        cases = report["cases"]
        if report["check"] != check:
            problems.append(f"report names check {report['check']!r}")
        if check == "bilinear":
            expected = trials
        else:
            expected = sum(_cases_per_q(check, q, trials) for q in range(lo, hi + 1))
        if len(cases) != expected or report["summary"]["tested"] != expected:
            problems.append(f"{len(cases)} cases, expected {expected}")
        failing = [c for c in cases if not c["passed"]]
        if {(c["q"], c["chi_label"]) for c in failing} != expected_failing:
            problems.append(f"{len(failing)} failing cases, expected {len(expected_failing)}")
        if any(c["params"].get("primitive", False) for c in failing):
            problems.append("a primitive character fails")
        if report["summary"]["passed"] != len(cases) - len(failing):
            problems.append("summary pass count disagrees with the cases")
        config = ExperimentConfig(**report["config"])
        for w in report["summary"]["witnesses"]:
            value = replay_case(CaseRecord(**w), config)
            recorded = complex(w["value_re"], w["value_im"])
            if abs(value - recorded) > TOL * _replay_scale(w["kind"], w["q"], w["params"]):
                problems.append(f"witness {w['kind']} q={w['q']} {w['chi_label']} replays to {value}")
        return problems


def _parse_record(line: str) -> dict[str, str]:
    return dict(field.split("=", 1) for field in line.split(" "))


class QueryChecker:
    """Recomputes `compute` responses from exact character values."""

    def __init__(self):
        self._values: dict[tuple[int, int], list[complex]] = {}

    def _chi(self, q: int, index: int):
        from charsum.character import character_group

        return character_group(q).character_at(index)

    def _chi_values(self, q: int, index: int) -> list[complex]:
        from charsum.character import evaluate

        key = (q, index)
        if key not in self._values:
            chi = self._chi(q, index)
            self._values[key] = [evaluate(chi, a).to_complex() for a in range(q)]
        return self._values[key]

    def _expected(self, kind: str, q: int, index: int, argv: list[str]):
        """(value, tolerance scale) for one character, or the exact srsum."""
        from charsum.character import evaluate
        from charsum.sums import second_moment

        if kind == "srsum":
            chi = self._chi(q, index)
            total = 0
            for y in range(q):
                if y * y % q == 1 % q:
                    den = evaluate(chi, y).root.den
                    total += {1: 1, 2: -1}[den]
            return total, 0.0
        if kind == "k2":
            return complex(second_moment(self._chi(q, index), "naive")), float(q**3)
        v = self._chi_values(q, index)
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        if kind == "lambda":
            m = int(_option(argv, "--m", "1"))
            n = int(_option(argv, "--n", "1"))
            start = _option(argv, "--start")
            if start is None:
                domain = units
            else:
                length = int(_option(argv, "--length"))
                domain = [(int(start) + k) % q for k in range(length)]
                domain = [a for a in domain if math.gcd(a, q) == 1]
            return sum(v[(m * a + n * pow(a, -1, q)) % q] for a in domain), float(q)
        if kind == "gauss":
            n = int(_option(argv, "--n", "1"))
            return sum(v[a] * cmath.exp(2j * math.pi * (n * a % q) / q) for a in range(q)), float(q)
        if kind == "pairsum":
            y = int(_option(argv, "--y", "1"))
            ell = int(_option(argv, "--ell", str(q)))
            # chi(c) conj(chi(d)) over unit pairs with c = d*y (mod ell),
            # grouping c by its residue mod ell
            buckets = [0j] * ell
            for c in units:
                buckets[c % ell] += v[c]
            return sum(v[d].conjugate() * buckets[d * y % ell] for d in units), float(q * q)
        raise ValueError(f"no independent route for kind {kind!r}")

    def check(self, argv: list[str], code, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        kind = argv[1]
        q = int(_option(argv, "--q"))
        selector = _option(argv, "--chi")
        indices = range(_phi(q)) if selector == "all" else [int(selector)]
        lines = text.splitlines()
        if len(lines) != len(indices):
            return [f"{len(lines)} response lines, expected {len(indices)}"]
        problems = []
        for index, line in zip(indices, lines):
            record = _parse_record(line)
            if record["kind"] != kind or int(record["q"]) != q or int(record["chi_index"]) != index:
                problems.append(f"response names the wrong request: {line}")
                continue
            if record["chi_label"] != self._chi(q, index).label:
                problems.append(f"wrong label for character {index} mod {q}")
            expected, scale = self._expected(kind, q, index, argv)
            if kind == "srsum":
                if int(record["exact"]) != expected:
                    problems.append(f"srsum {record['exact']} for chi {index} mod {q}, expected {expected}")
                continue
            value = complex(float(record["value_re"]), float(record["value_im"]))
            if abs(value - expected) > TOL * scale:
                problems.append(f"{kind} for chi {index} mod {q} is {value}, expected {expected}")
        return problems
