"""Acceptance gate: desk-scale checks of the identities and ratio envelopes.

One test per numbered criterion.  Each test registers exactly one PASS/FAIL
line through the ``acceptance_log`` fixture; pytest echoes the collected
lines in its terminal summary so a full run always ends with the eleven
status lines.

Criterion 3 is expected to FAIL: the complete-sum envelope
sqrt(q) * 2^omega(q) is provably exceeded by imprimitive characters induced
from even primitive ones (smallest case q = 25, where the character induced
by the even primitive character mod 5 gives |Lambda(1, 2; 25)| = 20 against
an envelope of 10).  The companion test directly below it shows the envelope
does hold, with zero violations, once the sweep is restricted to primitive
characters.  The failing assertion is kept because it states the claim being
checked; weakening it would hide a real discrepancy.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from charsum.arith import factorize, mod_inverse, multiplicative_profile
from charsum.character import (
    character_group,
    enumerate_characters,
    is_primitive,
    parity_flags,
)
from charsum.rng import SplitMix64, derive_seed
from charsum.sums import congruence_pair_count, unit_root_char_sum
from charsum.verify import ExperimentConfig, bilinear_experiment, run_check

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def envelope_report():
    """Complete-sum envelope sweep over q in [3, 150], all nontrivial characters."""
    return run_check("bound4", ExperimentConfig(3, 150))


def test_criterion_01_second_moment_identity(acceptance_log):
    t0 = time.perf_counter()
    report = run_check("theorem1", ExperimentConfig(3, 150))
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for case in report.cases:
        q = case.q
        tol = 2.0**-40 * q**3
        prof = multiplicative_profile(factorize(q))
        k2 = case.value_re
        assert case.value_im == 0.0
        assert abs(k2 - q * prof.phi**2 * case.params["S"]) <= tol
        if q % 8 == 0:
            assert k2 <= tol
        else:
            assert q * prof.phi**2 - tol <= k2 <= q * prof.phi**2 * 2**prof.omega + tol
        worst = max(worst, case.defect)
    assert report.passed_all and report.cases_tested > 0
    assert elapsed < 300.0
    acceptance_log(
        f"criterion 1: PASS - second-moment identity on {report.cases_tested} primitive"
        f" completely even characters, q in [3,150], max defect {worst:.3e}, {elapsed:.1f}s"
    )


def test_criterion_02_unit_root_sum_case_table(acceptance_log):
    chi2 = enumerate_characters(character_group(2))
    assert [unit_root_char_sum(c) for c in chi2] == [1]

    evens4 = [
        c
        for c in enumerate_characters(character_group(4))
        if parity_flags(c).is_completely_even
    ]
    assert evens4 and all(unit_root_char_sum(c) == 2 for c in evens4)
    assert not any(is_primitive(c) for c in evens4)  # the q=4 row has no primitive member

    odd_rows = 0
    for q in range(3, 344, 2):
        if len(factorize(q).factors) != 1:
            continue
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi) and parity_flags(chi).is_completely_even:
                assert unit_root_char_sum(chi) == 2, (q, chi.index)
                odd_rows += 1

    two_rows = 0
    for q in (8, 16, 32):
        for chi in enumerate_characters(character_group(q)):
            if is_primitive(chi):
                assert unit_root_char_sum(chi) == 0, (q, chi.index)
                two_rows += 1

    assert odd_rows > 0 and two_rows > 0
    acceptance_log(
        "criterion 2: PASS - unit-root sum case table exact:"
        f" 1 at q=2, 2 at q=4 (even character) and for {odd_rows} primitive even"
        f" characters of odd prime powers <= 343, 0 for {two_rows} primitive"
        " characters at q=8,16,32"
    )


def test_criterion_03_complete_sum_envelope(acceptance_log, envelope_report):
    report = envelope_report
    violations = [c for c in report.cases if not c.passed]
    primitive_total = sum(1 for c in report.cases if c.params["primitive"])
    if violations:
        worst = max(violations, key=lambda c: c.ratio)
        moduli = sorted({c.q for c in violations})
        acceptance_log(
            f"criterion 3: FAIL - envelope sqrt(q)*2^omega(q) exceeded by"
            f" {len(violations)} imprimitive characters across"
            f" {len(moduli)} moduli in [3,150] (worst q={worst.q}"
            f" chi={worst.chi_label} |Lambda(m={worst.params['m']},n={worst.params['n']})|"
            f"={math.hypot(worst.value_re, worst.value_im):.1f}, {worst.ratio:.2f}x envelope);"
            f" all {primitive_total} primitive characters are within the envelope"
        )
    else:
        acceptance_log(
            f"criterion 3: PASS - complete-sum envelope holds for all"
            f" {report.cases_tested} nontrivial characters, q in [3,150]"
        )
    assert not violations, (
        "the complete-sum envelope fails for imprimitive characters induced from"
        " even primitive ones; every violating case here is imprimitive"
        f" (smallest modulus {min(c.q for c in violations)}), and the restriction"
        " to primitive characters passes with zero violations"
    )


def test_criterion_03_companion_primitive_envelope(envelope_report):
    primitive = [c for c in envelope_report.cases if c.params["primitive"]]
    assert primitive
    assert all(c.passed for c in primitive)
    imprimitive_failures = [c for c in envelope_report.cases if not c.passed]
    assert all(not c.params["primitive"] for c in imprimitive_failures)


def test_criterion_04_vanishing_and_multiplicativity(acceptance_log):
    vanishing = run_check("vanishing", ExperimentConfig(1, 100))
    product = run_check("multiplicativity", ExperimentConfig(1, 100))
    assert vanishing.passed_all and vanishing.cases_tested > 0
    assert product.passed_all and product.cases_tested > 0
    worst = max(vanishing.max_abs_defect, product.max_abs_defect)
    acceptance_log(
        f"criterion 4: PASS - complete sum vanishes on {vanishing.cases_tested}"
        f" non-completely-even characters and the product identity holds on"
        f" {product.cases_tested} coprime splittings, q <= 100, max defect {worst:.3e}"
    )


def test_criterion_05_gauss_sum_properties(acceptance_log):
    report = run_check("lemma1", ExperimentConfig(1, 150))
    assert report.passed_all and report.cases_tested > 0
    kinds = {c.kind for c in report.cases}
    assert kinds == {"gauss_modulus", "gauss_twist", "gauss_conj"}
    acceptance_log(
        f"criterion 5: PASS - Gauss sum modulus, twist and conjugation identities"
        f" on {report.cases_tested} cells for primitive characters, q <= 150,"
        f" max defect {report.max_abs_defect:.3e}"
    )


def test_criterion_06_unit_average_and_pair_sum(acceptance_log):
    average = run_check("lemma3", ExperimentConfig(1, 60))
    pair = run_check("pairsum", ExperimentConfig(1, 60))
    assert average.passed_all and average.cases_tested > 0
    assert pair.passed_all and pair.cases_tested > 0
    worst = max(average.max_abs_defect, pair.max_abs_defect)
    acceptance_log(
        f"criterion 6: PASS - unit-average closed form ({average.cases_tested} cells)"
        f" and congruence-bucket pair sum ({pair.cases_tested} cells) exact for"
        f" q <= 60, max defect {worst:.3e}"
    )


def test_criterion_07_congruence_count_brute_force(acceptance_log):
    checked = 0
    for q in range(1, 61):
        units = [x for x in range(q) if math.gcd(x, q) == 1]
        inverses = {u: mod_inverse(u, q) for u in units}
        grid_x = np.arange(q, dtype=np.int64)
        rng = SplitMix64(derive_seed(2026, 7, q))
        for _ in range(200):
            a = units[rng.randrange(len(units))]
            b = units[rng.randrange(len(units))]
            c = rng.randrange(q)
            d = rng.randrange(q)
            lhs1 = (a * grid_x[:, None] + inverses[a] * grid_x[None, :]) % q
            lhs2 = (b * grid_x[:, None] + inverses[b] * grid_x[None, :]) % q
            want = int(np.count_nonzero((lhs1 == c) & (lhs2 == d)))
            assert congruence_pair_count(a, b, c, d, q) == want, (a, b, c, d, q)
            checked += 1
    acceptance_log(
        f"criterion 7: PASS - gcd(a^2-b^2, q) solution-count rule matched"
        f" brute-force enumeration on {checked} seeded systems, q <= 60"
    )


def test_criterion_08_quadratic_sum_envelopes(acceptance_log):
    report = run_check("lemma4", ExperimentConfig(1, 300, seed=42))
    assert report.passed_all and report.cases_tested > 0
    restricted = [c for c in report.cases if c.kind == "lemma4_restricted"]
    gauss = [c for c in report.cases if c.kind == "lemma4_gauss"]
    assert len(restricted) == 300 and gauss
    worst_ratio = max(c.ratio for c in restricted)
    assert worst_ratio <= 2.0
    worst_gauss = max(c.defect for c in gauss)
    acceptance_log(
        f"criterion 8: PASS - restricted quadratic-sum ratio <= 2 over q <= 300"
        f" (exhaustive a,b to q=100, 200 seeded pairs per q above; observed max"
        f" {worst_ratio:.4f}) and |S_a(q)| = sqrt(q) for odd q, unit a, b=0"
        f" (max defect {worst_gauss:.3e})"
    )


def test_criterion_09_weighted_moment_envelope(acceptance_log):
    report = run_check(
        "theorem2", ExperimentConfig(3, 100, seed=42, trials=4, coeff_model="unit-disc")
    )
    assert report.passed_all and report.cases_tested > 0
    assert report.max_ratio <= 10.0
    acceptance_log(
        f"criterion 9: PASS - weighted second moment within 10x the unweighted"
        f" envelope on {report.cases_tested} seeded unit-disc trials, q <= 100,"
        f" observed max ratio {report.max_ratio:.4f}"
    )


def test_criterion_10_bilinear_dual_route(acceptance_log):
    cfg = ExperimentConfig(50, 200, seed=42, trials=20)
    report = bilinear_experiment(cfg)
    again = bilinear_experiment(cfg)
    assert report.cases_tested >= 20
    assert report.passed_all
    for case in report.cases:
        assert 50 <= case.q <= 200 and all(case.q % d for d in range(2, case.q))
        scales = (case.params["a_scale"], case.params["m_scale"], case.params["n_scale"])
        assert len(set(scales)) == 1 and scales[0] in (4, 8, 16)
        assert math.isfinite(case.ratio)
        assert math.isfinite(case.params["ratio_eq6"])
        assert math.isfinite(case.params["ratio_sym"])
    snapshot = json.dumps(report.to_json_obj(), sort_keys=True)
    assert snapshot == json.dumps(again.to_json_obj(), sort_keys=True)
    worst = max(c.defect for c in report.cases)
    acceptance_log(
        f"criterion 10: PASS - naive and optimized bilinear evaluators agree on"
        f" {report.cases_tested} seeded instances (prime q in [50,200],"
        f" scales in {{4,8,16}}, max disagreement {worst:.3e}); all envelope"
        f" ratios finite and reproducible under the fixed seed"
    )


def test_criterion_11_cli_byte_determinism(acceptance_log):
    argv = [
        sys.executable,
        "-m",
        "charsum",
        "verify",
        "all",
        "--q-range",
        "3..30",
        "--seed",
        "42",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    first = subprocess.run(argv, capture_output=True, timeout=600, env=env)
    second = subprocess.run(argv, capture_output=True, timeout=600, env=env)
    assert first.returncode == second.returncode
    assert first.returncode in (0, 1)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    acceptance_log(
        f"criterion 11: PASS - repeated verification sweep is byte-identical"
        f" ({len(first.stdout)} bytes of report, exit code {first.returncode})"
    )
