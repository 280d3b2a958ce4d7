"""Verification harness: reports, determinism, witness replay, sweep plumbing."""

import json
import math
import os

import numpy as np
import pytest

import charsum.verify as verify_module
from charsum.character import character_group, enumerate_characters, evaluate, parse_character_label
from charsum.sums import (
    character_pair_sum,
    character_value_table,
    complete_lambda_table,
    orthogonality_average,
    tolerance,
)
from charsum.verify import (
    ALL_CHECKS,
    CSV_COLUMNS,
    CaseRecord,
    ExperimentConfig,
    UsageError,
    VerificationReport,
    bilinear_experiment,
    check_bound_complete,
    check_lemma1,
    check_lemma3_and_pair_sum,
    check_theorem1,
    check_vanishing_and_multiplicativity,
    replay_case,
    reports_json,
    run_all,
    run_check,
    thread_count,
    unit_average_coefficient,
)


def mu_direct(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def phi_direct(n: int) -> int:
    return sum(1 for a in range(n) if math.gcd(a, n) == 1)


def test_unit_average_coefficient_mobius_oracle():
    # direct form: (q/phi) * sum over d|q with (q/d)|c of mu(d)/d
    for q in range(1, 80):
        for c in range(q):
            w = sum(mu_direct(d) / d for d in range(1, q + 1) if q % d == 0 and c % (q // d) == 0)
            want = w * q / phi_direct(q)
            assert abs(unit_average_coefficient(c, q) - want) < 1e-12, (c, q)


def test_unit_average_coefficient_branches():
    # q | c collapses to 1; squarefree q with q-coprime c never vanishes
    assert unit_average_coefficient(0, 12) == 1.0
    assert abs(unit_average_coefficient(1, 3) + 0.5) < 1e-12  # (3/2)*(mu(3)/3) = -1/2
    assert unit_average_coefficient(1, 9) == 0.0  # only d=9 divides with (9/d)|1, mu(9)=0
    assert abs(unit_average_coefficient(3, 9) + 0.5) < 1e-12  # d in {3,9}: mu(3)/3 scaled by 9/6
    for q in (6, 15, 30):
        for c in range(1, q):
            if math.gcd(c, q) == 1:
                assert unit_average_coefficient(c, q) != 0.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_theorem1_q5_report():
    report = check_theorem1(5)
    assert report.cases_tested == 1
    case = report.cases[0]
    assert case.chi_label == "5:5^1=2"
    assert case.params["S"] == 2
    assert case.value_re == 160.0
    assert case.passed
    assert report.passed_all
    assert not report.notes


def test_theorem1_q8_report():
    report = check_theorem1(8)
    assert report.cases_tested == 1
    assert report.cases[0].value_re == 0.0
    assert report.cases[0].params["S"] == 0


def test_theorem1_q7_counts_even_primitives():
    report = check_theorem1(7)
    assert report.cases_tested == 2
    assert report.passed_all


def test_theorem1_flags_empty_moduli():
    for q in (3, 15):
        report = check_theorem1(q)
        assert report.cases_tested == 0
        assert any("no primitive completely even" in note for note in report.notes)


def test_theorem1_rejects_out_of_window():
    with pytest.raises(UsageError):
        check_theorem1(2)
    with pytest.raises(UsageError):
        check_theorem1(201)


def test_bound4_q5_and_q9_within_envelope():
    for q in (5, 9):
        report = check_bound_complete(q)
        assert report.passed_all
        assert report.max_ratio <= 1.0 + 1e-9


def test_bound4_q25_fails_on_imprimitive_lift():
    report = check_bound_complete(25)
    failed = [c for c in report.cases if not c.passed]
    assert failed and all(not c.params["primitive"] for c in failed)
    assert any(c.ratio > 1.9 for c in failed)
    assert any("imprimitive" in note for note in report.notes)
    primitive_cases = [c for c in report.cases if c.params["primitive"]]
    assert all(c.passed for c in primitive_cases)


def test_row_witness_is_first_near_max_of_table():
    # bound4 and vanishing read their witness from the divisor rows; it must be
    # the first (m, n) in row-major order of the full table within tolerance
    for q in (12, 25, 36, 60, 64, 125):
        tol = tolerance(phi_direct(q))
        bound4 = {c.chi_index: (c.params["m"], c.params["n"]) for c in check_bound_complete(q).cases}
        for chi in enumerate_characters(character_group(q)):
            magnitudes = np.abs(complete_lambda_table(chi))
            want = divmod(int(np.flatnonzero(magnitudes >= magnitudes.max() - tol)[0]), q)
            m, n, peak = verify_module._lambda_peak(character_value_table(chi), tol)
            assert (m, n) == want and peak == magnitudes.max(), (q, chi.index)
            assert bound4.get(chi.index, want) == want


def test_lemma1_report_kinds():
    report = check_lemma1(5)
    kinds = {c.kind for c in report.cases}
    assert kinds == {"gauss_modulus", "gauss_twist", "gauss_conj"}
    assert report.passed_all


def bound5_window_reference(chi, m: int, n: int) -> tuple[int, int]:
    """(start, length) of the first largest |partial sum| over the cyclic
    windows of one draw's terms, scanned one draw at a time."""
    q = chi.modulus
    tab = character_value_table(chi)
    terms = np.array(
        [tab[(m * a + n * pow(a, -1, q)) % q] if math.gcd(a, q) == 1 else 0j for a in range(q)]
    )
    prefix = np.concatenate(([0j], np.cumsum(np.concatenate([terms, terms]))))
    best = (-1.0, 0, 0)
    for start in range(q):
        deltas = np.abs(prefix[start : start + q + 1] - prefix[start])
        length = int(deltas.argmax())
        if float(deltas[length]) > best[0]:
            best = (float(deltas[length]), start, length)
    return best[1], best[2]


@pytest.mark.parametrize("budget", [None, 1])
def test_bound5_windows_match_per_draw_reference(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(verify_module, "_BOUND5_BLOCK_ELEMENTS", budget)
    for q in [*range(3, 21), 60]:
        cfg = ExperimentConfig(q_lo=q, q_hi=q, seed=5, trials=3)
        cases = run_check("bound5", cfg).cases
        chars = [c for c in enumerate_characters(character_group(q)) if not c.is_trivial]
        assert [(c.chi_index, c.params["trial"]) for c in cases] == [
            (chi.index, t) for chi in chars for t in range(3)
        ]
        for case in cases:
            chi = parse_character_label(case.chi_label)
            want = bound5_window_reference(chi, case.params["m"], case.params["n"])
            assert (case.params["start"], case.params["length"]) == want, (q, case.params)


def test_lemma3_pair_sum_exhaustive_small():
    report = check_lemma3_and_pair_sum(12)
    assert report.passed_all
    kinds = {c.kind for c in report.cases}
    assert kinds == {"lemma3", "pairsum"}


def _first_near_max_index(table: np.ndarray, tol: float) -> int:
    flat = table.ravel()
    floor = flat.max() - tol
    return next(i for i, v in enumerate(flat) if v >= floor)


def test_lemma3_pair_sum_witness_is_first_near_max_of_direct_table():
    # both checks' defects are rounding noise, so the witness must follow the
    # tie rule over (c, b) and (ell, y) in row-major order, not the noise
    for q in (12, 25, 36, 60):
        phi = phi_direct(q)
        divs = [d for d in range(1, q + 1) if q % d == 0]
        report = check_lemma3_and_pair_sum(q)
        primitive = [c.chi_index for c in report.cases if c.kind == "lemma3"]
        assert primitive
        for chi in enumerate_characters(character_group(q)):
            if chi.index not in primitive:
                continue
            values = [evaluate(chi, b).to_complex() for b in range(q)]
            lemma3 = np.array(
                [
                    [
                        abs(orthogonality_average(chi, c, b) - unit_average_coefficient(c, q) * values[b])
                        for b in range(q)
                    ]
                    for c in range(q)
                ]
            )
            pairsum = np.array(
                [
                    [abs(character_pair_sum(chi, y, ell) - (phi * values[y] if ell == q else 0)) for y in range(q)]
                    for ell in divs
                ]
            )
            c, b = divmod(_first_near_max_index(lemma3, 2.0**-40), q)
            i, y = divmod(_first_near_max_index(pairsum, tolerance(phi * phi)), q)
            got = {case.kind: case for case in report.cases if case.chi_index == chi.index}
            assert got["lemma3"].params == {"c": c, "b": b}, (q, chi.index)
            assert got["pairsum"].params == {"y": y, "ell": divs[i]}, (q, chi.index)
            assert abs(got["lemma3"].defect - lemma3.max()) <= 2.0**-40
            assert abs(got["pairsum"].defect - pairsum.max()) <= tolerance(phi * phi)


def test_vanishing_and_multiplicativity_composite():
    report = check_vanishing_and_multiplicativity(3, 5)
    assert report.passed_all
    kinds = {c.kind for c in report.cases}
    assert kinds == {"vanishing", "multiplicativity"}
    with pytest.raises(UsageError):
        check_vanishing_and_multiplicativity(6, 4)


def test_run_check_unknown_name():
    with pytest.raises(UsageError):
        run_check("nonsense", ExperimentConfig())


def test_sweep_clamps_and_errors():
    with pytest.raises(UsageError):
        run_check("theorem1", ExperimentConfig(q_lo=0, q_hi=2))
    report = run_check("theorem1", ExperimentConfig(q_lo=1, q_hi=5))
    assert any("clamped" in n for n in report.notes)
    assert report.descriptor == "q-range 3..5"


def test_run_all_order_and_names():
    reports = run_all(ExperimentConfig(q_lo=5, q_hi=6, trials=1))
    assert [r.check for r in reports] == list(ALL_CHECKS)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _snapshot(reports):
    return json.dumps([r.to_json_obj() for r in reports], sort_keys=True)


def test_reports_deterministic_across_runs():
    cfg = ExperimentConfig(q_lo=3, q_hi=25, seed=42, trials=2)
    assert _snapshot(run_all(cfg)) == _snapshot(run_all(cfg))


def test_reports_independent_of_thread_count(monkeypatch):
    cfg = ExperimentConfig(q_lo=3, q_hi=20, seed=7, trials=2)
    monkeypatch.setenv("CHARSUM_THREADS", "1")
    solo = _snapshot(run_all(cfg))
    monkeypatch.setenv("CHARSUM_THREADS", "5")
    multi = _snapshot(run_all(cfg))
    assert solo == multi


def test_thread_count_env_validation(monkeypatch):
    monkeypatch.setenv("CHARSUM_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("CHARSUM_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("CHARSUM_THREADS", "junk")
    with pytest.raises(UsageError):
        thread_count()
    monkeypatch.setenv("CHARSUM_THREADS", "-2")
    with pytest.raises(UsageError):
        thread_count()


def test_seed_changes_seeded_checks_only():
    a = run_check("theorem2", ExperimentConfig(3, 12, seed=1, trials=2))
    b = run_check("theorem2", ExperimentConfig(3, 12, seed=2, trials=2))
    assert _snapshot([a]) != _snapshot([b])
    c = run_check("theorem1", ExperimentConfig(3, 12, seed=1))
    d = run_check("theorem1", ExperimentConfig(3, 12, seed=2))
    assert [x.value_re for x in c.cases] == [x.value_re for x in d.cases]


# ---------------------------------------------------------------------------
# witnesses and replay
# ---------------------------------------------------------------------------


def test_witness_ordering_and_count():
    report = check_bound_complete(25)
    wits = report.witnesses()
    assert len(wits) <= 3
    defects = [w.defect for w in wits]
    assert defects == sorted(defects, reverse=True)


def test_replay_reproduces_recorded_values_across_checks():
    cfg = ExperimentConfig(q_lo=3, q_hi=30, seed=42, trials=2)
    for name in ALL_CHECKS:
        report = run_check(name, cfg)
        for case in report.witnesses():
            value = replay_case(case, cfg)
            assert value.real == case.value_re and value.imag == case.value_im, (
                name,
                case.kind,
                case.params,
            )


def test_replay_bilinear_and_config_requirement():
    cfg = ExperimentConfig(q_lo=50, q_hi=100, seed=9, trials=3)
    report = bilinear_experiment(cfg)
    assert report.cases_tested == 3
    for case in report.cases:
        value = replay_case(case, cfg)
        assert value.real == case.value_re and value.imag == case.value_im
        with pytest.raises(ValueError):
            replay_case(case)


def test_replay_unknown_kind():
    case = CaseRecord("x", 5, -1, "", "mystery", {}, 0.0, 0.0, 0.0, 0.0, True)
    with pytest.raises(ValueError):
        replay_case(case)


# ---------------------------------------------------------------------------
# bilinear experiment plumbing
# ---------------------------------------------------------------------------


def test_bilinear_fixed_parameters():
    cfg = ExperimentConfig(q_lo=50, q_hi=200, seed=7, trials=4)
    report = bilinear_experiment(cfg, q=101, a_scale=8, m_scale=8, n_scale=8)
    assert report.cases_tested == 4
    assert all(c.q == 101 for c in report.cases)
    assert all(c.params["m_scale"] == 8 for c in report.cases)
    assert report.passed_all  # dual evaluators agree
    for c in report.cases:
        assert math.isfinite(c.ratio)
        assert math.isfinite(c.params["ratio_eq6"])
        assert math.isfinite(c.params["ratio_sym"])


def test_bilinear_seeded_draws_are_primes_and_scales():
    cfg = ExperimentConfig(q_lo=50, q_hi=200, seed=3, trials=6)
    report = bilinear_experiment(cfg)
    for c in report.cases:
        assert c.params["a_scale"] in (4, 8, 16)
        assert all(c.q % d for d in range(2, c.q))
        assert 50 <= c.q <= 200


def test_bilinear_zero_model_and_empty_range():
    cfg = ExperimentConfig(q_lo=50, q_hi=100, seed=1, trials=2, coeff_model="zero")
    report = bilinear_experiment(cfg)
    assert all(c.ratio == 0.0 for c in report.cases)
    with pytest.raises(UsageError):
        bilinear_experiment(ExperimentConfig(q_lo=32, q_hi=36, trials=1))


def test_bilinear_trials_zero():
    report = bilinear_experiment(ExperimentConfig(q_lo=50, q_hi=60, trials=0))
    assert report.cases_tested == 0
    assert report.passed_all


# ---------------------------------------------------------------------------
# serialization schema
# ---------------------------------------------------------------------------


def test_case_csv_row_matches_columns():
    report = check_theorem1(5)
    row = report.cases[0].to_csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "theorem1"
    assert row[-1] == "true"
    # repr floats round-trip
    assert float(row[6]) == report.cases[0].value_re


def test_report_json_schema():
    report = check_theorem1(5)
    obj = report.to_json_obj()
    assert set(obj) == {"check", "descriptor", "config", "cases", "summary"}
    assert set(obj["summary"]) == {"tested", "passed", "max_defect", "max_ratio", "witnesses", "notes"}
    assert obj["summary"]["tested"] == 1


def _json_dumps_text(reports, bundle):
    payload = [r.to_json_obj() for r in reports] if bundle else reports[0].to_json_obj()
    return json.dumps(payload, indent=2) + "\n"


def test_report_encoder_matches_json_dumps():
    cfg = ExperimentConfig(q_lo=3, q_hi=12, seed=11, trials=2)
    reports = run_all(cfg) + [bilinear_experiment(ExperimentConfig(q_lo=50, q_hi=80, trials=3))]
    for report in reports:
        assert reports_json([report], bundle=False) == _json_dumps_text([report], False), report.check
    assert reports_json(reports, bundle=True) == _json_dumps_text(reports, True)


def test_report_encoder_edge_values():
    odd = CaseRecord(
        "odd", 7, 3, 'label "quoted" \\ caf\u00e9\n', "kind", {}, math.nan, -0.0, math.inf, -math.inf, False
    )
    params = {"flag": True, "off": False, "n": -12, "big": 10**30, "x": 1e-300, "tiny": 5e-324}
    plain = CaseRecord("odd", 8, -1, "", "kind", params, 0.1, 1e16, 0.0, 2.5, True)
    # finite and non-finite floats in one record, with a label another record repeats
    nonfinite = CaseRecord(
        "odd", 9, 4, "9:3^2=4", "kind", {"x": math.nan, "y": -math.inf}, 1.5, math.inf, math.nan, 0.25, True
    )
    # values the json module spells by their base type: bool index, int and float64 floats
    loose = CaseRecord("odd", 9, True, "9:3^2=4", "kind", {}, 3, np.float64(0.5), -0.0, 1e-320, False)
    empty = VerificationReport("empty", "nothing", None, [])
    full = VerificationReport(
        "odd",
        "q-range 7..8",
        ExperimentConfig(epsilon=-0.0),
        [odd, plain, nonfinite, loose],
        ["a note: \u2713", ""],
    )
    for reports in ([empty], [full], [empty, full], []):
        if reports:
            assert reports_json(reports, bundle=False) == _json_dumps_text(reports, False)
        assert reports_json(reports, bundle=True) == _json_dumps_text(reports, True)
    bad = CaseRecord("bad", 5, -1, "", "k", {"n": np.int64(3)}, 0.0, 0.0, 0.0, 0.0, True)
    for encode in (lambda r: reports_json([r], bundle=False), lambda r: _json_dumps_text([r], False)):
        with pytest.raises(TypeError):
            encode(VerificationReport("bad", "", None, [bad]))


def test_params_string_formats():
    case = CaseRecord("x", 5, -1, "", "k", {"a": 1, "flag": True, "r": 0.5}, 0.0, 0.0, 0.0, 0.0, True)
    assert case.params_string() == "a=1;flag=true;r=0.5"
