"""Command-line interface: record formats, report emission, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charsum.cli as cli_module
import charsum.sums as sums_module
import charsum.verify as verify_module
from charsum.cli import main
from charsum.verify import ALL_CHECKS, CSV_COLUMNS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(text):
    records = []
    for line in text.splitlines():
        records.append(dict(item.split("=", 1) for item in line.split()))
    return records


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_lambda_all_characters(capsys):
    code, out, err = run_cli(capsys, "compute", "lambda", "--q", "5")
    assert code == 0 and err == ""
    records = parse_records(out)
    assert len(records) == 4
    assert all(r["strategy"] == "complete" for r in records)
    even = [r for r in records if r["chi_label"] == "5:5^1=2"]
    assert len(even) == 1
    assert float(even[0]["value_re"]) == -2.0
    assert float(even[0]["value_im"]) == 0.0


def test_compute_lambda_interval_matches_complete(capsys):
    code, out, _ = run_cli(capsys, "compute", "lambda", "--q", "7", "--chi", "2", "--m", "2", "--n", "3")
    full = parse_records(out)[0]
    code2, out2, _ = run_cli(
        capsys,
        *"compute lambda --q 7 --chi 2 --m 2 --n 3 --start 0 --length 7".split(),
    )
    windowed = parse_records(out2)[0]
    assert code == code2 == 0
    assert windowed["strategy"] == "interval"
    assert windowed["value_re"] == full["value_re"]
    assert windowed["value_im"] == full["value_im"]


def test_compute_lambda_interval_flags_must_pair(capsys):
    code, out, err = run_cli(capsys, "compute", "lambda", "--q", "7", "--start", "1")
    assert code == 2 and out == ""
    assert "must be given together" in err


def test_compute_gauss_primitive_has_sqrt_q_modulus(capsys):
    code, out, _ = run_cli(capsys, "compute", "gauss", "--q", "5", "--chi", "1")
    assert code == 0
    rec = parse_records(out)[0]
    assert math.isclose(float(rec["modulus"]), math.sqrt(5), rel_tol=1e-12)


def test_compute_k2_strategies_agree(capsys):
    _, naive_out, _ = run_cli(capsys, "compute", "k2", "--q", "9", "--strategy", "naive")
    _, reduced_out, _ = run_cli(capsys, "compute", "k2", "--q", "9", "--strategy", "reduced")
    naive = parse_records(naive_out)
    reduced = parse_records(reduced_out)
    tol = 2.0**-40 * 9**3
    for a, b in zip(naive, reduced, strict=True):
        assert abs(float(a["value_re"]) - float(b["value_re"])) <= tol
    assert {r["strategy"] for r in naive} == {"naive"}
    _, auto_out, _ = run_cli(capsys, "compute", "k2", "--q", "9")
    assert {r["strategy"] for r in parse_records(auto_out)} == {"reduced"}


def test_compute_k2_naive_capacity_exit3(capsys):
    code, out, err = run_cli(capsys, "compute", "k2", "--q", "401", "--chi", "0", "--strategy", "naive")
    assert code == 3 and out == ""
    assert "error:" in err


def test_compute_chi_all_table_cap_exit3(capsys, monkeypatch):
    # --chi all caches every character's value table: phi(q) * q entries
    monkeypatch.setattr(cli_module, "CHI_ALL_TABLE_LIMIT", 13 * 12)
    code, out, _ = run_cli(capsys, "compute", "gauss", "--q", "13", "--chi", "all")
    assert code == 0 and len(parse_records(out)) == 12
    monkeypatch.setattr(cli_module, "CHI_ALL_TABLE_LIMIT", 13 * 12 - 1)
    for kind in ("lambda", "gauss", "k2", "pairsum"):
        code, out, err = run_cli(capsys, "compute", kind, "--q", "13")
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    # srsum builds no value table, and one named character is not capped
    for argv in (("srsum", "--q", "13"), ("gauss", "--q", "13", "--chi", "2")):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 0 and err == "" and len(parse_records(out)) == (12 if argv[0] == "srsum" else 1)


def test_compute_k2_large_prime(capsys):
    # every divisor row is one O(q log q) correlation, so a large prime q fits
    code, out, err = run_cli(capsys, "compute", "k2", "--q", "20011", "--chi", "1")
    assert code == 0 and err == ""
    assert parse_records(out)[0]["strategy"] == "reduced"


def test_cached_parser_keeps_runs_independent(capsys, monkeypatch):
    # one process: a usage error, then a valid compute; each prints the bytes
    # it prints in a process of its own
    bad = ("compute", "bogus", "--q", "5")
    good = ("compute", "lambda", "--q", "12", "--chi", "3", "--m", "2", "--n", "5")
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(bad))
    bad_in = (exc.value.code, *capsys.readouterr())
    good_in = run_cli(capsys, *good)
    env = {**os.environ, "COLUMNS": "80"}
    for argv, (code, out, err) in ((bad, bad_in), (good, good_in)):
        alone = _module_run(*argv, env=env)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, out.encode(), err.encode())
    assert bad_in[0] == 2 and good_in[0] == 0


@pytest.mark.parametrize(
    "argv, record",
    [
        ("lambda --q 7 --chi 2 --m 2 --n 3", "kind=lambda q=7 chi_index=2 chi_label=7:7^1=2 m=2 n=3 strategy=complete"),
        (
            "lambda --q 7 --chi 2 --m 2 --n 3 --start 1 --length 4",
            "kind=lambda q=7 chi_index=2 chi_label=7:7^1=2 m=2 n=3 start=1 length=4 strategy=interval",
        ),
        ("gauss --q 7 --chi 2 --n 3", "kind=gauss q=7 chi_index=2 chi_label=7:7^1=2 n=3 strategy=table"),
        ("k2 --q 7 --chi 2", "kind=k2 q=7 chi_index=2 chi_label=7:7^1=2 strategy=reduced"),
        ("quadsum --q 7 --a 2 --b 3", "kind=quadsum q=7 a=2 b=3 restricted=false strategy=direct"),
        (
            "pairsum --q 12 --chi 3 --y 5 --ell 4",
            "kind=pairsum q=12 chi_index=3 chi_label=12:2^2=1;3^1=1 y=5 ell=4 strategy=bucket",
        ),
        ("srsum --q 12 --chi 0", "kind=srsum q=12 chi_index=0 chi_label=12:2^2=0;3^1=0 exact=4 strategy=exact"),
    ],
)
def test_compute_record_key_order(capsys, argv, record):
    # a record is its head, the kind's own fields, the value, then the route
    code, out, err = run_cli(capsys, "compute", *argv.split())
    assert code == 0 and err == ""
    items = out.splitlines()[0].split(" ")
    *head, strategy = record.split(" ")
    assert items[: len(head)] == head and items[-1] == strategy
    assert [item.split("=")[0] for item in items[len(head) : -1]] == ["value_re", "value_im", "modulus"]


def test_compute_srsum_exact_integers(capsys):
    code, out, _ = run_cli(capsys, "compute", "srsum", "--q", "5")
    assert code == 0
    records = parse_records(out)
    assert sorted(int(r["exact"]) for r in records) == [0, 0, 2, 2]
    for r in records:
        assert float(r["value_re"]) == float(int(r["exact"]))


def test_compute_quadsum_counts(capsys):
    _, out, _ = run_cli(capsys, "compute", "quadsum", "--q", "9")
    assert float(parse_records(out)[0]["value_re"]) == 9.0
    _, out2, _ = run_cli(capsys, "compute", "quadsum", "--q", "9", "--restricted")
    assert float(parse_records(out2)[0]["value_re"]) == 6.0


def test_compute_pairsum_requires_divisor_ell(capsys):
    code, _, err = run_cli(capsys, "compute", "pairsum", "--q", "12", "--chi", "0", "--ell", "7")
    assert code == 2 and "error:" in err
    code2, out, _ = run_cli(capsys, "compute", "pairsum", "--q", "12", "--chi", "0", "--ell", "6", "--y", "5")
    assert code2 == 0
    rec = parse_records(out)[0]
    assert rec["ell"] == "6" and rec["y"] == "5"


def test_compute_bad_character_selectors(capsys):
    for selector in ("4", "8:2^3=0.1", "nonsense"):
        code, out, err = run_cli(capsys, "compute", "lambda", "--q", "4", "--chi", selector)
        assert code == 2, selector
        assert out == "" and "error:" in err


def test_compute_rejects_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "compute", "lambda", "--q", "0")
    assert code == 2 and "modulus" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_json_report_schema(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem1", "--q-range", "3..12")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"check", "descriptor", "config", "cases", "summary"}
    assert obj["check"] == "theorem1"
    assert obj["config"]["q_lo"] == 3 and obj["config"]["q_hi"] == 12
    assert obj["summary"]["tested"] == len(obj["cases"]) > 0
    for case in obj["cases"]:
        assert set(case) == {
            "check",
            "q",
            "chi_index",
            "chi_label",
            "kind",
            "params",
            "value_re",
            "value_im",
            "defect",
            "ratio",
            "passed",
        }


def test_verify_all_emits_bundle(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--q-range", "5..6", "--trials", "1")
    assert code == 0
    bundle = json.loads(out)
    assert [r["check"] for r in bundle] == list(ALL_CHECKS)


def test_verify_failure_exit1_with_witnesses(capsys):
    code, out, err = run_cli(capsys, "verify", "bound4", "--q-range", "25..25")
    assert code == 1
    obj = json.loads(out)
    assert obj["summary"]["passed"] < obj["summary"]["tested"]
    witness_lines = [l for l in err.splitlines() if l.startswith("witness:")]
    assert 1 <= len(witness_lines) <= 3
    assert all("q=25" in l for l in witness_lines)


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--q-range", "3..20", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1
    for line in lines[1:]:
        row = line.split(",")
        assert len(row) == len(CSV_COLUMNS)
        for col in ("value_re", "value_im", "defect", "ratio"):
            float(row[CSV_COLUMNS.index(col)])
        assert row[CSV_COLUMNS.index("passed")] in ("true", "false")
        int(row[CSV_COLUMNS.index("q")])


def test_verify_usage_errors(capsys):
    for q_range in ("0..2", "30..3", "junk", "5..x"):
        code, out, err = run_cli(capsys, "verify", "theorem1", "--q-range", q_range)
        assert code == 2, q_range
        assert out == "" and "error:" in err


def test_verify_repeat_runs_identical(capsys):
    argv = ("verify", "all", "--q-range", "3..12", "--seed", "42", "--trials", "2")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--q-range", "3..8", "--out", str(target))
    assert code == 0 and out == ""
    _, direct, _ = run_cli(capsys, "verify", "theorem1", "--q-range", "3..8")
    assert target.read_text() == direct


# ---------------------------------------------------------------------------
# bilinear
# ---------------------------------------------------------------------------


def test_bound5_trials_zero_has_no_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "bound5", "--trials", "0")
    assert code == 0
    assert json.loads(out)["summary"]["tested"] == 0
    code, out, _ = run_cli(capsys, "verify", "bound5", "--trials", "0", "--format", "csv")
    assert (code, out) == (0, ",".join(CSV_COLUMNS) + "\n")


def test_bilinear_trials_zero_header_only(capsys):
    code, out, _ = run_cli(capsys, "bilinear", "--trials", "0", "--format", "csv")
    assert code == 0
    assert out == ",".join(CSV_COLUMNS) + "\n"


def test_bilinear_fixed_parameters_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        *"bilinear --q 101 --A 8 --M 8 --N 8 --trials 2 --seed 7 --format csv".split(),
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        row = line.split(",")
        assert row[CSV_COLUMNS.index("q")] == "101"
        assert row[CSV_COLUMNS.index("passed")] == "true"


def test_bilinear_empty_prime_range(capsys):
    code, _, err = run_cli(capsys, "bilinear", "--q-range", "32..36", "--trials", "1")
    assert code == 2 and "no primes" in err


def test_bilinear_naive_oracle_cap_exit3(capsys, monkeypatch):
    argv = "bilinear --q 101 --A 8 --M 8 --N 8 --trials 2".split()
    monkeypatch.setattr(sums_module, "NAIVE_BILINEAR_TERM_LIMIT", 8**3)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(sums_module, "NAIVE_BILINEAR_TERM_LIMIT", 8**3 - 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    # seed 1 draws scales 8, 4, 8, 16: only the last trial is over the cap,
    # and no trial runs
    ran = []
    monkeypatch.setattr(verify_module, "bilinear_form", lambda *a: ran.append(a) or 0j)
    monkeypatch.setattr(sums_module, "NAIVE_BILINEAR_TERM_LIMIT", 16**3 - 1)
    code, out, err = run_cli(capsys, "bilinear", "--seed", "1", "--trials", "4")
    assert code == 3 and out == "" and err.startswith("error:")
    assert ran == []


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def _module_run(*argv, env=None):
    """`python -m charsum` in a child process that imports this checkout's src."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "charsum", *argv],
        capture_output=True,
        timeout=300,
        env=env,
    )


def test_module_entry_byte_identical():
    argv = ("verify", "lemma1", "--q-range", "3..10", "--format", "csv")
    first = _module_run(*argv)
    second = _module_run(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_module_entry_unknown_command():
    proc = _module_run("bogus")
    assert proc.returncode == 2


def test_bad_thread_count_is_usage_error():
    # sweeps run serially, but CHARSUM_THREADS is still validated
    env = {**os.environ, "CHARSUM_THREADS": "junk"}
    proc = _module_run("verify", "bound4", "--q-range", "3..5", env=env)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # no prime divides q = 1, so the bilinear hypothesis has no smallest prime
        ("bilinear", "--q", "1", "--trials", "1"),
        # q^(1/2+epsilon) and q^epsilon overflow, or underflow to 0
        ("verify", "bound5", "--q-range", "3..3", "--epsilon", "1e308"),
        ("verify", "bound5", "--q-range", "3..3", "--epsilon=-1e308"),
        ("bilinear", "--q", "7", "--trials", "1", "--A", "1", "--M", "1", "--N", "1", "--epsilon", "1e308"),
        # non-finite knobs
        ("verify", "bound5", "--q-range", "3..3", "--epsilon", "nan"),
        ("bilinear", "--q", "7", "--trials", "1", "--gamma", "inf"),
        # a negative trial count would run nothing and pass vacuously
        ("verify", "bound5", "--q-range", "3..5", "--trials", "-1"),
        ("verify", "theorem2", "--q-range", "3..5", "--trials", "-3"),
        ("bilinear", "--trials", "-1"),
        # quadsum takes no character: the modulus cap comes from its per-modulus tables
        ("compute", "quadsum", "--q", "1000001", "--a", "1", "--b", "1"),
    ],
)
def test_out_of_range_inputs_are_usage_errors(argv):
    proc = _module_run(*argv)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr
    assert proc.stderr.count(b"\n") == 1


def test_bilinear_extreme_gamma_fails_the_hypothesis(capsys):
    # log(N)^gamma beyond float range, or 0^gamma for gamma < 0 at N = 1, is +inf
    for n_scale, gamma in (("1", "-1"), ("4", "1e308"), ("2", "-1e308")):
        code, out, err = run_cli(
            capsys, "bilinear", "--q", "7", "--trials", "1", "--A", "1", "--M", "1", "--N", n_scale, f"--gamma={gamma}"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["cases"][0]["params"]["hypothesis_ok"] is False
