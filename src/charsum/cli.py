"""Command-line front end.

Three subcommands:

* ``compute``  - evaluate one sum (or one per character with ``--chi all``)
  and print a flat key=value record per line.
* ``verify``   - run a named verification sweep (or ``all``) over a modulus
  range and emit the report as JSON or CSV.
* ``bilinear`` - run seeded bilinear-form instances and emit the ratio report.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from charsum.character import (
    character_group,
    enumerate_characters,
    parse_character_label,
)
from charsum.sums import (
    CapacityError,
    IntervalSpec,
    character_pair_sum,
    complete_lambda,
    gauss_sum,
    incomplete_lambda,
    quadratic_expsum,
    second_moment,
    unit_root_char_sum,
)
from charsum.verify import (
    ALL_CHECKS,
    CSV_COLUMNS,
    ExperimentConfig,
    UsageError,
    VerificationReport,
    bilinear_experiment,
    reports_json,
    run_all,
    run_check,
)

_COMPUTE_KINDS = ("lambda", "gauss", "k2", "quadsum", "pairsum", "srsum")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Character-sum computations and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate a single sum")
    comp.add_argument("kind", choices=_COMPUTE_KINDS)
    comp.add_argument("--q", type=int, required=True, help="modulus")
    comp.add_argument(
        "--chi",
        default="all",
        help="character: enumeration index, serialized label, or 'all'",
    )
    comp.add_argument("--m", type=int, default=1)
    comp.add_argument("--n", type=int, default=1)
    comp.add_argument("--start", type=int, default=None, help="first residue of the summation interval")
    comp.add_argument("--length", type=int, default=None, help="number of consecutive residues summed")
    comp.add_argument("--a", type=int, default=0, help="quadratic coefficient")
    comp.add_argument("--b", type=int, default=0, help="linear coefficient")
    comp.add_argument("--restricted", action="store_true", help="sum over units only")
    comp.add_argument("--y", type=int, default=1, help="pair-sum twist")
    comp.add_argument("--ell", type=int, default=None, help="pair-sum congruence modulus (divides q)")
    comp.add_argument("--strategy", choices=("auto", "naive", "reduced"), default="auto")
    comp.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a verification sweep")
    ver.add_argument("check", choices=ALL_CHECKS + ("all",))
    ver.add_argument("--q-range", dest="q_range", default="3..30", help="LO..HI inclusive")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=4)
    ver.add_argument("--epsilon", type=float, default=0.1)
    ver.add_argument("--gamma", type=float, default=2.0)
    ver.add_argument("--coeff-model", dest="coeff_model", choices=("unit-disc", "signs", "zero"), default="unit-disc")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--out", default=None)

    bil = sub.add_parser("bilinear", help="seeded bilinear-form experiment")
    bil.add_argument("--q", type=int, default=None, help="fixed prime modulus (default: seeded draw)")
    bil.add_argument("--q-range", dest="q_range", default="50..200", help="prime draw range LO..HI")
    bil.add_argument("--A", type=int, default=None, help="unit-variable dyadic scale")
    bil.add_argument("--M", type=int, default=None, help="m dyadic scale")
    bil.add_argument("--N", type=int, default=None, help="n dyadic scale")
    bil.add_argument("--trials", type=int, default=20)
    bil.add_argument("--seed", type=int, default=0)
    bil.add_argument("--epsilon", type=float, default=0.1)
    bil.add_argument("--gamma", type=float, default=2.0)
    bil.add_argument("--coeff-model", dest="coeff_model", choices=("unit-disc", "signs", "zero"), default="unit-disc")
    bil.add_argument("--format", choices=("json", "csv"), default="json")
    bil.add_argument("--out", default=None)

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if sep != ".." or not lo.isdigit() or not hi.isdigit():
        raise UsageError(f"bad q-range {text!r}, expected LO..HI")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i > hi_i:
        raise UsageError(f"empty q-range {text!r}")
    return lo_i, hi_i


def _select_characters(q: int, selector: str):
    group = character_group(q)
    if selector == "all":
        return enumerate_characters(group)
    if selector.isdigit():
        index = int(selector)
        if index >= group.size:
            raise UsageError(f"character index {index} out of range for modulus {q} (size {group.size})")
        return [group.character_at(index)]
    try:
        chi = parse_character_label(selector)
    except ValueError as exc:
        raise UsageError(f"bad character selector {selector!r}: {exc}") from exc
    if chi.modulus != q:
        raise UsageError(f"character label modulus {chi.modulus} does not match --q {q}")
    return [chi]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _record_line(fields: list[tuple[str, object]]) -> str:
    return " ".join(f"{key}={value}" for key, value in fields) + "\n"


def _value_fields(value: complex) -> list[tuple[str, object]]:
    return [
        ("value_re", repr(float(value.real))),
        ("value_im", repr(float(value.imag))),
        ("modulus", repr(abs(value))),
    ]


def cmd_compute(args: argparse.Namespace) -> int:
    q = args.q
    if q < 1:
        raise UsageError(f"modulus must be >= 1, got {q}")
    kind = args.kind
    lines: list[str] = []

    if kind == "quadsum":
        value = quadratic_expsum(args.a, args.b, q, restricted=args.restricted)
        lines.append(
            _record_line(
                [
                    ("kind", kind),
                    ("q", q),
                    ("a", args.a),
                    ("b", args.b),
                    ("restricted", str(args.restricted).lower()),
                ]
                + _value_fields(value)
                + [("strategy", "direct")]
            )
        )
    else:
        for chi in _select_characters(q, args.chi):
            base = [("kind", kind), ("q", q), ("chi_index", chi.index), ("chi_label", chi.label)]
            if kind == "lambda":
                if (args.start is None) != (args.length is None):
                    raise UsageError("--start and --length must be given together")
                if args.start is not None:
                    value = incomplete_lambda(chi, args.m, args.n, IntervalSpec(args.start, args.length))
                    extra = [("m", args.m), ("n", args.n), ("start", args.start), ("length", args.length)]
                    strategy = "interval"
                else:
                    value = complete_lambda(chi, args.m, args.n)
                    extra = [("m", args.m), ("n", args.n)]
                    strategy = "complete"
                lines.append(_record_line(base + extra + _value_fields(value) + [("strategy", strategy)]))
            elif kind == "gauss":
                value = gauss_sum(chi, args.n)
                lines.append(_record_line(base + [("n", args.n)] + _value_fields(value) + [("strategy", "table")]))
            elif kind == "k2":
                strategy = args.strategy
                resolved = "reduced" if strategy == "auto" else strategy
                value = second_moment(chi, strategy)
                lines.append(
                    _record_line(
                        base + _value_fields(complex(value)) + [("strategy", resolved)]
                    )
                )
            elif kind == "pairsum":
                ell = args.ell if args.ell is not None else q
                value = character_pair_sum(chi, args.y, ell)
                lines.append(
                    _record_line(
                        base + [("y", args.y), ("ell", ell)] + _value_fields(value) + [("strategy", "bucket")]
                    )
                )
            elif kind == "srsum":
                exact = unit_root_char_sum(chi)
                lines.append(
                    _record_line(
                        base
                        + [("exact", exact)]
                        + _value_fields(complex(exact))
                        + [("strategy", "exact")]
                    )
                )
    _emit("".join(lines), args.out)
    return 0


def _reports_csv(reports: list[VerificationReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for report in reports:
        for case in report.cases:
            lines.append(",".join(case.to_csv_row()))
    return "\n".join(lines) + "\n"


def _emit_reports(reports: list[VerificationReport], fmt: str, out, bundle: bool) -> int:
    if fmt == "csv":
        text = _reports_csv(reports)
    else:
        text = reports_json(reports, bundle)
    _emit(text, out)
    failed = [r for r in reports if not r.passed_all]
    for report in failed:
        for witness in report.witnesses():
            print(
                f"witness: check={witness.check} q={witness.q} chi={witness.chi_label or '-'}"
                f" kind={witness.kind} params={witness.params_string() or '-'}"
                f" value={witness.value_re!r}{'+' if witness.value_im >= 0 else ''}{witness.value_im!r}j"
                f" defect={witness.defect!r} ratio={witness.ratio!r}",
                file=sys.stderr,
            )
    return 1 if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    q_lo, q_hi = _parse_range(args.q_range)
    cfg = ExperimentConfig(
        q_lo=q_lo,
        q_hi=q_hi,
        seed=args.seed,
        trials=args.trials,
        coeff_model=args.coeff_model,
        epsilon=args.epsilon,
        gamma=args.gamma,
    )
    if args.check == "all":
        reports = run_all(cfg)
        return _emit_reports(reports, args.format, args.out, bundle=True)
    report = run_check(args.check, cfg)
    return _emit_reports([report], args.format, args.out, bundle=False)


def cmd_bilinear(args: argparse.Namespace) -> int:
    q_lo, q_hi = _parse_range(args.q_range)
    cfg = ExperimentConfig(
        q_lo=q_lo,
        q_hi=q_hi,
        seed=args.seed,
        trials=args.trials,
        coeff_model=args.coeff_model,
        epsilon=args.epsilon,
        gamma=args.gamma,
    )
    report = bilinear_experiment(
        cfg, q=args.q, a_scale=args.A, m_scale=args.M, n_scale=args.N
    )
    return _emit_reports([report], args.format, args.out, bundle=False)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bilinear":
            return cmd_bilinear(args)
        raise UsageError(f"unknown command {args.command!r}")
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
