"""Command-line front end.

Three subcommands:

* ``compute``  - evaluate one sum (or one per character with ``--chi all``)
  and print a flat key=value record per line.  `_COMPUTE` maps each kind
  to its evaluator; every record is ``kind q [chi_index chi_label]``, the
  kind's own fields, ``value_re value_im modulus`` and ``strategy``.
* ``verify``   - run a named verification sweep (or ``all``) over a modulus
  range and emit the report as JSON or CSV.
* ``bilinear`` - run seeded bilinear-form instances and emit the ratio report.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from functools import lru_cache

from charsum.character import (
    character_group,
    enumerate_characters,
    parse_character_label,
)
from charsum.rng import COEFF_MODELS
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
    ExperimentConfig,
    UsageError,
    VerificationReport,
    bilinear_experiment,
    reports_csv,
    reports_json,
    run_all,
    run_check,
)

# Largest phi(q) * q that `compute --chi all` accepts for the kinds that read
# value tables (all but srsum).  Each character's q-entry table stays cached
# for the run at 16 bytes an entry, so the cap holds them to 256 MB; past it
# the request is a capacity error (exit 3) instead of a numpy memory error.
# Just under the cap, at q = 4093 (phi * q = 16.75M), `compute gauss --chi
# all` takes about 1 s and 291 MB peak RSS on a 2-CPU Xeon VM.
CHI_ALL_TABLE_LIMIT = 2**24


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Character-sum computations and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate a single sum")
    comp.add_argument("kind", choices=tuple(_COMPUTE))
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
    ver.add_argument("--coeff-model", dest="coeff_model", choices=COEFF_MODELS, default="unit-disc")
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
    bil.add_argument("--coeff-model", dest="coeff_model", choices=COEFF_MODELS, default="unit-disc")
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


def _select_characters(q: int, selector: str, kind: str):
    group = character_group(q)
    if selector == "all":
        # srsum evaluates each character at the square roots of unity only
        if kind != "srsum" and group.size * q > CHI_ALL_TABLE_LIMIT:
            raise CapacityError(
                f"--chi all at q = {q} would cache {group.size} value tables of {q} entries"
                f" ({group.size * q} > {CHI_ALL_TABLE_LIMIT}); name one character instead"
            )
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


def _value_fields(value: complex) -> list[tuple[str, object]]:
    value = complex(value)
    return [
        ("value_re", repr(value.real)),
        ("value_im", repr(value.imag)),
        ("modulus", repr(abs(value))),
    ]


def _lambda(chi, args: argparse.Namespace):
    if (args.start is None) != (args.length is None):
        raise UsageError("--start and --length must be given together")
    if args.start is None:
        return [("m", args.m), ("n", args.n)], complete_lambda(chi, args.m, args.n), "complete"
    value = incomplete_lambda(chi, args.m, args.n, IntervalSpec(args.start, args.length))
    return [("m", args.m), ("n", args.n), ("start", args.start), ("length", args.length)], value, "interval"


def _k2(chi, args: argparse.Namespace):
    strategy = "reduced" if args.strategy == "auto" else args.strategy
    return [], second_moment(chi, args.strategy), strategy


def _quadsum(_, args: argparse.Namespace):
    fields = [("a", args.a), ("b", args.b), ("restricted", str(args.restricted).lower())]
    return fields, quadratic_expsum(args.a, args.b, args.q, restricted=args.restricted), "direct"


def _pairsum(chi, args: argparse.Namespace):
    ell = args.ell if args.ell is not None else args.q
    return [("y", args.y), ("ell", ell)], character_pair_sum(chi, args.y, ell), "bucket"


def _srsum(chi, _):
    exact = unit_root_char_sum(chi)
    return [("exact", exact)], exact, "exact"


# Each compute kind, in the CLI's order, to (chi, args) -> (fields, value,
# strategy): the kind's own record fields, the sum, and the route taken.
# quadsum takes no character (chi is None).
_COMPUTE: dict[str, Callable] = {
    "lambda": _lambda,
    "gauss": lambda chi, args: ([("n", args.n)], gauss_sum(chi, args.n), "table"),
    "k2": _k2,
    "quadsum": _quadsum,
    "pairsum": _pairsum,
    "srsum": _srsum,
}


def cmd_compute(args: argparse.Namespace) -> int:
    q = args.q
    if q < 1:
        raise UsageError(f"modulus must be >= 1, got {q}")
    kind = args.kind
    characters = [None] if kind == "quadsum" else _select_characters(q, args.chi, kind)
    lines = []
    for chi in characters:
        fields, value, strategy = _COMPUTE[kind](chi, args)
        head = [("kind", kind), ("q", q)]
        if chi is not None:
            head += [("chi_index", chi.index), ("chi_label", chi.label)]
        record = head + fields + _value_fields(value) + [("strategy", strategy)]
        lines.append(" ".join(f"{k}={v}" for k, v in record) + "\n")
    _emit("".join(lines), args.out)
    return 0


def _emit_reports(reports: list[VerificationReport], fmt: str, out, bundle: bool) -> int:
    _emit(reports_csv(reports) if fmt == "csv" else reports_json(reports, bundle), out)
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


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The sweep configuration shared by `verify` and `bilinear`."""
    q_lo, q_hi = _parse_range(args.q_range)
    return ExperimentConfig(
        q_lo=q_lo,
        q_hi=q_hi,
        seed=args.seed,
        trials=args.trials,
        coeff_model=args.coeff_model,
        epsilon=args.epsilon,
        gamma=args.gamma,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.check == "all":
        reports = run_all(cfg)
        return _emit_reports(reports, args.format, args.out, bundle=True)
    report = run_check(args.check, cfg)
    return _emit_reports([report], args.format, args.out, bundle=False)


def cmd_bilinear(args: argparse.Namespace) -> int:
    report = bilinear_experiment(
        _config(args), q=args.q, a_scale=args.A, m_scale=args.M, n_scale=args.N
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
