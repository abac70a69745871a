"""Command line front end.

Subcommands: `family` runs a catalog family with all cross-checks,
`counterexample` builds the recurrence-compatible non-orthogonal pair and
verifies its rank defects, `check` runs one of the two inverse-problem
validators on serialized inputs, `generate` regenerates a system forward
from serialized recurrence blocks, and `relate` computes the relation
blocks between two serialized systems and checks that the reference system
is orthogonal for --functional.  Exit codes: 0 all checks pass
(a report without checks fails), 1 a mathematical check fails, 2 usage
errors, inadmissible parameters, input files that are unreadable,
non-finite, misshapen, of degree < 1 (relate) or of mismatched dimensions
(check, relate), and an unwritable --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field

from . import matrixkit as mk
from . import construct, families, linrel, moments, serialize, ttr
from .checks import Check, all_pass
from .moments import QuasiDefiniteFailure

USAGE_ERROR = 2
MATH_FAIL = 1

# what a missing, unreadable or malformed input file raises
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError)

# what starts a value that argparse would take for an option: '-' then a
# digit or '.'
_NEGATIVE_START = re.compile(r"-\.?\d")


@dataclass
class VerdictReport:
    command: str
    tol_rank: float
    tol_res: float
    checks: list[Check] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def overall(self) -> bool:
        return all_pass(self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "tolerances": {"rank": self.tol_rank, "residual": self.tol_res},
                "checks": [c.to_dict() for c in self.checks],
                "extras": self.extras,
                "overall_pass": self.overall,
                "seconds": self.seconds,
            },
            indent=2,
            default=float,
        )

    def print_plain(self) -> None:
        for c in self.checks:
            print(f"[{'pass' if c.ok else 'FAIL'}] {_describe(c)}")
        for key, val in self.extras.items():
            print(f"{key}: {val}")
        print(f"overall: {'pass' if self.overall else 'FAIL'} ({self.seconds:.2f}s)")


def _describe(c: Check) -> str:
    """A check on one line: name, degree and direction, and its figures."""
    where = ""
    if c.degree is not None:
        where += f" n={c.degree}"
    if c.direction is not None:
        where += f" i={c.direction}"
    if c.rank is None:
        return f"{c.name}{where} value={c.value:.3e} bound={c.bound:.1e}"
    return f"{c.name}{where} rank={c.rank} expected={c.expected}"


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _floats(text: str) -> tuple[float, ...]:
    """argparse type of a comma-separated vector option."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


# `family` options passed on to families.build_family when given, by
# argparse type (--raise-b, a flag, is passed on too); a number or a
# comma-separated vector may start with '-'
_FAMILY_OPTIONS = {"mu": float, "kind": int, "rho": float, "alpha": float, "beta": float,
                   "a1": float, "kappa2": float, "ay": float, "kappa": _floats,
                   "a": _floats, "b": _floats, "j": int}
_FAMILY_HELP = {"kappa": "comma-separated weight exponents", "j": "parameter direction"}
_NUMBER_OPTIONS = {f"--{name}" for name, kind in _FAMILY_OPTIONS.items() if kind is not int}


def _attach_negative_values(argv: list) -> list:
    """Spell `--kappa -0.5,1` as `--kappa=-0.5,1` and `--rho -1e2` as `--rho=-1e2`.

    argparse reads a token that starts with '-' as an option unless it looks
    like a plain number such as -100 or -0.5, so a vector whose first entry
    is negative, or a negative number in exponent notation, would be refused
    as a missing value; attached, it reaches the option's converter.
    """
    out = []
    for token in argv:
        if out and out[-1] in _NUMBER_OPTIONS and _NEGATIVE_START.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: one positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _write(path: str, text: str) -> bool:
    """Write an --out file; a path that cannot be written prints one `error:` line."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _usage_error(exc)
        return False
    return True


def _finish(report: VerdictReport, args, start: float) -> int:
    """Print the report and return its exit code; a report without checks fails."""
    if not report.checks:
        report.checks.append(Check.flag("no-checks", False))
    report.seconds = time.perf_counter() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def cmd_family(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    params = {key: getattr(args, key) for key in (*_FAMILY_OPTIONS, "raise_b")
              if getattr(args, key) is not None}
    start = time.perf_counter()
    try:
        bundle = families.build_family(args.name, args.N, res_tol=tol_res,
                                       rank_tol=tol_rank, **params)
    except (KeyError, families.ParameterError) as exc:
        return _usage_error(exc)
    report = VerdictReport(command=f"family {args.name}", tol_rank=tol_rank,
                           tol_res=tol_res, checks=list(bundle.records))
    report.extras["params"] = bundle.params
    report.extras["classification"] = bundle.extras.get("classification")
    lam = bundle.extras.get("lambda")
    if lam is not None:
        report.extras["lambda"] = {"a": [float(x) for x in lam.a], "b": float(lam.b)}
    report.extras["orthogonal_verdict"] = bundle.orthogonal_verdict
    partner = bundle.extras.get("report")
    if partner is not None:
        # the failed checks of the partner recurrence that decide the verdict:
        # shown, but not among the bundle's checks, which it does not fail
        report.extras["verdict_failed_checks"] = [_describe(c) for c in partner.checks
                                                  if not c.ok]
    if bundle.expected_orthogonal is not None:
        report.extras["expected_orthogonal"] = bundle.expected_orthogonal
        report.extras["matches_expectation"] = bundle.matches_expectation
        report.checks.append(
            Check.flag("verdict-matches-expectation", bundle.matches_expectation)
        )
        if not bundle.orthogonal_verdict and bundle.matches_expectation:
            report.extras["note"] = "matches expectation: not orthogonal"
    return _finish(report, args, start)


def cmd_counterexample(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    if args.n < 2:
        return _usage_error(f"--n must be >= 2, got {args.n}")
    start = time.perf_counter()
    combined, rel = linrel.counterexample(args.n)
    report = VerdictReport(command="counterexample", tol_rank=tol_rank, tol_res=tol_res)
    _, residuals = ttr.generate_from_ttr(combined, args.n)
    report.checks.append(
        Check.residual("recurrence-consistency", mk.worst(residuals), tol_res)
    )
    reference = linrel.reference_ttr_for_counterexample(args.n + 1)
    compat = linrel.compat_checks(rel, reference, combined, tol_res)
    report.checks.append(
        Check.residual("compatibility", mk.worst(c.value for c in compat), tol_res)
    )
    full_report = ttr.validate_rank_conditions(combined, tol_rank)
    report.checks.extend(
        Check.ranked("deficient-rank", c.rank, c.degree - 1, c.degree, 1)
        for c in full_report.checks
        if c.name == "C" and c.direction == 1 and c.degree >= 2
    )
    others_ok = all(
        c.ok for c in full_report.checks
        if not (c.name == "C" and c.direction == 1)
        and not (c.name == "C-joint" and c.degree == 1)
    )
    report.checks.append(Check.flag("other-blocks-full-rank", others_ok))
    return _finish(report, args, start)


def _load(path: str, kind: str):
    """Read and check one envelope of `kind`; its first bad block raises ValueError."""
    with open(path) as fh:
        return serialize._read(fh.read(), kind, checked=True, source=path)


def cmd_check(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    start = time.perf_counter()
    try:
        # the relation is the smaller file: a bad one fails before the recurrence is read
        rel = _load(args.relation, "linear_relation")
        T = _load(args.ttr, "three_term")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
    if T.d != rel.d:
        return _usage_error(f"check needs a recurrence and relation of one dimension, "
                            f"got {T.d} and {rel.d}")
    if args.theorem == 3:
        candidate, partner = linrel.reference_from_combined(T, rel, tol=tol_res)
        label = "reference-orthogonal"
    else:
        candidate, partner = linrel.combined_from_reference(T, rel, tol=tol_res,
                                                            rank_tol=tol_rank)
        label = "combined-orthogonal"
    report = VerdictReport(command=f"check theorem {args.theorem}",
                           tol_rank=tol_rank, tol_res=tol_res, checks=partner.checks)
    report.extras["verdict"] = f"{label}: {partner.verdict}"
    if args.out and not _write(args.out, serialize.ttr_to_json(candidate)):
        return USAGE_ERROR
    return _finish(report, args, start)


def cmd_generate(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    if args.N is not None and args.N < 0:
        return _usage_error(f"--N must be >= 0, got {args.N}")
    start = time.perf_counter()
    try:
        T = _load(args.ttr, "three_term")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
    if args.N is not None and args.N > T.reachable_degree:
        return _usage_error(f"--N {args.N} is above degree {T.reachable_degree}, "
                            "the highest the recurrence reaches")
    system, residuals = ttr.generate_from_ttr(T, args.N)
    report = VerdictReport(command="generate", tol_rank=tol_rank, tol_res=tol_res)
    report.checks = [Check.residual("consistency", res, tol_res, n)
                     for n, res in enumerate(residuals)]
    if args.out and not _write(args.out, serialize.system_to_json(system)):
        return USAGE_ERROR
    return _finish(report, args, start)


def cmd_relate(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    start = time.perf_counter()
    try:
        u = moments.parse_functional(args.functional)
        Q = _load(args.combined, "polynomial_system")
        P = _load(args.reference, "polynomial_system")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
    if min(Q.N, P.N) < 1:
        return _usage_error(f"relate needs systems of degree >= 1, got {Q.N} and {P.N}")
    if not Q.d == P.d == u.d:
        return _usage_error(f"relate needs systems and functional of one dimension, "
                            f"got {Q.d}, {P.d} and {u.d}")
    rel = linrel.compute_relation(Q, P, u)
    report = VerdictReport(command="relate", tol_rank=tol_rank, tol_res=tol_res)
    # the relation is read off the coefficients; only this check reads u
    report.checks.append(Check.residual("orthogonality-reference",
                                        construct.orthogonality_residual(u, P), tol_res))
    report.checks.append(Check.residual("fourier-tail", rel.tail, tol_res))
    report.extras["classification"] = linrel.classify_ranks(rel, tol_rank)
    if args.out and not _write(args.out, serialize.relation_to_json(rel)):
        return USAGE_ERROR
    return _finish(report, args, start)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args only
    reads it and returns a fresh namespace, so no call sees another's options."""
    parser = argparse.ArgumentParser(
        prog="mvops",
        description="Multivariate orthogonal polynomial systems: linear "
                    "structure relations, recurrences and verification.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--tol-rank", type=_tolerance, default=mk.DEFAULT_RANK_TOL,
                        help="relative singular-value threshold for rank decisions")
    parser.add_argument("--tol-res", type=_tolerance, default=mk.DEFAULT_RES_TOL,
                        help="relative residual tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="run a catalog family with cross-checks")
    fam.add_argument("name", choices=families.FAMILY_NAMES)
    fam.add_argument("--N", type=int, default=5)
    for name, kind in _FAMILY_OPTIONS.items():
        fam.add_argument(f"--{name}", type=kind, default=None, help=_FAMILY_HELP.get(name))
    fam.add_argument("--raise-b", dest="raise_b", action="store_true", default=None)
    fam.set_defaults(func=cmd_family)

    cex = sub.add_parser("counterexample",
                         help="recurrence-compatible pair that is not orthogonal")
    cex.add_argument("--n", type=int, default=8)
    cex.set_defaults(func=cmd_counterexample)

    chk = sub.add_parser("check", help="inverse-problem validators on files")
    chk.add_argument("--theorem", type=int, choices=(3, 4), required=True,
                     help="3: combined side given, decide the reference side; "
                          "4: reference side given, decide the combined side")
    chk.add_argument("--ttr", required=True, help="three-term blocks (JSON)")
    chk.add_argument("--relation", required=True, help="relation blocks (JSON)")
    chk.add_argument("--out", default=None, help="write the candidate blocks here")
    chk.set_defaults(func=cmd_check)

    gen = sub.add_parser("generate", help="regenerate a system from recurrence blocks")
    gen.add_argument("--ttr", required=True)
    gen.add_argument("--N", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    relp = sub.add_parser("relate", help="relation blocks between two systems")
    relp.add_argument("--combined", required=True)
    relp.add_argument("--reference", required=True)
    relp.add_argument("--functional", required=True,
                      help="reference functional spec, e.g. disk:mu=0.5")
    relp.add_argument("--out", default=None)
    relp.set_defaults(func=cmd_relate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except QuasiDefiniteFailure as exc:
        print(f"not quasi-definite: {exc}", file=sys.stderr)
        return MATH_FAIL
    except ValueError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
