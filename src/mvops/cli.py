"""Command line front end.

Subcommands: `family` runs a catalog family with all cross-checks,
`counterexample` builds the recurrence-compatible non-orthogonal pair and
verifies its rank defects, `check` runs one of the two inverse-problem
validators on serialized inputs, `generate` regenerates a system forward
from serialized recurrence blocks, and `relate` computes the relation
blocks between two serialized systems.  Exit codes: 0 all checks pass
(a report without checks fails), 1 a mathematical check fails, 2 usage
errors, inadmissible parameters, input files that are unreadable,
non-finite, misshapen or of degree < 1 (relate), and an unwritable --out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import matrixkit as mk
from . import families, linrel, moments, serialize, ttr
from .checks import Check, all_pass
from .construct import QuasiDefiniteFailure, gram_blocks

USAGE_ERROR = 2
MATH_FAIL = 1

# what a missing, unreadable or malformed input file raises
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError)

# `family` options passed on to families.build_family when given
_FAMILY_OPTIONS = ("mu", "kind", "rho", "alpha", "beta", "a1", "kappa2", "ay",
                  "kappa", "a", "b", "j", "raise_b")


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
            status = "pass" if c.ok else "FAIL"
            where = ""
            if c.degree is not None:
                where += f" n={c.degree}"
            if c.direction is not None:
                where += f" i={c.direction}"
            if c.rank is None:
                detail = f" value={c.value:.3e} bound={c.bound:.1e}"
            else:
                detail = f" rank={c.rank} expected={c.expected}"
            print(f"[{status}] {c.name}{where}{detail}")
        for key, val in self.extras.items():
            print(f"{key}: {val}")
        print(f"overall: {'pass' if self.overall else 'FAIL'} ({self.seconds:.2f}s)")


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
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def cmd_family(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    params = {key: getattr(args, key) for key in _FAMILY_OPTIONS
              if getattr(args, key) is not None}
    start = time.time()
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
    start = time.time()
    combined, rel = linrel.counterexample(args.n)
    report = VerdictReport(command="counterexample", tol_rank=tol_rank, tol_res=tol_res)
    _, residuals = ttr.generate_from_ttr(combined, args.n)
    report.checks.append(
        Check.residual("recurrence-consistency", mk.worst(residuals), 1e-10)
    )
    reference = linrel.reference_ttr_for_counterexample(args.n + 1)
    compat = linrel.compat_checks(rel, reference, combined, 1e-10)
    report.checks.append(
        Check.residual("compatibility", mk.worst(c.value for c in compat), 1e-10)
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
        return serialize._read(fh.read(), kind, checked=True)


def cmd_check(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    start = time.time()
    try:
        # the relation is the smaller file: a bad one fails before the recurrence is read
        rel = _load(args.relation, "linear_relation")
        T = _load(args.ttr, "three_term")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
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
    start = time.time()
    try:
        T = _load(args.ttr, "three_term")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
    system, residuals = ttr.generate_from_ttr(T, args.N)
    report = VerdictReport(command="generate", tol_rank=tol_rank, tol_res=tol_res)
    report.checks = [Check.residual("consistency", res, tol_res, n)
                     for n, res in enumerate(residuals)]
    if args.out and not _write(args.out, serialize.system_to_json(system)):
        return USAGE_ERROR
    return _finish(report, args, start)


def cmd_relate(args) -> int:
    tol_rank, tol_res = args.tol_rank, args.tol_res
    start = time.time()
    try:
        u = moments.parse_functional(args.functional)
        Q = _load(args.combined, "polynomial_system")
        P = _load(args.reference, "polynomial_system")
    except INPUT_ERRORS as exc:
        return _usage_error(exc)
    if min(Q.N, P.N) < 1:
        return _usage_error(f"relate needs systems of degree >= 1, got {Q.N} and {P.N}")
    rel = linrel.compute_relation(Q, P, u, gram_blocks(u, P))
    report = VerdictReport(command="relate", tol_rank=tol_rank, tol_res=tol_res)
    report.checks.append(Check.residual("fourier-tail", rel.tail, tol_res))
    report.extras["classification"] = linrel.classify_ranks(rel, tol_rank)
    if args.out and not _write(args.out, serialize.relation_to_json(rel)):
        return USAGE_ERROR
    return _finish(report, args, start)


def build_parser() -> argparse.ArgumentParser:
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
    fam.add_argument("--mu", type=float, default=None)
    fam.add_argument("--kind", type=int, default=None)
    fam.add_argument("--rho", type=float, default=None)
    fam.add_argument("--alpha", type=float, default=None)
    fam.add_argument("--beta", type=float, default=None)
    fam.add_argument("--a1", type=float, default=None)
    fam.add_argument("--kappa2", type=float, default=None)
    fam.add_argument("--ay", type=float, default=None)
    fam.add_argument("--kappa", type=_floats, default=None,
                     help="comma-separated weight exponents")
    fam.add_argument("--a", type=_floats, default=None)
    fam.add_argument("--b", type=_floats, default=None)
    fam.add_argument("--j", type=int, default=None, help="parameter direction")
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
