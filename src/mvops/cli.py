"""Command line front end.

Subcommands: `family` runs a catalog family with all cross-checks,
`counterexample` builds the recurrence-compatible non-orthogonal pair and
verifies its rank defects, `check` runs one of the two inverse-problem
validators on serialized inputs, `generate` regenerates a system forward
from serialized recurrence blocks, and `relate` computes the relation
blocks between two serialized systems.  Exit codes: 0 all checks pass,
1 a mathematical check fails, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from . import families, linrel, moments, serialize, ttr
from .construct import GramBlocks, QuasiDefiniteFailure, inner_block

USAGE_ERROR = 2
MATH_FAIL = 1


@dataclass
class VerdictReport:
    command: str
    tol_rank: float
    tol_res: float
    records: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def overall(self) -> bool:
        return all(r.get("pass", False) for r in self.records)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "tolerances": {"rank": self.tol_rank, "residual": self.tol_res},
                "checks": self.records,
                "extras": self.extras,
                "overall_pass": self.overall,
                "seconds": self.seconds,
            },
            indent=2,
            default=float,
        )

    def print_plain(self) -> None:
        for r in self.records:
            status = "pass" if r.get("pass") else "FAIL"
            where = ""
            if r.get("degree") is not None:
                where += f" n={r['degree']}"
            if r.get("direction") is not None:
                where += f" i={r['direction']}"
            detail = ""
            if "value" in r:
                detail = f" value={r['value']:.3e} bound={r['bound']:.1e}"
            if "rank" in r:
                detail = f" rank={r['rank']} expected={r['expected']}"
            if "residual" in r:
                detail = f" residual={r['residual']:.3e}"
            print(f"[{status}] {r['check']}{where}{detail}")
        for key, val in self.extras.items():
            print(f"{key}: {val}")
        print(f"overall: {'pass' if self.overall else 'FAIL'} ({self.seconds:.2f}s)")


def _tolerances(args) -> tuple[float, float]:
    tol_rank = args.tol_rank
    if tol_rank is None:
        tol_rank = float(os.environ.get("MVOPS_TOL_RANK", mk.DEFAULT_RANK_TOL))
    tol_res = args.tol_res if args.tol_res is not None else mk.DEFAULT_RES_TOL
    return tol_rank, tol_res


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def cmd_family(args) -> int:
    tol_rank, tol_res = _tolerances(args)
    if args.N < 0:
        return _usage_error(f"--N must be >= 0, got {args.N}")
    params: dict = {}
    for key in ("mu", "rho", "alpha", "beta", "a1", "kappa2", "ay"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.kind is not None:
        params["kind"] = args.kind
    if args.j is not None:
        params["j"] = args.j
    if args.kappa is not None:
        params["kappa"] = _parse_floats(args.kappa)
    if args.a is not None:
        params["a"] = _parse_floats(args.a)
    if args.b is not None:
        params["b"] = _parse_floats(args.b)
    if args.raise_b:
        params["raise_b"] = True

    start = time.time()
    try:
        bundle = families.build_family(args.name, args.N, res_tol=tol_res,
                                       rank_tol=tol_rank, **params)
    except (KeyError, families.ParameterError) as exc:
        return _usage_error(exc)
    report = VerdictReport(command=f"family {args.name}", tol_rank=tol_rank,
                           tol_res=tol_res)
    report.records = [r.to_dict() for r in bundle.records]
    report.extras["params"] = bundle.params
    report.extras["classification"] = bundle.extras.get("classification")
    lam = bundle.extras.get("lambda")
    if lam is not None:
        report.extras["lambda"] = {"a": [float(x) for x in lam.a], "b": float(lam.b)}
    report.extras["orthogonal_verdict"] = bundle.orthogonal_verdict
    if bundle.expected_orthogonal is not None:
        report.extras["expected_orthogonal"] = bundle.expected_orthogonal
        report.extras["matches_expectation"] = bundle.matches_expectation
        report.records.append(
            {
                "check": "verdict-matches-expectation",
                "degree": None,
                "direction": None,
                "value": 0.0 if bundle.matches_expectation else 1.0,
                "bound": 0.5,
                "pass": bundle.matches_expectation,
            }
        )
        if not bundle.orthogonal_verdict and bundle.matches_expectation:
            report.extras["note"] = "matches expectation: not orthogonal"
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def cmd_counterexample(args) -> int:
    tol_rank, tol_res = _tolerances(args)
    if args.n < 2:
        return _usage_error(f"--n must be >= 2, got {args.n}")
    start = time.time()
    combined, rel = linrel.counterexample(args.n)
    report = VerdictReport(command="counterexample", tol_rank=tol_rank, tol_res=tol_res)
    _, residuals = ttr.generate_from_ttr(combined, args.n)
    report.records.append(
        {
            "check": "recurrence-consistency",
            "degree": None,
            "direction": None,
            "value": float(np.max(residuals)),
            "bound": 1e-10,
            "pass": bool(np.max(residuals) <= 1e-10),
        }
    )
    reference = linrel.reference_ttr_for_counterexample(args.n + 1)
    _, partner = linrel.combined_from_reference(reference, rel, tol=1e-10,
                                                rank_tol=tol_rank)
    worst_compat = max((c.residual for c in partner.compat), default=0.0)
    report.records.append(
        {
            "check": "compatibility",
            "degree": None,
            "direction": None,
            "value": worst_compat,
            "bound": 1e-10,
            "pass": bool(worst_compat <= 1e-10),
        }
    )
    for n in range(2, args.n + 1):
        rank = mk.numeric_rank(combined.c(n, 1), tol_rank)
        report.records.append(
            {
                "check": "deficient-rank",
                "degree": n,
                "direction": 1,
                "rank": rank,
                "expected": n - 1,
                "pass": rank == n - 1,
            }
        )
    full_report = ttr.validate_rank_conditions(combined, tol_rank)
    others_ok = all(
        c.ok for c in full_report.checks
        if not (c.kind == "C" and c.i == 1) and not (c.kind == "C-joint" and c.n == 1)
    )
    report.records.append(
        {
            "check": "other-blocks-full-rank",
            "degree": None,
            "direction": None,
            "value": 0.0 if others_ok else 1.0,
            "bound": 0.5,
            "pass": others_ok,
        }
    )
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def _load(path: str, loader):
    with open(path) as fh:
        return loader(fh.read())


def cmd_check(args) -> int:
    tol_rank, tol_res = _tolerances(args)
    start = time.time()
    try:
        T = _load(args.ttr, serialize.ttr_from_json)
        rel = _load(args.relation, serialize.relation_from_json)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    if args.theorem == 3:
        candidate, partner = linrel.reference_from_combined(T, rel, tol=tol_res,
                                                            rank_tol=tol_rank)
        label = "reference-orthogonal"
    else:
        candidate, partner = linrel.combined_from_reference(T, rel, tol=tol_res,
                                                            rank_tol=tol_rank)
        label = "combined-orthogonal"
    report = VerdictReport(command=f"check theorem {args.theorem}",
                           tol_rank=tol_rank, tol_res=tol_res)
    report.records = partner.to_records()
    report.extras["verdict"] = f"{label}: {partner.verdict}"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize.ttr_to_json(candidate))
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if partner.verdict else MATH_FAIL


def cmd_generate(args) -> int:
    tol_rank, tol_res = _tolerances(args)
    if args.N is not None and args.N < 0:
        return _usage_error(f"--N must be >= 0, got {args.N}")
    start = time.time()
    try:
        T = _load(args.ttr, serialize.ttr_from_json)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    system, residuals = ttr.generate_from_ttr(T, args.N)
    report = VerdictReport(command="generate", tol_rank=tol_rank, tol_res=tol_res)
    for n, res in enumerate(residuals):
        report.records.append(
            {
                "check": "consistency",
                "degree": n,
                "direction": None,
                "value": float(res),
                "bound": tol_res,
                "pass": bool(res <= tol_res),
            }
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize.system_to_json(system))
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def cmd_relate(args) -> int:
    tol_rank, tol_res = _tolerances(args)
    start = time.time()
    try:
        Q = _load(args.combined, serialize.system_from_json)
        P = _load(args.reference, serialize.system_from_json)
        u = moments.parse_functional(args.functional)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    N = min(Q.N, P.N)
    H = GramBlocks([inner_block(u, P, n, P, n) for n in range(N + 1)])
    rel = linrel.compute_relation(Q, P, u, H)
    report = VerdictReport(command="relate", tol_rank=tol_rank, tol_res=tol_res)
    report.records.append(
        {
            "check": "fourier-tail",
            "degree": None,
            "direction": None,
            "value": rel.tail,
            "bound": tol_res,
            "pass": bool(rel.tail <= tol_res),
        }
    )
    report.extras["classification"] = linrel.classify_ranks(rel, tol_rank)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize.relation_to_json(rel))
    report.seconds = time.time() - start
    if args.json:
        print(report.to_json())
    else:
        report.print_plain()
    return 0 if report.overall else MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvops",
        description="Multivariate orthogonal polynomial systems: linear "
                    "structure relations, recurrences and verification.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative singular-value threshold for rank decisions")
    parser.add_argument("--tol-res", type=float, default=None,
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
    fam.add_argument("--kappa", type=str, default=None,
                     help="comma-separated weight exponents")
    fam.add_argument("--a", type=str, default=None)
    fam.add_argument("--b", type=str, default=None)
    fam.add_argument("--j", type=int, default=None, help="parameter direction")
    fam.add_argument("--raise-b", dest="raise_b", action="store_true")
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
