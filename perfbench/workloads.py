"""The benchmark's three workloads: inputs, set-up, operations, outcome checks.

Every operation calls public mvops functions (or `cli.main(argv)`) and is
judged against an expectation written from the mathematics, never from
recorded program output:

- a positive-definite weight is quasi-definite, so Gram-Schmidt through
  any degree must succeed;
- every pair of the orthogonal catalog must pass all of its checks;
- `cheb-koornwinder` is orthogonal exactly for kind 2, kind 3 with
  rho != 1, kind 4 with rho != -1, and any kind with rho = 0;
- adjacent tensor Jacobi weights u = (1 - x_j) v are linked by a
  non-constant degree-one polynomial, so their relation classifies
  "full" and both systems satisfy the rank conditions;
- a corrupted input file is a usage error, so the CLI must exit 2.

An outcome is *wrong* when the program returns a verdict that disagrees
with the expectation (including a library check-failure exception such as
QuasiDefiniteFailure).  It *crashed* when an exception outside the
library's check-failure vocabulary escapes, or the CLI raises instead of
returning an exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mvops import cli, construct, families, indexing, linrel, moments, serialize, ttr

import reference

RES_TOL = 1e-8
LADDER = (4, 6, 8, 10, 12)

# library exceptions that carry a (possibly wrong) verdict rather than a crash
VERDICT_ERRORS = (construct.QuasiDefiniteFailure, construct.NotPositiveDefiniteError,
                  np.linalg.LinAlgError, ValueError)


@dataclass
class Outcome:
    right: bool
    detail: str = ""
    margins: list = field(default_factory=list)   # (value, bound) residual checks
    coef_err: float | None = None
    exit_mismatch: bool = False   # a CLI call returned another exit code


@dataclass
class Op:
    """One operation: `call` runs the program and returns its raw result,
    `judge` turns that result into an Outcome (see `run_op`)."""

    config: str
    N: int
    call: object
    judge: object
    label: str = ""
    graded: bool = True   # False for corrupted inputs: no degree to trust


def clear_basis_cache() -> None:
    """Empty the per-process basis cache so a set-up starts cold.

    Under the tracer `basis_for` is a wrapper; the cache sits beneath it.
    """
    fn = indexing.basis_for
    while not hasattr(fn, "cache_clear"):
        fn = fn.__wrapped__
    fn.cache_clear()


def _records_margins(records) -> list:
    return [(r.value, r.bound) for r in records]


# ---------------------------------------------------------------------------
# catalog: closed-form families and quasi-definiteness gates on a degree ladder

ORTHOGONAL_CATALOG = [
    ("disk", dict(mu=0.0)),
    ("disk", dict(mu=1.5)),
    ("krall-laguerre", dict(alpha=1.0, a1=1.0, kappa2=0.0)),
    ("krall-jacobi", dict(alpha=1.0, beta=0.0, a1=1.0, ay=0.0)),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=1)),
    ("simplex", dict(kappa=(0.5, 0.5, 0.5), j=2)),
    ("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=1, raise_b=False)),
    ("cube", dict(a=(0.0, 0.0), b=(0.0, 0.0), j=2, raise_b=True)),
    ("laguerre", dict(kappa=(0.0, 1.0), j=1)),
    ("laguerre", dict(kappa=(0.0, 1.0), j=2)),
]

CHEB_RHOS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def cheb_orthogonal(kind: int, rho: float) -> bool:
    """Predicted orthogonality of the modified symmetrized Chebyshev system."""
    return rho == 0.0 or kind == 2 or (kind == 3 and rho != 1.0) or (
        kind == 4 and rho != -1.0)


CHEB_ADMISSIBLE = [(k, r) for k in (1, 2, 3, 4) for r in CHEB_RHOS if cheb_orthogonal(k, r)]
CHEB_PREDICTED_FAIL = [(k, r) for k in (1, 2, 3, 4) for r in CHEB_RHOS
                       if not cheb_orthogonal(k, r)]

# positive-definite weights: Gram-Schmidt must reach every degree
GATES = {
    "gate-simplex-d3": lambda: moments.simplex_functional((0.5, 0.5, 0.5, 0.5)),
    "gate-laguerre-d3": lambda: moments.multiple_laguerre_functional((0.0, 1.0, 0.5)),
}

# positive-definite weights with an exact 50-digit reference system
REFERENCE_WEIGHTS = {
    "ref-jacobi-d2": (lambda: moments.cube_jacobi_functional((0.5, 0.0), (0.0, 0.5)),
                      [("jacobi", (0.5, 0.0)), ("jacobi", (0.0, 0.5))]),
    "ref-laguerre-d2": (lambda: moments.multiple_laguerre_functional((0.0, 1.0)),
                        [("laguerre", (0.0,)), ("laguerre", (1.0,))]),
}


def _pair_key(name: str, params: dict) -> str:
    return name + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"


def _judge_pair(bundle) -> Outcome:
    bad = sorted({r.name for r in bundle.records if not r.ok})
    return Outcome(not bad, "failed checks: " + ",".join(bad) if bad else "",
                   _records_margins(bundle.records))


def _judge_cheb(expected: bool):
    def judge(bundle) -> Outcome:
        bad = sorted({r.name for r in bundle.records if not r.ok})
        right = not bad and bundle.orthogonal_verdict == expected
        detail = "" if right else (
            f"verdict {bundle.orthogonal_verdict}, predicted {expected}; "
            f"failed checks: {','.join(bad)}")
        return Outcome(right, detail, _records_margins(bundle.records))
    return judge


def _judge_quasi_definite(result) -> Outcome:
    return Outcome(True)


class Catalog:
    """Family verdicts and quasi-definiteness gates, each on the N ladder.

    A round runs every configuration once at every ladder degree in a
    seed-shuffled order; the seed also draws which admissible and which
    predicted-fail `cheb-koornwinder` parameters the round uses.
    """

    name = "catalog"
    tail_percentile = 90.0

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.references: dict[str, reference.TensorReference] = {}

    def build_references(self) -> None:
        for key, (_, axes) in REFERENCE_WEIGHTS.items():
            self.references[key] = reference.TensorReference(axes, max(LADDER))

    def _ops(self, N: int, cheb_ok, cheb_fail) -> list[Op]:
        """Every configuration at degree N.

        Calls are lambdas, not partials, so that they look mvops functions up
        when they run: a traced replay must reach the tracer's wrappers.
        """
        ops = [Op(_pair_key(name, params), N,
                  lambda name=name, params=params: families.build_family(name, N, **params),
                  _judge_pair)
               for name, params in ORTHOGONAL_CATALOG]
        for slot, (kind, rho), expected in (("cheb-admissible", cheb_ok, True),
                                            ("cheb-predicted-fail", cheb_fail, False)):
            ops.append(Op(slot, N, lambda kind=kind, rho=rho: families.build_family(
                "cheb-koornwinder", N, kind=kind, rho=rho), _judge_cheb(expected),
                label=f"kind={kind},rho={rho}"))
        for key, make in GATES.items():
            ops.append(Op(key, N, lambda make=make: construct.gram_schmidt_monic(make(), N),
                          _judge_quasi_definite))
        for key, (make, _) in REFERENCE_WEIGHTS.items():
            ops.append(Op(key, N, lambda make=make: construct.gram_schmidt_monic(make(), N),
                          self._judge_reference(key)))
        return ops

    def _judge_reference(self, key: str):
        def judge(result) -> Outcome:
            system, _ = result
            errs = self.references[key].degree_errors(system.blocks)
            return Outcome(True, coef_err=_worst(errs))
        return judge

    def setup(self) -> None:
        """Warm-up: every configuration once at the top of the ladder."""
        for op in self._ops(max(LADDER), CHEB_ADMISSIBLE[0], CHEB_PREDICTED_FAIL[0]):
            run_op(op)

    def next_round(self) -> list[Op]:
        cheb = (self.rng.choice(CHEB_ADMISSIBLE), self.rng.choice(CHEB_PREDICTED_FAIL))
        ops = [op for N in LADDER for op in self._ops(N, *cheb)]
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# highdim: the full pipeline on large blocks

# (d, N, a, b, j): v = cube_jacobi(a, b) and u = (1 - x_j) v
HIGHDIM_SHAPES = (
    (3, 10, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1),
    (3, 10, (0.5, -0.5, 0.0), (0.0, 0.5, 1.0), 3),
    (3, 10, (1.0, 0.0, 0.5), (-0.5, 0.0, 0.0), 2),
    (3, 10, (-0.5, 0.5, 0.5), (0.5, -0.5, 0.0), 1),
    (3, 10, (0.0, 1.0, -0.5), (0.5, 0.0, 0.5), 2),
    (4, 8, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 2),
    (4, 8, (0.5, -0.5, 0.0, 1.0), (0.5, 0.0, 1.0, 0.0), 4),
    (4, 8, (0.0, 0.5, -0.5, 0.0), (1.0, 0.0, 0.5, -0.5), 3),
)


def raised(a, j: int) -> tuple:
    """Jacobi exponents with a_j raised by one: the weight (1 - x_j) w."""
    return tuple(x + 1.0 if i == j - 1 else x for i, x in enumerate(a))


def _worst(errs) -> float:
    vals = [e if math.isfinite(e) else math.inf for e in errs]
    return max(vals, default=0.0)


class HighDim:
    """Tensor Jacobi pairs at d=3, N=10 and d=4, N=8 through the pipeline.

    One operation: Gram-Schmidt on both adjacent weights, recurrence
    extraction, rank conditions, forward regeneration, the relation blocks
    and their rank classification.  A round runs every configuration of
    HIGHDIM_SHAPES once in a seed-shuffled order.
    """

    name = "highdim"
    tail_percentile = 75.0

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.references: dict = {}

    def build_references(self) -> None:
        for d, N, a, b, j in HIGHDIM_SHAPES:
            for aa in (a, raised(a, j)):
                key = (aa, b)
                if key not in self.references:
                    axes = [("jacobi", (x, y)) for x, y in zip(aa, b)]
                    self.references[key] = reference.TensorReference(axes, N)

    def _op(self, d: int, N: int, a, b, j: int) -> Op:
        def call():
            v = moments.cube_jacobi_functional(a, b)
            u = moments.cube_jacobi_functional(raised(a, j), b)
            Q, _ = construct.gram_schmidt_monic(v, N)
            P, HP = construct.gram_schmidt_monic(u, N)
            T = ttr.compute_ttr(P, u, HP)
            ranks = ttr.validate_rank_conditions(T)
            G, residuals = ttr.generate_from_ttr(T)
            rel = linrel.compute_relation(Q, P, u, HP)
            return Q, P, T, ranks, G, residuals, rel, linrel.classify_ranks(rel)

        def judge(result) -> Outcome:
            Q, P, T, ranks, G, residuals, rel, cls = result
            gen_res = float(np.max(residuals)) if len(residuals) else 0.0
            margins = [(T.recon_residual, RES_TOL), (gen_res, RES_TOL), (rel.tail, RES_TOL)]
            ref_u = self.references[(raised(a, j), b)]
            errs = (self.references[(a, b)].degree_errors(Q.blocks)
                    + ref_u.degree_errors(P.blocks) + ref_u.degree_errors(G.blocks))
            problems = []
            if not ranks.ok:
                problems.append("rank conditions not met")
            if cls != "full":
                problems.append(f"relation classified {cls!r}")
            if not all(math.isfinite(v) and v <= bound for v, bound in margins):
                problems.append("residual over bound")
            return Outcome(not problems, "; ".join(problems), margins, _worst(errs))

        return Op(f"d={d},N={N},a={a},b={b},j={j}", N, call, judge)

    def setup(self) -> None:
        """Warm-up: one operation per (d, N) shape."""
        done = set()
        for d, N, a, b, j in HIGHDIM_SHAPES:
            if (d, N) not in done:
                done.add((d, N))
                run_op(self._op(d, N, a, b, j))

    def next_round(self) -> list[Op]:
        ops = [self._op(*shape) for shape in HIGHDIM_SHAPES]
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli-files: in-process CLI calls on envelope files, some of them corrupted

CLI_SHAPES = (
    (2, 12, (0.5, 0.0), (0.0, 0.5), 1),
    (3, 8, (0.5, 0.0, -0.5), (0.0, 0.5, 0.0), 2),
    (4, 8, (0.5, 0.0, -0.5, 0.0), (0.0, 0.5, 0.0, 0.5), 3),
)

def corrupt_nan(ttr_text: str, rng: random.Random) -> str:
    """Replace one seed-chosen entry of a B block at the middle degree by
    `nan`; the degree is fixed so that the call costs the same for every seed."""
    payload = json.loads(ttr_text)
    n = len(payload["B"]) // 2
    i = rng.randrange(len(payload["B"][n]))
    lines = payload["B"][n][i].split("\n")
    r = rng.randrange(1, len(lines))
    toks = lines[r].split()
    toks[rng.randrange(len(toks))] = "nan"
    lines[r] = " ".join(toks)
    payload["B"][n][i] = "\n".join(lines)
    return json.dumps(payload, indent=2)


def corrupt_shape(relation_text: str, rng: random.Random) -> str:
    """Give the M block at the middle degree one column too many or too few,
    as the seed chooses."""
    payload = json.loads(relation_text)
    n = len(payload["M"]) // 2
    header, *rows = payload["M"][n].split("\n")
    nrows, ncols = (int(x) for x in header.split())
    if rng.random() < 0.5:
        ncols, rows = ncols + 1, [ln + " 0.0" for ln in rows]
    else:
        ncols, rows = ncols - 1, [ln.rsplit(" ", 1)[0] for ln in rows]
    payload["M"][n] = "\n".join([f"{nrows} {ncols}"] + rows)
    return json.dumps(payload, indent=2)


def corrupt_truncate(text: str, rng: random.Random) -> str:
    """Cut the file at a seed-chosen point between 45% and 55% of its length."""
    return text[: int(len(text) * rng.uniform(0.45, 0.55))]


def functional_spec(a, b) -> str:
    return ("cube-jacobi:a=" + ",".join(repr(float(x)) for x in a)
            + ";b=" + ",".join(repr(float(x)) for x in b))


class CliFiles:
    """`mvops generate|check|relate` on envelope files, via `cli.main`.

    Set-up builds, per shape of CLI_SHAPES, the two adjacent systems, their
    recurrences and the relation, writes them as envelopes, and writes one
    corrupted variant per corruption kind.  The seed picks where in its
    block each corruption lands and the order of every round; the corrupted
    degree is fixed, so a call costs the same whatever the seed.  A round is
    4 valid and 4 corrupted calls per shape; the bad-shape file goes to both
    theorems of `check`.
    """

    name = "cli-files"
    tail_percentile = 90.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.references: dict = {}
        self.fixtures: dict = {}

    def build_references(self) -> None:
        for d, N, a, b, j in CLI_SHAPES:
            axes = [("jacobi", (x, y)) for x, y in zip(raised(a, j), b)]
            self.references[d] = reference.TensorReference(axes, N)

    def _path(self, d: int, name: str) -> str:
        return os.path.join(self.workdir, f"d{d}-{name}.json")

    def setup(self) -> None:
        """Build and write every envelope, valid and corrupted."""
        rng = random.Random(f"fixtures-{self.seed}")
        os.makedirs(self.workdir, exist_ok=True)
        for d, N, a, b, j in CLI_SHAPES:
            v = moments.cube_jacobi_functional(a, b)
            u = moments.cube_jacobi_functional(raised(a, j), b)
            Q, HQ = construct.gram_schmidt_monic(v, N)
            P, HP = construct.gram_schmidt_monic(u, N)
            rel = linrel.compute_relation(Q, P, u, HP)
            texts = {
                "Q": serialize.system_to_json(Q),
                "P": serialize.system_to_json(P),
                "Tq": serialize.ttr_to_json(ttr.compute_ttr(Q, v, HQ)),
                "Tp": serialize.ttr_to_json(ttr.compute_ttr(P, u, HP)),
                "rel": serialize.relation_to_json(rel),
            }
            texts["nan-Tp"] = corrupt_nan(texts["Tp"], rng)
            texts["badM-rel"] = corrupt_shape(texts["rel"], rng)
            texts["trunc-Q"] = corrupt_truncate(texts["Q"], rng)
            for name, text in texts.items():
                with open(self._path(d, name), "w") as fh:
                    fh.write(text)
            self.fixtures[d] = {"N": N, "spec": functional_spec(raised(a, j), b), "rel": rel}

    def _cli_op(self, d: int, argv: list, expect_code: int, check_output=None,
                label: str = "") -> Op:
        out_path = os.path.join(self.workdir, f"out-d{d}.json")

        def call():
            if os.path.exists(out_path):
                os.remove(out_path)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["--json", *argv, "--out", out_path])
            return code, stdout.getvalue(), stderr.getvalue()

        def judge(result) -> Outcome:
            code, stdout, stderr = result
            margins = []
            if code in (0, 1) and stdout.strip():
                report = json.loads(stdout)
                for rec in report["checks"]:
                    if "bound" in rec:
                        margins.append((rec["value"], rec["bound"]))
                    elif "residual" in rec:
                        margins.append((rec["residual"], report["tolerances"]["residual"]))
            if "Traceback" in stderr:
                return Outcome(False, "traceback printed", margins)
            if code != expect_code:
                return Outcome(False, f"exit {code}, expected {expect_code}", margins,
                               exit_mismatch=True)
            if check_output is None:
                return Outcome(True, "", margins)
            return check_output(out_path, margins)

        return Op(f"d={d} {label}", self.fixtures[d]["N"], call, judge,
                  graded=expect_code == 0)

    def _check_system(self, d: int):
        def check(path: str, margins) -> Outcome:
            with open(path) as fh:
                system = serialize.system_from_json(fh.read())
            err = _worst(self.references[d].degree_errors(system.blocks))
            return Outcome(err <= 1e-6, f"coefficient error {err:.2e}", margins, err)
        return check

    def _check_relation(self, d: int):
        def check(path: str, margins) -> Outcome:
            with open(path) as fh:
                rel = serialize.relation_from_json(fh.read())
            want = self.fixtures[d]["rel"]
            gap = max(float(np.max(np.abs(rel.m(n) - want.m(n)))) / max(
                float(np.max(np.abs(want.m(n)))), 1e-300) for n in want.available())
            return Outcome(gap <= 1e-6, f"relation gap {gap:.2e}", margins)
        return check

    def next_round(self) -> list[Op]:
        ops = []
        for d, *_ in CLI_SHAPES:
            p = lambda name, d=d: self._path(d, name)
            spec = self.fixtures[d]["spec"]
            ops += [
                self._cli_op(d, ["generate", "--ttr", p("Tp")], 0, self._check_system(d),
                             "generate"),
                self._cli_op(d, ["check", "--theorem", "3", "--ttr", p("Tq"),
                                 "--relation", p("rel")], 0, label="check-3"),
                self._cli_op(d, ["check", "--theorem", "4", "--ttr", p("Tp"),
                                 "--relation", p("rel")], 0, label="check-4"),
                self._cli_op(d, ["relate", "--combined", p("Q"), "--reference", p("P"),
                                 "--functional", spec], 0, self._check_relation(d), "relate"),
                self._cli_op(d, ["generate", "--ttr", p("nan-Tp")], 2, label="generate nan-entry"),
                self._cli_op(d, ["check", "--theorem", "3", "--ttr", p("Tq"),
                                 "--relation", p("badM-rel")], 2, label="check-3 bad-shape-m"),
                self._cli_op(d, ["check", "--theorem", "4", "--ttr", p("Tp"),
                                 "--relation", p("badM-rel")], 2, label="check-4 bad-shape-m"),
                self._cli_op(d, ["relate", "--combined", p("trunc-Q"), "--reference", p("P"),
                                 "--functional", spec], 2, label="relate truncated"),
            ]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (Catalog, HighDim, CliFiles)}


# ---------------------------------------------------------------------------
# running one operation


@dataclass
class Result:
    op: Op
    seconds: float
    outcome: Outcome | None   # None when the operation crashed
    error: str = ""
    started: float = 0.0      # perf_counter() when the call began
    kernel_s: float = 0.0     # calibration kernel time at the call's midpoint


def run_op(op: Op) -> Result:
    """Time the program call alone, then judge its outcome untimed."""
    start = perf_counter()
    try:
        raw = op.call()
    except VERDICT_ERRORS as exc:
        seconds = perf_counter() - start
        return Result(op, seconds, Outcome(False, f"{type(exc).__name__}: {exc}"[:200]),
                      started=start)
    except Exception as exc:  # noqa: BLE001 - any other escape is a crash to report
        seconds = perf_counter() - start
        return Result(op, seconds, None, f"{type(exc).__name__}: {exc}"[:200], started=start)
    seconds = perf_counter() - start
    try:
        outcome = op.judge(raw)
    except Exception as exc:  # noqa: BLE001 - output the checks cannot read is wrong
        outcome = Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}"[:200])
    return Result(op, seconds, outcome, started=start)
