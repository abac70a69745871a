"""Moment functionals: one graded store of moments per functional.

Every weight family in the catalog defines its moments exactly: a closed
form (Gamma/Beta/Dirichlet integrals; the Dirichlet one a range of degrees
at a time) or, for Jacobi and Chebyshev weights, the exact two-term moment
recurrence started from the mass; none runs a quadrature rule.  Left
multiplication by a polynomial and tensor composition define their moments
once, as ranges of degrees gathered from the prefixes of the functionals
they combine.  Every read is a prefix of the store, the moments of degrees
0..n in graded order, so no caller needs to know how a moment is produced,
and a missing range of degrees is computed by one call.

A univariate functional keeps its monic recurrence too (`recurrence`),
the one every tensor route reads: the closed form of a Jacobi or Laguerre
weight, certified by its positive norms and checked against its moments
(check_recurrence), and otherwise the Chebyshev algorithm on its moments
under the rank rule of construction, DEFAULT_RANK_TOL (Gautschi,
Orthogonal Polynomials: Computation and Approximation, 2004, sections
2.1.7 and 2.4).  Its read path costs a few microseconds per degree: the
moments 0..2N+1 are one range of the store, then scalar `moment` reads of
it; the closed forms are Python-float loops; the check forms the powers
of the Jacobi matrix by doubling (_first_entries); and the coefficient
table of the monic polynomials is one Python-float recurrence
(monic_table), the per-degree array loop's values bit for bit.

Gamma and Beta values come from the standard library's math.gamma and
math.lgamma (gamma, log_gamma, scaled_beta), in Stirling form above 171,
where math.gamma overflows: there c^(x+y-1) B(x, y) is the exp of a
Stirling-remainder form that neither overflows nor cancels at large
exponents, for the Jacobi mass (c = 2) and the disk moments (c = 1).  A
value out of the floats is inf.

Normalization: families whose conventional inner product has unit mass
(disk, simplex, the product and symmetrized Chebyshev weights) are scaled
so the zeroth moment is 1; their raw moments stay available as
disk_moment_closed and simplex_moment_closed.  Laguerre and Jacobi tensor
weights are kept raw.  Orthogonality, ranks and relation verdicts
elsewhere are scale invariant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .indexing import basis_for
from .matrixkit import DEFAULT_RANK_TOL, DEFAULT_RES_TOL


class ParameterError(ValueError):
    """A weight or family parameter lies outside its admissible range."""


class QuasiDefiniteFailure(Exception):
    """The Gram block at some degree is numerically singular."""

    def __init__(self, degree: int, singular_values, label: str = ""):
        self.degree = degree
        self.singular_values = np.asarray(singular_values, dtype=float)
        self.label = label
        super().__init__(
            f"functional {label!r} is not quasi-definite at degree {degree}; "
            f"Gram singular values {self.singular_values}"
        )


def _exceeds(lower: float, *values) -> bool:
    """Every value is finite and above `lower`; NaN and +-inf are not."""
    return all(lower < v < math.inf for v in values)


def _positive_finite(value, what: str) -> float:
    """The value as a float, or ParameterError naming `what` unless it is a
    positive finite float (an overflowed or underflowed parameter)."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{what} is {value!r}, not a positive finite float")
    return value


# ---------------------------------------------------------------------------
# Gamma and Beta closed forms

_GAMMA_MAX = 171.0   # math.gamma overflows just above 171.62
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)): the Stirling series of log Gamma(x) has remainder
# sum_k coef_k / x^(2k - 1), within 1e-16 of the truncated sum for x >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def gamma(x: float) -> float:
    """Gamma(x), inf where it overflows."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0: log(math.gamma(x)) below 171, where
    math.lgamma is less accurate, and math.lgamma (inf on overflow) above."""
    if x < _GAMMA_MAX:
        return math.log(math.gamma(x))
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _stirling_remainder(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x > 0."""
    if x < 10.0:
        return math.log(math.gamma(x)) - (x - 0.5) * math.log(x) + x - _HALF_LOG_2PI
    z = 1.0 / (x * x)
    acc = 0.0
    for coef in reversed(_STIRLING):
        acc = acc * z + coef
    return acc / x


def _log_share(c: float, x: float, y: float, s: float) -> float:
    """log(c x / s) with s = x + y; where c x / s is near 1, log1p of
    (c x - s) / s formed as ((c - 1) x - y) / s, which keeps its relative
    accuracy (the numerator is -y for c = 1, and x - y, exact while x and
    y are within a factor 2, for c = 2)."""
    r = c * x / s
    if 0.5 < r < 2.0:
        return math.log1p(((c - 1.0) * x - y) / s)
    return math.log(r)


def _log_scaled_beta(x: float, y: float, c: float) -> float:
    """log(c^(x+y-1) B(x, y)) for x, y > 0, in Stirling form.

    With s = x + y and r the Stirling remainder it is
    (x - 1/2) log(c x/s) + (y - 1/2) log(c y/s) + log(2 pi / s) / 2
    + r(x) + r(y) - r(s): no term overflows, and the two large ones are
    formed from log1p where c x/s or c y/s is near 1, so nothing cancels at
    large arguments (c = 2 and x = y = 1e300 gives sqrt(pi / 1e300)).
    """
    s = x + y
    return ((x - 0.5) * _log_share(c, x, y, s) + (y - 0.5) * _log_share(c, y, x, s)
            + 0.5 * math.log(2.0 * math.pi / s)
            + _stirling_remainder(x) + _stirling_remainder(y) - _stirling_remainder(s))


def scaled_beta(x: float, y: float, c: float = 1.0) -> float:
    """c^(x+y-1) B(x, y) for x, y > 0, inf where it overflows: the Gamma
    ratio while x + y < 171, else exp(_log_scaled_beta)."""
    x, y = min(x, y), max(x, y)
    if x + y < _GAMMA_MAX:
        return c ** (x + y - 1) * math.gamma(x) * (math.gamma(y) / math.gamma(x + y))
    try:
        return math.exp(_log_scaled_beta(x, y, c))
    except OverflowError:
        return math.inf


class MomentFunctional:
    """Linear functional on d-variate polynomials, defined by its moments.

    Moments are stored once per instance in one read-only array, the
    moments of degrees 0..top in graded order: `moments(n)` is its prefix
    through degree n, `moment_vector(n)` the degree-n slice and a scalar
    moment one entry.  A read of degree n computes every missing degree
    top+1..n by one `_degree_range` call and checks them once: a non-finite
    moment raises at the lowest degree that holds one, naming its
    multi-index, and nothing of the range is kept.  The default range asks
    the oracle, which must be deterministic and must not read its own
    functional, once per multi-index in graded order; composed functionals
    pass no oracle and gather their ranges from other functionals'
    prefixes, and the simplex functional computes a range in one pass.  A
    block of the graded moment matrix (entry (a, b) the moment at
    alpha_a + beta_b) is one gather of the prefix each time it is asked for
    (graded_block).  Instances are intended to be confined to one thread
    (the stores are unlocked).  Multi-indices are ordered by `basis`, the
    shared graded basis of dimension d.
    """

    def __init__(self, d: int, oracle, label: str = ""):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.basis = basis_for(d)
        self._oracle = oracle
        self.label = label
        self._store, self._top = np.zeros(0), -1
        self._recurrences: dict[int, Recurrence1D] = {}

    def __repr__(self):
        return f"MomentFunctional(d={self.d}, label={self.label!r})"

    def moment(self, alpha) -> float:
        alpha = tuple(map(int, alpha))
        if len(alpha) != self.d or min(alpha) < 0:
            raise ValueError(f"bad multi-index {alpha} for dimension {self.d}")
        n = sum(alpha)
        # a univariate moment's graded position is its degree
        pos = n if self.d == 1 else self.basis.offset(n) + self.basis.position(alpha)
        return float((self._store if n <= self._top else self.moments(n))[pos])

    def moments(self, n: int) -> np.ndarray:
        """Moments of degrees 0..n in graded order: a read-only prefix of the store."""
        if n > self._top:
            new = self._degree_range(self._top + 1, n)
            if not np.isfinite(new).all():
                pos = len(self._store) + int(np.flatnonzero(~np.isfinite(new))[0])
                alpha = tuple(map(int, self.basis.graded_exponents(n)[pos]))
                raise ValueError(f"non-finite moment at {alpha} for {self.label!r}")
            store = np.concatenate((self._store, new))
            store.flags.writeable = False
            self._store, self._top = store, n
        return self._store[:self.basis.offset(n + 1)]

    def moment_vector(self, n: int) -> np.ndarray:
        """Moments at the degree-n monomials in basis order; stored, read-only."""
        return self.moments(n)[self.basis.degree_slice(n, n)]

    def recurrence(self, N: int) -> Recurrence1D:
        """Monic recurrence through degree N, b_N included, of a univariate
        functional (ValueError for d != 1), made once per N and kept with b
        and c read-only; a QuasiDefiniteFailure is not kept.

        The moments 0..2N+1 are computed as one range and read through
        `moment`.  A weight with a closed-form recurrence
        (`_closed_recurrence`: Jacobi and Laguerre) takes b and c from it,
        with moment 0 as the mass, and checks them against those moments
        (check_recurrence); any other functional runs recurrence_from_moments
        on them.
        """
        if self.d != 1:
            raise ValueError(f"a recurrence needs a univariate functional, got d={self.d}")
        if N not in self._recurrences:
            # one range, then scalar reads: the benchmark's tracer counts
            # moments at moment()
            self.moments(2 * N + 1)
            mom = np.array([self.moment((m,)) for m in range(2 * N + 2)])
            closed = self._closed_recurrence(N)
            if closed is None:
                rec = recurrence_from_moments(mom, self.label)
            else:
                rec = Recurrence1D(closed.b, closed.c, mass=float(mom[0]),
                                   label=f"recurrence({self.label})")
                check_recurrence(rec, mom, self.label)
            rec.b.flags.writeable = False
            rec.c.flags.writeable = False
            self._recurrences[N] = rec
        return self._recurrences[N]

    def _closed_recurrence(self, N: int) -> Recurrence1D | None:
        """b and c through degree N in closed form, or None where the
        weight has none."""
        return None

    def _degree_range(self, lo: int, hi: int) -> np.ndarray:
        """Moments of degrees lo..hi in graded order, not yet checked."""
        indices = self.basis.indices
        return np.array([float(self._oracle(a)) for n in range(lo, hi + 1) for a in indices(n)])

    def moment_matrix(self, j: int, k: int) -> np.ndarray:
        """Monomial pairing block: entry (a, b) is the moment at alpha_a + beta_b."""
        return self.graded_block(j, j, k, k)

    def graded_block(self, j0: int, j1: int, k0: int, k1: int) -> np.ndarray:
        """The graded moment matrix's rows of degrees j0..j1 and columns of
        degrees k0..k1, as a fresh array: entry (a, b) is the moment at
        alpha_a + beta_b.

        One gather of the prefix through degree j1 + k1 (`moments`) through
        basis.graded_table; no moment above degree j1 + k1 is asked for.
        """
        basis = self.basis
        rows, cols = basis.degree_slice(j0, j1), basis.degree_slice(k0, k1)
        return self.moments(j1 + k1)[basis.graded_table(max(j1, k1))[rows, cols]]


@dataclass(frozen=True)
class LinearPoly:
    """Degree-one polynomial a . x + b in d variables."""

    a: tuple[float, ...]
    b: float = 0.0

    @property
    def d(self) -> int:
        return len(self.a)

    def coeff_map(self) -> dict[tuple[int, ...], float]:
        d = self.d
        zero = (0,) * d
        out = {zero: self.b} if self.b != 0.0 else {}
        for i, ai in enumerate(self.a):
            if ai != 0.0:
                e = tuple(1 if j == i else 0 for j in range(d))
                out[e] = ai
        return out

    def direction(self) -> np.ndarray:
        """Unit vector along (a, b), sign-fixed by the first nonzero entry."""
        v = np.array(list(self.a) + [self.b], dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0:
            return v
        v = v / norm
        lead = v[np.nonzero(np.abs(v) > 1e-14)[0][0]]
        return v if lead > 0 else -v


class _LeftMultiplied(MomentFunctional):
    """Functional q |-> u(p q) for a polynomial p given by its coefficients.

    A range of degrees lo..hi gathers, for each coefficient c_beta in dict
    order, the base's prefix through degree hi + |beta| at the positions of
    alpha + beta (a slice, the basis's kept `shifted` for beta = e_i, or a
    graded_table column) and accumulates c_beta times it from zero.  It
    raises where a base prefix it reads does, even outside the shifted set.
    """

    def __init__(self, coeffs: dict, base: MomentFunctional, label: str):
        super().__init__(base.d, None, label)
        self.coeffs = coeffs
        self.base = base

    def _degree_range(self, lo: int, hi: int) -> np.ndarray:
        basis = self.basis
        rows = basis.degree_slice(lo, hi)
        out = np.zeros(rows.stop - rows.start)
        with np.errstate(over="ignore", invalid="ignore"):   # moments() checks
            for beta, c in self.coeffs.items():
                m = sum(beta)
                if m == 0:
                    at = rows
                elif m == 1:
                    at = basis.shifted(hi + 1, beta.index(1) + 1)[rows]
                else:
                    column = basis.offset(m) + basis.position(beta)
                    at = basis.graded_table(max(hi, m))[rows, column]
                out += c * self.base.moments(hi + m)[at]
        return out


def left_multiply(p, u: MomentFunctional, label: str | None = None) -> MomentFunctional:
    """Functional q |-> u(p q); new moments are sums of shifted moments."""
    coeffs = p.coeff_map() if isinstance(p, LinearPoly) else dict(p)
    for beta in coeffs:
        if len(beta) != u.d:
            raise ValueError(f"coefficient index {beta} does not match dimension {u.d}")
    return _LeftMultiplied(coeffs, u, label or f"poly*({u.label})")


class _TensorFunctional(MomentFunctional):
    """Composition of univariate functionals acting on separate variables.

    A range of degrees is the elementwise product of the factors' moments,
    taken in factor order from 1.0: per axis, one gather of the factor's
    prefix by that column of the basis's graded exponents.
    """

    def __init__(self, factors, label: str):
        factors = tuple(factors)
        super().__init__(len(factors), None, label)
        self.factors = factors

    def _degree_range(self, lo: int, hi: int) -> np.ndarray:
        exps = self.basis.graded_exponents(hi)[self.basis.offset(lo):]
        out = np.ones(len(exps))
        with np.errstate(over="ignore", invalid="ignore"):   # moments() checks
            for axis, f in enumerate(self.factors):
                out *= f.moments(hi)[exps[:, axis]]
        return out


def tensor(*factors: MomentFunctional, label: str | None = None) -> MomentFunctional:
    """Composition of univariate functionals acting on separate variables."""
    if not factors:
        raise ValueError("need at least one factor")
    if any(f.d != 1 for f in factors):
        raise ValueError("tensor factors must be univariate")
    return _TensorFunctional(factors, label or " (x) ".join(f.label for f in factors))


# ---------------------------------------------------------------------------
# univariate building blocks


class _JacobiMoments(MomentFunctional):
    """Moments of (1-x)^a (1+x)^b on [-1, 1], from the zeroth moment m0.

    Integrating d/dx[(1-x)^(a+1) (1+x)^(b+1) x^k] over [-1, 1] gives
    (a+b+k+2) m_(k+1) = (b-a) m_k + k m_(k-1), whose two right-hand terms
    both have the sign of m_(k+1), so nothing cancels; the factor on the left
    is formed as (a+1) + (b+1) + k, where a + b + 2 would cancel as both
    exponents near -1.  The oracle is one step of it, reading the two
    moments below from `_known`: the store, then the moments of the range
    being computed, in order, so a range of any length is one pass.
    """

    def __init__(self, a: float, b: float, m0: float, label: str):
        super().__init__(1, self._step, label)
        self.a, self.b, self.m0 = a, b, m0

    def _step(self, alpha) -> float:
        k = alpha[0] - 1
        if k < 0:
            return self.m0
        known = self._known
        below = known[k - 1] if k else 0.0
        return ((self.b - self.a) * known[k] + k * below) / ((self.a + 1) + (self.b + 1) + k)

    def _degree_range(self, lo: int, hi: int) -> np.ndarray:
        self._known = known = self._store.tolist()
        for k in range(lo, hi + 1):
            known.append(float(self._oracle((k,))))
        return np.array(known[lo:])

    def _closed_recurrence(self, N: int) -> Recurrence1D:
        return jacobi_recurrence(N, self.a, self.b)


def jacobi_functional_1d(a: float, b: float) -> MomentFunctional:
    """Raw moments of (1-x)^a (1+x)^b on [-1, 1], by their moment recurrence;
    ParameterError where the mass is not a positive finite float."""
    if not _exceeds(-1, a, b):
        raise ParameterError(f"jacobi exponents must exceed -1, got ({a}, {b})")
    mass = _positive_finite(jacobi_mass(a, b), f"jacobi mass for exponents ({a}, {b})")
    return _JacobiMoments(a, b, mass, f"jacobi(a={a},b={b})")


def jacobi_mass(a: float, b: float) -> float:
    """Zeroth moment 2^(a+b+1) B(a+1, b+1), inf where it overflows."""
    return scaled_beta(a + 1, b + 1, 2.0)


class _LaguerreMoments(MomentFunctional):
    """Moments Gamma(m + alpha + 1) of t^alpha e^-t on (0, inf)."""

    def __init__(self, alpha: float, label: str):
        super().__init__(1, self._gamma, label)
        self.alpha = alpha

    def _gamma(self, idx) -> float:
        return gamma(idx[0] + self.alpha + 1)

    def _closed_recurrence(self, N: int) -> Recurrence1D:
        return laguerre_recurrence(N, self.alpha)


def laguerre_functional_1d(alpha: float) -> MomentFunctional:
    """Raw moments of t^alpha e^-t on (0, inf): Gamma(m + alpha + 1)."""
    if not _exceeds(-1, alpha):
        raise ParameterError(f"laguerre exponent must exceed -1, got {alpha}")
    return _LaguerreMoments(alpha, f"laguerre(alpha={alpha})")


_CHEB_PARAMS = {1: (-0.5, -0.5), 2: (0.5, 0.5), 3: (0.5, -0.5), 4: (-0.5, 0.5)}


def chebyshev_functional_1d(kind: int) -> MomentFunctional:
    """Unit-mass Chebyshev weight of the given kind (a Jacobi weight)."""
    if kind not in _CHEB_PARAMS:
        raise ParameterError(f"chebyshev kind must be 1..4, got {kind}")
    return _JacobiMoments(*_CHEB_PARAMS[kind], 1.0, f"chebyshev{kind}")


def krall_laguerre_functional(alpha: float, a1: float) -> MomentFunctional:
    """Laguerre functional divided by t with a compensating mass at 0.

    Satisfies t . v = laguerre(alpha) on all moments; the mass at the
    origin is Gamma(alpha+1) / (alpha + 1 - a1).
    """
    if not _exceeds(-1, alpha):
        raise ParameterError(f"alpha must exceed -1, got {alpha}")
    if not math.isfinite(a1) or a1 == 0:
        raise ParameterError(f"a1 must be finite and nonzero, got {a1}")
    if alpha + 1 - a1 == 0:
        raise ParameterError("alpha + 1 - a1 must be nonzero")
    mass0 = gamma(alpha + 1) / (alpha + 1 - a1)

    def oracle(idx):
        m = idx[0]
        # (t^m - 0^m)/t has Laguerre action Gamma(m + alpha) for m >= 1
        return mass0 if m == 0 else gamma(m + alpha)

    return MomentFunctional(1, oracle, f"krall-laguerre(alpha={alpha},a1={a1})")


def krall_jacobi_functional(alpha: float, beta: float, a1: float) -> MomentFunctional:
    """Jacobi functional divided by (1-x) with a compensating mass at 1.

    Satisfies (1-x) . v = jacobi(alpha, beta) on all moments.
    """
    if not _exceeds(-1, alpha, beta):
        raise ParameterError(f"jacobi exponents must exceed -1, got ({alpha}, {beta})")
    if not math.isfinite(a1) or a1 == 0:
        raise ParameterError(f"a1 must be finite and nonzero, got {a1}")
    denom = 2 * (alpha + 1) + a1 * (alpha + beta + 2)
    if denom == 0:
        raise ParameterError("2(alpha+1) + a1(alpha+beta+2) must be nonzero")
    base = jacobi_functional_1d(alpha, beta)
    mass1 = jacobi_mass(alpha, beta) * (alpha + beta + 2) / denom

    def oracle(idx):
        m = idx[0]
        # synthetic division: (x^m - 1)/(1 - x) = -(1 + x + ... + x^(m-1))
        divided = -sum(base.moments(m - 1).tolist())
        return divided + mass1

    return MomentFunctional(1, oracle, f"krall-jacobi(alpha={alpha},beta={beta},a1={a1})")


# ---------------------------------------------------------------------------
# multivariate catalog weights


def product_chebyshev_functional(kind: int, d: int = 2) -> MomentFunctional:
    f = chebyshev_functional_1d(kind)
    return tensor(*([f] * d), label=f"product-chebyshev{kind}(d={d})")


def disk_moment_closed(mu: float, alpha) -> float:
    """Raw disk moment of x^alpha against (1 - |x|^2)^mu over the unit disk:
    B(p+q+1, mu+1) Gamma(p+1/2) Gamma(q+1/2) / Gamma(p+q+1) at (2p, 2q),
    taken as B(p+q+1, mu+1) B(p+1/2, q+1/2) so no Gamma value overflows."""
    j, k = alpha
    if j % 2 or k % 2:
        return 0.0
    p, q = j // 2, k // 2
    return scaled_beta(p + q + 1, mu + 1) * scaled_beta(p + 0.5, q + 0.5)


def disk_functional(mu: float) -> MomentFunctional:
    """Unit-mass disk weight (1 - |x|^2)^mu."""
    if not _exceeds(-1, mu):
        raise ParameterError(f"mu must exceed -1, got {mu}")
    mass = disk_moment_closed(mu, (0, 0))

    def oracle(alpha):
        return disk_moment_closed(mu, alpha) / mass

    return MomentFunctional(2, oracle, f"disk(mu={mu})")


def simplex_moment_closed(kappa, alpha) -> float:
    """Raw Dirichlet moment of x^alpha against the simplex weight."""
    kappa = np.asarray(kappa, dtype=float)
    alpha = tuple(alpha)
    d = len(alpha)
    log_num = sum(log_gamma(a + k + 0.5) for a, k in zip(alpha, kappa[:d]))
    log_num += log_gamma(kappa[d] + 0.5)
    log_den = log_gamma(sum(alpha) + np.sum(kappa) + (d + 1) / 2.0)
    return float(np.exp(log_num - log_den))


class _SimplexMoments(MomentFunctional):
    """Unit-mass Dirichlet moments, one degree at a time.

    A range of degrees is simplex_moment_closed over its exponent rows
    divided by the mass, bit for bit, in one pass: per axis, one table of
    log_gamma at exponents 0..hi gathered by the axis column, summed in axis
    order from zero, plus the last parameter's term, minus the one
    denominator term each degree shares, then exp.
    """

    def __init__(self, kappa: tuple, label: str):
        super().__init__(len(kappa) - 1, None, label)
        self.kappa, self.mass = kappa, 1.0   # degree 0 over 1.0 is the raw mass
        self.mass = _positive_finite(self._degree_range(0, 0)[0],
                                     f"simplex mass for kappa={kappa}")

    def _degree_range(self, lo: int, hi: int) -> np.ndarray:
        kappa, d, basis = self.kappa, self.d, self.basis
        exps = basis.graded_exponents(hi)[basis.offset(lo):]
        log_num = np.zeros(len(exps))
        with np.errstate(over="ignore", invalid="ignore"):
            for axis in range(d):
                table = np.array([log_gamma(a + kappa[axis] + 0.5) for a in range(hi + 1)])
                log_num += table[exps[:, axis]]
            log_num += log_gamma(kappa[d] + 0.5)
            degrees = range(lo, hi + 1)
            log_den = np.repeat([log_gamma(n + np.sum(kappa) + (d + 1) / 2.0) for n in degrees],
                                [basis.size(n) for n in degrees])
            return np.exp(log_num - log_den) / self.mass


def simplex_functional(kappa) -> MomentFunctional:
    """Unit-mass Dirichlet weight on the simplex; ParameterError where the
    mass is not a positive finite float."""
    kappa = tuple(float(k) for k in kappa)
    d = len(kappa) - 1
    if d < 1:
        raise ParameterError("kappa must have d+1 entries with d >= 1")
    if not _exceeds(-0.5, *kappa):
        raise ParameterError(f"kappa entries must exceed -1/2, got {kappa}")
    return _SimplexMoments(kappa, f"simplex(kappa={kappa})")


def cube_jacobi_functional(a, b) -> MomentFunctional:
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)
    if len(a) != len(b):
        raise ParameterError("parameter vectors a and b must have equal length")
    factors = [jacobi_functional_1d(ai, bi) for ai, bi in zip(a, b)]
    return tensor(*factors, label=f"cube-jacobi(a={a},b={b})")


def multiple_laguerre_functional(kappa) -> MomentFunctional:
    kappa = tuple(float(k) for k in kappa)
    factors = [laguerre_functional_1d(k) for k in kappa]
    return tensor(*factors, label=f"multiple-laguerre(kappa={kappa})")


def koornwinder_symmetrized_functional(kind: int) -> MomentFunctional:
    """Moments in the symmetric variables (x+y, xy) of a Chebyshev product.

    The change of variables folds the square onto the region above the
    discriminant curve and cancels its inverse square root, leaving plain
    product-weight integrals: the moment at (j, k) is
    sum_i C(j, i) mu_(i+k) mu_(j-i+k) over the unit-mass Chebyshev moments.
    """
    cheb = chebyshev_functional_1d(kind)

    def oracle(alpha):
        j, k = alpha
        return math.fsum(math.comb(j, i) * cheb.moment((i + k,)) * cheb.moment((j - i + k,))
                         for i in range(j + 1))

    return MomentFunctional(2, oracle, f"koornwinder-chebyshev{kind}")


# ---------------------------------------------------------------------------
# classical three-term recurrences


@dataclass
class Recurrence1D:
    """Monic univariate recurrence p_{n+1} = (x - b_n) p_n - c_n p_{n-1}.

    `b` holds b_0..b_N, `c` holds c_1..c_N at matching positions (c[0]
    unused), `mass` is the zeroth moment.  For a positive weight the
    orthonormal off-diagonal is a_n = sqrt(c_{n+1}).  A recurrence read
    from the moments 0..2N (recurrence_from_moments) has b[N] NaN, since
    b_N needs moment 2N + 1; one read from 0..2N+1, and every
    MomentFunctional.recurrence, has it.  The monic and orthonormal
    coefficients through degree N do not read it.
    """

    b: np.ndarray
    c: np.ndarray
    mass: float = 1.0
    label: str = ""

    @property
    def N(self) -> int:
        return len(self.b) - 1

    def orthonormal_offdiag(self) -> np.ndarray:
        if np.any(self.c[1:] <= 0):
            raise ValueError("orthonormal form needs positive c_n")
        return np.sqrt(self.c[1:])

    def norms(self) -> np.ndarray:
        """Squared monic norms H_0..H_N (H_n = mass * c_1 ... c_n), one
        running product."""
        return np.multiply.accumulate(np.concatenate(([self.mass], self.c[1:self.N + 1])))

    def monic_table(self) -> np.ndarray:
        """Coefficient table of the monic polynomials: row n holds the
        ascending coefficients of p_n, zero-padded to N + 1 columns.

        p_(n+1) = x p_n - b_n p_n - c_n p_(n-1), entry by entry in that
        order from 0.0 (so -0.0 becomes 0.0), in Python floats: the rows are
        short, and per-row array operations cost more than the arithmetic.
        """
        N = self.N
        b, c = self.b.tolist(), self.c.tolist()
        rows = [[1.0], [-b[0], 1.0]][:N + 1]
        for n in range(1, N):
            prev, prev2, bn, cn = rows[n], rows[n - 1], b[n], c[n]
            nxt = [0.0] + [0.0 + p for p in prev]
            for k in range(n + 1):
                nxt[k] -= bn * prev[k]
            for k in range(n):
                nxt[k] -= cn * prev2[k]
            rows.append(nxt)
        return np.array([row + [0.0] * (N + 1 - len(row)) for row in rows]).reshape(N + 1, N + 1)

    def monic_coeffs(self) -> list[np.ndarray]:
        """Coefficient arrays (ascending powers) of the monic polynomials,
        the rows of monic_table without their padding."""
        return [row[:n + 1] for n, row in enumerate(self.monic_table())]

    def orthonormal_coeffs(self) -> list[np.ndarray]:
        h = self.norms()
        return [p / math.sqrt(h[n]) for n, p in enumerate(self.monic_coeffs())]


def recurrence_from_moments(moments, label: str = "") -> Recurrence1D:
    """Monic recurrence of a 1-d functional from its moments 0..2N or 0..2N+1.

    `moments` is a nonempty 1-d array; `label` names the functional in
    errors and in the recurrence's label.  The Chebyshev algorithm
    (Gautschi 2004, section 2.1.7): sig[l] = <u, p_k x^l> is one vector per
    step k, h_k = sig[k], b_k and c_k = h_k / h_(k-1) are read from it, and
    the next vector follows from the recurrence itself.  b_N needs moment
    2N + 1: an even-length array 0..2N+1 fills it, an odd-length one leaves
    it NaN.  Neither reads h_(N+1).  Raises QuasiDefiniteFailure at the
    first degree k whose h_k fails the rank rule, at DEFAULT_RANK_TOL, that
    construct.gram_schmidt_monic applies to a 1x1 Gram block.
    """
    mom = np.asarray(moments, dtype=float)
    if mom.ndim != 1 or mom.size == 0:
        raise ValueError(f"need the moments 0..2N or 0..2N+1, a nonempty 1-d array, "
                         f"got {mom.shape}")
    N = (mom.size - 1) // 2
    b, c = np.full(N + 1, np.nan), np.zeros(N + 1)
    prev, sig = np.zeros_like(mom), mom
    for k in range(N + 1):
        h = sig[k]
        if not abs(h) > DEFAULT_RANK_TOL * max(abs(mom[2 * k]), abs(h)):
            raise QuasiDefiniteFailure(k, [abs(h)], label)
        if k:
            c[k] = h / prev[k - 1]
        if 2 * k + 1 == mom.size:
            break
        b[k] = sig[k + 1] / h - (prev[k] / prev[k - 1] if k else 0.0)
        if k == N:
            break
        nxt = np.zeros_like(mom)
        nxt[:-1] = sig[1:] - b[k] * sig[:-1] - c[k] * prev[:-1]
        prev, sig = sig, nxt
    return Recurrence1D(b, c, mass=float(mom[0]), label=f"recurrence({label})")


def check_recurrence(rec: Recurrence1D, moments, label: str = "") -> None:
    """Check a closed-form recurrence through degree N against the moments
    0..2N+1 it should reproduce.

    Its squared norms h_k = mass c_1 ... c_k must be positive: a positive
    mass and positive c_k certify a positive-definite functional through
    degree N (Favard's theorem; Gautschi 2004), however small h_k is
    against the moments, so no rank rule applies.  The first k whose h_k
    is not positive raises QuasiDefiniteFailure.  Then, with J the
    order-(N + 1) Jacobi matrix of b and c (Gauss quadrature: exact through
    degree 2N + 1), mass (J^k)_00 must equal m_k within DEFAULT_RES_TOL times
    mass (|J|^k)_00, the size of the terms summed, or within the smallest
    normal float, for every k <= 2N + 1, or ValueError names the first k
    that disagrees (_first_entries reads both powers).
    """
    mom = np.asarray(moments, dtype=float)
    h = rec.norms()
    bad = np.flatnonzero(~(h > 0.0))
    if bad.size:
        raise QuasiDefiniteFailure(int(bad[0]), [abs(h[bad[0]])], label)
    got, size = _first_entries(rec, 2 * rec.N + 2)
    gap = np.abs(rec.mass * got - mom)
    # a gap below the normal floats is underflow (b_0 of the exponents
    # (0, 5e-324) rounds to 0.0), not a disagreement
    bound = np.maximum(DEFAULT_RES_TOL * abs(rec.mass) * size, np.finfo(float).tiny)
    bad = np.flatnonzero(~(gap <= bound))
    if bad.size:
        k = bad[0]
        raise ValueError(f"the closed-form recurrence of {label!r} gives moment {k} as "
                         f"{float(rec.mass * got[k])!r}, not {float(mom[k])!r}")


def _first_entries(rec: Recurrence1D, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(J^k)_00 and (|J|^k)_00 for k < count, J the Jacobi matrix of rec.

    They are row 0 of the Krylov blocks [e_0, J e_0, J^2 e_0, ...] of J and
    |J|, kept side by side in one block-diagonal matrix and grown by
    doubling: columns w..2w-1 are J^w times columns 0..w-1, and J^2w is
    (J^w)^2, so some 2 log2(count) products of small matrices stand for
    2 count matrix-vector products.  Every term of |J|^k is nonnegative, and
    the computed (J^k)_00 stays within about k (N + 1) ulps of (|J|^k)_00
    whatever the grouping of the products.
    """
    n = rec.N + 1
    power = np.zeros((2 * n, 2 * n))
    jac = power[:n, :n]
    jac.flat[::n + 1] = rec.b
    jac.flat[1::n + 1] = 1.0
    jac.flat[n::n + 1] = rec.c[1:]
    np.abs(jac, out=power[n:, n:])
    krylov = np.zeros((2 * n, count))
    krylov[0, 0] = krylov[n, 0] = 1.0
    width = 1
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite entry fails the check
        while width < count:
            more = min(width, count - width)
            krylov[:, width:width + more] = power @ krylov[:, :more]
            width += more
            if width < count:
                power = power @ power
    return krylov[0], krylov[n]


def jacobi_recurrence(N: int, a: float, b: float) -> Recurrence1D:
    """Monic Jacobi recurrence for the weight (1-x)^a (1+x)^b; ParameterError
    where the mass or some c_n is not a positive finite float or some b_n
    is not finite, as for exponents so large that the formulas overflow."""
    if not _exceeds(-1, a, b):
        raise ValueError(f"jacobi exponents must exceed -1, got ({a}, {b})")
    # every sum a + b + m is formed from t = (a + 1) + (b + 1), which keeps
    # its digits as both exponents near -1, where a + b + 2 cancels; the
    # 0.0 added to (b - a)(b + a) makes b_n = +0.0 where a = -b
    t = (a + 1) + (b + 1)
    bb = [(b - a) / t]
    cc = [0.0]
    try:
        for n in range(1, N + 1):
            s = 2 * n - 2 + t
            bb.append(((b - a) * (b + a) + 0.0) / (s * (s + 2)))
            if n == 1:
                cc.append(4 * (1 + a) * (1 + b) / (t ** 2 * (t + 1)))
            else:
                cc.append(4 * n * (n + a) * (n + b) * (n - 2 + t) / (s**2 * (s + 1) * (s - 1)))
        ok = all(map(math.isfinite, bb)) and all(0.0 < x < math.inf for x in cc[1:])
    except OverflowError:   # float ** 2 raises above 1.3e154
        ok = False
    if not ok:
        raise ParameterError(f"jacobi exponents ({a}, {b}) give a b_n that is not finite "
                             "or a c_n that is not a positive finite float")
    mass = _positive_finite(jacobi_mass(a, b), f"jacobi mass for exponents ({a}, {b})")
    return Recurrence1D(np.array(bb), np.array(cc), mass=mass, label=f"jacobi({a},{b})")


def laguerre_recurrence(N: int, alpha: float) -> Recurrence1D:
    if not _exceeds(-1, alpha):
        raise ValueError(f"laguerre exponent must exceed -1, got {alpha}")
    n = np.arange(N + 1, dtype=float)
    return Recurrence1D(
        2 * n + alpha + 1,
        n * (n + alpha),
        mass=gamma(alpha + 1),
        label=f"laguerre({alpha})",
    )


def chebyshev_recurrence(N: int, kind: int) -> Recurrence1D:
    """Chebyshev recurrences with the classical unit-mass normalization: the
    Jacobi recurrence of the kind's exponents with mass 1.

    Orthonormal off-diagonals: kind 1 has a_0 = 1/sqrt(2) then 1/2; kinds
    2-4 have a_n = 1/2 throughout, with b_0 = -1/2 (kind 3) or 1/2 (kind 4).
    """
    if kind not in _CHEB_PARAMS:
        raise ValueError(f"chebyshev kind must be 1..4, got {kind}")
    rec = jacobi_recurrence(N, *_CHEB_PARAMS[kind])
    return Recurrence1D(rec.b, rec.c, mass=1.0, label=f"chebyshev{kind}")


# ---------------------------------------------------------------------------
# CLI functional specs, e.g. "disk:mu=1.5" or "simplex:k=0.5,0.5,0.5"


def parse_functional(text: str) -> MomentFunctional:
    """The functional a spec names; every argument given must be read."""
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    args: dict[str, list[float]] = {}
    if argstr.strip():
        # commas separate either vector entries or further key=value pairs,
        # so split only on commas (or semicolons) that start a new key
        for item in re.split(r"[;,](?=\s*[A-Za-z_][A-Za-z0-9_]*\s*=)", argstr):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad functional argument {item!r}")
            if key.strip() in args:
                raise ParameterError(f"argument {key.strip()!r} is given more than once")
            args[key.strip()] = [float(v) for v in val.split(",")]

    def vector(*keys):
        """Values of the first of `keys` given; what is left in args was not read."""
        for key in keys:
            if key in args:
                return args.pop(key)
        raise ValueError(f"functional {name!r} needs argument {keys[0]!r}")

    def one(key, default=None):
        if key not in args and default is not None:
            return default
        vals = vector(key)
        if len(vals) != 1:
            raise ValueError(f"argument {key!r} expects a single value")
        return vals[0]

    def integer(key, default=None):
        value = one(key, default)
        if not float(value).is_integer():
            raise ParameterError(f"argument {key!r} must be an integer, got {value}")
        return int(value)

    def krall(v, wy):
        """v alone, or with d=2 v times the weight wy() in the second variable."""
        d = integer("d", 1)
        if d not in (1, 2):
            raise ParameterError(f"argument 'd' of {name!r} must be 1 or 2, got {d}")
        return tensor(v, wy()) if d == 2 else v

    if name == "disk":
        u = disk_functional(one("mu"))
    elif name == "simplex":
        u = simplex_functional(vector("k", "kappa"))
    elif name == "cheb-product":
        u = product_chebyshev_functional(integer("kind"), integer("d", 2))
    elif name == "koornwinder-cheb":
        u = koornwinder_symmetrized_functional(integer("kind"))
    elif name == "cube-jacobi":
        u = cube_jacobi_functional(vector("a"), vector("b"))
    elif name == "laguerre":
        if "kappa" in args or "k" in args:
            u = multiple_laguerre_functional(vector("kappa", "k"))
        else:
            u = laguerre_functional_1d(one("alpha"))
    elif name == "jacobi":
        u = jacobi_functional_1d(one("a"), one("b"))
    elif name == "krall-laguerre":
        v = krall_laguerre_functional(one("alpha"), one("a1"))
        u = krall(v, lambda: laguerre_functional_1d(one("kappa2", 0.0)))
    elif name == "krall-jacobi":
        v = krall_jacobi_functional(one("alpha"), one("beta"), one("a1"))
        u = krall(v, lambda: jacobi_functional_1d(one("ay", 0.0), one("by", 0.0)))
    else:
        raise ValueError(f"unknown functional family {name!r}")
    if args:
        raise ParameterError(f"functional {name!r} does not read {', '.join(sorted(args))}")
    return u
