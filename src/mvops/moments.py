"""Moment functionals: oracles mapping a multi-index to a real moment.

Every weight family in the catalog is represented by such an oracle, with
closed forms (Gamma/Beta/Dirichlet integrals) where available and Gauss
quadrature otherwise.  Functional operations (left multiplication by a
polynomial, tensor composition, division by a linear factor plus a point
mass) build new oracles from existing ones, so downstream code never needs
to know how a moment is produced.

Normalization: families whose conventional inner product has unit mass
(disk, simplex, the product and symmetrized Chebyshev weights) are scaled
so the zeroth moment is 1; their raw moments stay available as
disk_moment_closed and simplex_moment_closed.  Laguerre and Jacobi tensor
weights are kept raw.  Orthogonality, ranks and relation verdicts
elsewhere are scale invariant.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .indexing import basis_for


class ParameterError(ValueError):
    """A weight or family parameter lies outside its admissible range."""


def _exceeds(lower: float, *values) -> bool:
    """Every value is finite and above `lower`; NaN and +-inf are not."""
    return all(lower < v < math.inf for v in values)


class MomentFunctional:
    """Linear functional on d-variate polynomials, defined by its moments.

    The oracle must be deterministic; computed moments are memoized per
    instance, as scalars, as one moment vector per degree, and as one graded
    moment matrix whose entry (a, b) is the moment at alpha_a + beta_b over
    the monomials of degrees 0..n in graded order.  Instances are intended
    to be confined to one thread (the memos are unlocked).  Multi-indices
    are ordered by `basis`, the shared graded basis of dimension d.
    """

    def __init__(self, d: int, oracle, label: str = ""):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.basis = basis_for(d)
        self._oracle = oracle
        self.label = label
        self._memo: dict[tuple[int, ...], float] = {}
        self._vectors: dict[int, np.ndarray] = {}
        self._graded = np.zeros((0, 0))
        self._graded_top = -1      # rows and columns cover degrees 0.._graded_top
        self._graded_degree = -1   # blocks with j + k <= _graded_degree are filled

    def __repr__(self):
        return f"MomentFunctional(d={self.d}, label={self.label!r})"

    def moment(self, alpha) -> float:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dimension {self.d}")
        if alpha not in self._memo:
            value = float(self._oracle(alpha))
            if not math.isfinite(value):
                raise ValueError(f"non-finite moment at {alpha} for {self.label!r}")
            self._memo[alpha] = value
        return self._memo[alpha]

    def moment_vector(self, n: int) -> np.ndarray:
        """Moments at the degree-n monomials in basis order; memoized, read-only."""
        if n not in self._vectors:
            vec = self._degree_vector(n)
            vec.flags.writeable = False
            self._vectors[n] = vec
        return self._vectors[n]

    def _degree_vector(self, n: int) -> np.ndarray:
        return np.array([self.moment(a) for a in self.basis.indices(n)])

    def moment_matrix(self, j: int, k: int) -> np.ndarray:
        """Monomial pairing block: entry (a, b) is the moment at alpha_a + beta_b."""
        return self.graded_block(j, j, k, k)

    def graded_block(self, j0: int, j1: int, k0: int, k1: int) -> np.ndarray:
        """Read-only view of the graded moment matrix with rows of degrees
        j0..j1 and columns of degrees k0..k1.

        The matrix grows on demand and asks for no moment above degree
        j1 + k1, so a non-finite moment raises at the degree that needs it.
        """
        self._grow(max(j1, k1), j1 + k1)
        return self._graded[self.basis.degree_slice(j0, j1), self.basis.degree_slice(k0, k1)]

    def _grow(self, top: int, degree: int) -> None:
        """Cover degrees 0..top and fill every block (j, k) with j + k <= degree.

        Blocks of higher total degree hold NaN until a caller needs them.
        """
        basis = self.basis
        old_top, old_degree = self._graded_top, self._graded_degree
        if top <= old_top and degree <= old_degree:
            return
        top, degree = max(top, old_top), max(degree, old_degree)
        if top > old_top:
            size = basis.offset(top + 1)
            grown = np.full((size, size), np.nan)
            old_size = self._graded.shape[0]
            grown[:old_size, :old_size] = self._graded
            self._graded = grown
        graded = self._graded
        graded.flags.writeable = True
        for j in range(top + 1):
            # blocks (j, k) with k <= min(old_top, old_degree - j) are filled
            first = max(0, min(old_top, old_degree - j) + 1) if j <= old_top else 0
            for k in range(first, min(top, degree - j) + 1):
                graded[basis.degree_slice(j, j), basis.degree_slice(k, k)] = (
                    self.moment_vector(j + k)[basis.sum_table(j, k)])
        graded.flags.writeable = False
        self._graded_top, self._graded_degree = top, degree


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

    A degree-n vector gathers, for each coefficient c_beta in dict order,
    the base's degree-(n + |beta|) vector at the positions of alpha + beta
    and accumulates c_beta times it from zero, like the scalar oracle, so
    both give bit-identical moments.  When a base vector raises (a moment
    outside the shifted set may be non-finite) or a sum is non-finite, the
    degree is rebuilt entry by entry from the scalar oracle, which returns
    the needed moments or raises at the same index it would alone.
    """

    def __init__(self, coeffs: dict, base: MomentFunctional, label: str):
        def oracle(alpha):
            return sum(
                c * base.moment(tuple(x + y for x, y in zip(alpha, beta)))
                for beta, c in coeffs.items()
            )

        super().__init__(base.d, oracle, label)
        self.coeffs = coeffs
        self.base = base

    def _degree_vector(self, n: int) -> np.ndarray:
        basis = self.basis
        out = np.zeros(basis.size(n))
        try:
            with np.errstate(over="ignore", invalid="ignore"):   # checked just below
                for beta, c in self.coeffs.items():
                    m = sum(beta)
                    shifted = basis.sum_table(n, m)[:, basis.position(beta)]
                    out += c * self.base.moment_vector(n + m)[shifted]
        except ValueError:
            return super()._degree_vector(n)
        if not np.all(np.isfinite(out)):
            return super()._degree_vector(n)
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

    A degree vector is the elementwise product of the factors' moment
    vectors, taken in factor order like the scalar oracle, so both give
    bit-identical moments.
    """

    def __init__(self, factors, label: str):
        factors = tuple(factors)

        def oracle(alpha):
            out = 1.0
            for f, a in zip(factors, alpha):
                out *= f.moment((a,))
            return out

        super().__init__(len(factors), oracle, label)
        self.factors = factors

    def _degree_vector(self, n: int) -> np.ndarray:
        exps = self.basis.exponents(n)
        out = np.ones(len(exps))
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            for axis, f in enumerate(self.factors):
                out *= np.array([f.moment((m,)) for m in range(n + 1)])[exps[:, axis]]
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            alpha = tuple(int(a) for a in exps[bad[0]])
            raise ValueError(f"non-finite moment at {alpha} for {self.label!r}")
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


def jacobi_functional_1d(a: float, b: float, label: str | None = None) -> MomentFunctional:
    """Raw moments of (1-x)^a (1+x)^b on [-1, 1], by Gauss quadrature."""
    if not _exceeds(-1, a, b):
        raise ParameterError(f"jacobi exponents must exceed -1, got ({a}, {b})")
    # roots_jacobi(n, a, a) is roots_gegenbauer(n, a + 1/2), which divides
    # 0 by 0 when 1 + (a + 1/2) rounds to 1; there the weight equals the
    # a = b = -1/2 weight to rounding, so that rule stands in
    ra, rb = (-0.5, -0.5) if a == b and 1 + (a + 0.5) == 1 else (a, b)

    # moments 2k and 2k+1 share the (k+2)-node rule
    rule = functools.cache(lambda nodes: sp.roots_jacobi(nodes, ra, rb))

    def oracle(alpha):
        m = alpha[0]
        x, w = rule(m // 2 + 2)
        return float(np.sum(w * x**m))

    return MomentFunctional(1, oracle, label or f"jacobi(a={a},b={b})")


def jacobi_mass(a: float, b: float) -> float:
    return math.exp(
        (a + b + 1) * math.log(2.0) + sp.betaln(a + 1, b + 1)
    )


def laguerre_functional_1d(alpha: float, label: str | None = None) -> MomentFunctional:
    """Raw moments of t^alpha e^-t on (0, inf): Gamma(m + alpha + 1)."""
    if not _exceeds(-1, alpha):
        raise ParameterError(f"laguerre exponent must exceed -1, got {alpha}")

    def oracle(idx):
        return sp.gamma(idx[0] + alpha + 1)

    return MomentFunctional(1, oracle, label or f"laguerre(alpha={alpha})")


_CHEB_PARAMS = {1: (-0.5, -0.5), 2: (0.5, 0.5), 3: (0.5, -0.5), 4: (-0.5, 0.5)}


def _cheb1_moment(m: int) -> float:
    # normalized first-kind weight: even moments binom(2p, p) / 4^p
    if m % 2:
        return 0.0
    p = m // 2
    return sp.binom(2 * p, p) / 4.0**p


def chebyshev_functional_1d(kind: int) -> MomentFunctional:
    """Unit-mass Chebyshev weight of the given kind, closed-form moments."""
    if kind not in _CHEB_PARAMS:
        raise ParameterError(f"chebyshev kind must be 1..4, got {kind}")

    def oracle(idx):
        m = idx[0]
        if kind == 1:
            return _cheb1_moment(m)
        if kind == 2:
            p, rem = divmod(m, 2)
            return 0.0 if rem else sp.binom(2 * p, p) / (4.0**p * (p + 1))
        if kind == 3:
            return _cheb1_moment(m) - _cheb1_moment(m + 1)
        return _cheb1_moment(m) + _cheb1_moment(m + 1)

    return MomentFunctional(1, oracle, f"chebyshev{kind}")


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
    mass0 = sp.gamma(alpha + 1) / (alpha + 1 - a1)

    def oracle(idx):
        m = idx[0]
        # (t^m - 0^m)/t has Laguerre action Gamma(m + alpha) for m >= 1
        return mass0 if m == 0 else sp.gamma(m + alpha)

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
        divided = -sum(base.moment((k,)) for k in range(m))
        return divided + mass1

    return MomentFunctional(1, oracle, f"krall-jacobi(alpha={alpha},beta={beta},a1={a1})")


# ---------------------------------------------------------------------------
# multivariate catalog weights


def product_chebyshev_functional(kind: int, d: int = 2) -> MomentFunctional:
    f = chebyshev_functional_1d(kind)
    return tensor(*([f] * d), label=f"product-chebyshev{kind}(d={d})")


def disk_moment_closed(mu: float, alpha) -> float:
    """Raw disk moment of x^alpha against (1 - |x|^2)^mu over the unit disk."""
    j, k = alpha
    if j % 2 or k % 2:
        return 0.0
    p, q = j // 2, k // 2
    return float(
        sp.beta(p + q + 1, mu + 1)
        * sp.gamma(p + 0.5)
        * sp.gamma(q + 0.5)
        / sp.gamma(p + q + 1)
    )


def disk_moment_quadrature(mu: float, alpha) -> float:
    """Raw disk moment via iterated Gauss-Jacobi rules (independent route)."""
    j, k = alpha
    # inner integral over y on a slice: y = sqrt(1-x^2) t
    xk, wk = sp.roots_jacobi(k // 2 + 2, mu, mu)
    inner = float(np.sum(wk * xk**k))
    xj, wj = sp.roots_jacobi(j // 2 + 2, mu + (k + 1) / 2.0, mu + (k + 1) / 2.0)
    outer = float(np.sum(wj * xj**j))
    return inner * outer


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
    log_num = sum(sp.gammaln(a + k + 0.5) for a, k in zip(alpha, kappa[:d]))
    log_num += sp.gammaln(kappa[d] + 0.5)
    log_den = sp.gammaln(sum(alpha) + np.sum(kappa) + (d + 1) / 2.0)
    return float(np.exp(log_num - log_den))


def simplex_moment_quadrature(kappa, alpha) -> float:
    """Raw simplex moment via iterated Gauss-Jacobi rules on [0, 1] slices."""
    kappa = np.asarray(kappa, dtype=float)
    alpha = tuple(alpha)
    d = len(alpha)
    total = 1.0
    for ell in range(1, d + 1):
        # exponent of t on axis ell is alpha_ell plus the singular kappa part;
        # the factor (1-t) collects everything from later axes plus Jacobian
        frac_one_minus = sum(kappa[j] - 0.5 for j in range(ell, d)) + kappa[d] - 0.5
        poly_one_minus = sum(alpha[ell:]) + (d - ell)
        x, w = sp.roots_jacobi(
            (alpha[ell - 1] + poly_one_minus) // 2 + 2, frac_one_minus, kappa[ell - 1] - 0.5
        )
        t = (x + 1.0) / 2.0
        vals = t ** alpha[ell - 1] * (1.0 - t) ** poly_one_minus
        # rule carries (1-x)^A (1+x)^B on [-1,1]; map to [0,1] with t=(1+x)/2
        scale = 0.5 ** (frac_one_minus + (kappa[ell - 1] - 0.5) + 1)
        total *= scale * float(np.sum(w * vals))
    return total


def simplex_functional(kappa) -> MomentFunctional:
    """Unit-mass Dirichlet weight on the simplex."""
    kappa = tuple(float(k) for k in kappa)
    d = len(kappa) - 1
    if d < 1:
        raise ParameterError("kappa must have d+1 entries with d >= 1")
    if not _exceeds(-0.5, *kappa):
        raise ParameterError(f"kappa entries must exceed -1/2, got {kappa}")
    mass = simplex_moment_closed(kappa, (0,) * d)

    def oracle(alpha):
        return simplex_moment_closed(kappa, alpha) / mass

    return MomentFunctional(d, oracle, f"simplex(kappa={kappa})")


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


def laguerre_moment_quadrature(kappa, alpha) -> float:
    """Raw multiple-Laguerre moment via Gauss-Laguerre rules per axis."""
    total = 1.0
    for k, m in zip(kappa, alpha):
        x, w = sp.roots_genlaguerre(m // 2 + 2, k)
        total *= float(np.sum(w * x**m))
    return total


def koornwinder_symmetrized_functional(kind: int) -> MomentFunctional:
    """Moments in the symmetric variables (x+y, xy) of a Chebyshev product.

    The change of variables folds the square onto the region above the
    discriminant curve and cancels its inverse square root, leaving plain
    product-weight integrals; unit mass.
    """
    a, b = _CHEB_PARAMS[kind]
    mass = jacobi_mass(a, b)

    def oracle(alpha):
        j, k = alpha
        n_nodes = (j + k) // 2 + 2
        x, w = sp.roots_jacobi(n_nodes, a, b)
        sums = np.add.outer(x, x) ** j * np.outer(x, x) ** k
        return float(w @ sums @ w) / mass**2

    return MomentFunctional(2, oracle, f"koornwinder-chebyshev{kind}")


# ---------------------------------------------------------------------------
# classical three-term recurrences


@dataclass
class Recurrence1D:
    """Monic univariate recurrence p_{n+1} = (x - b_n) p_n - c_n p_{n-1}.

    `b` holds b_0..b_N, `c` holds c_1..c_N at matching positions (c[0]
    unused), `mass` is the zeroth moment.  For a positive weight the
    orthonormal off-diagonal is a_n = sqrt(c_{n+1}).  A recurrence read
    from the moments 0..2N (construct.recurrence_from_moments) has b[N]
    NaN, since b_N needs moment 2N + 1; the monic and orthonormal
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
        """Squared monic norms H_0..H_N (H_n = mass * c_1 ... c_n)."""
        h = np.empty(self.N + 1)
        h[0] = self.mass
        for n in range(1, self.N + 1):
            h[n] = h[n - 1] * self.c[n]
        return h

    def monic_coeffs(self) -> list[np.ndarray]:
        """Coefficient arrays (ascending powers) of the monic polynomials."""
        polys = [np.array([1.0])]
        if self.N >= 1:
            polys.append(np.array([-self.b[0], 1.0]))
        for n in range(1, self.N):
            prev, prev2 = polys[n], polys[n - 1]
            nxt = np.zeros(n + 2)
            nxt[1:] += prev
            nxt[:-1] -= self.b[n] * prev
            nxt[: n] -= self.c[n] * prev2
            polys.append(nxt)
        return polys

    def orthonormal_coeffs(self) -> list[np.ndarray]:
        h = self.norms()
        return [p / math.sqrt(h[n]) for n, p in enumerate(self.monic_coeffs())]


def jacobi_recurrence(N: int, a: float, b: float) -> Recurrence1D:
    """Monic Jacobi recurrence for the weight (1-x)^a (1+x)^b."""
    if not _exceeds(-1, a, b):
        raise ValueError(f"jacobi exponents must exceed -1, got ({a}, {b})")
    bb = np.zeros(N + 1)
    cc = np.zeros(N + 1)
    bb[0] = (b - a) / (a + b + 2)
    for n in range(1, N + 1):
        s = 2 * n + a + b
        bb[n] = (b**2 - a**2) / (s * (s + 2))
        if n == 1:
            cc[1] = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
        else:
            cc[n] = 4 * n * (n + a) * (n + b) * (n + a + b) / (s**2 * (s + 1) * (s - 1))
    return Recurrence1D(bb, cc, mass=jacobi_mass(a, b), label=f"jacobi({a},{b})")


def laguerre_recurrence(N: int, alpha: float) -> Recurrence1D:
    if not _exceeds(-1, alpha):
        raise ValueError(f"laguerre exponent must exceed -1, got {alpha}")
    n = np.arange(N + 1, dtype=float)
    return Recurrence1D(
        2 * n + alpha + 1,
        n * (n + alpha),
        mass=float(sp.gamma(alpha + 1)),
        label=f"laguerre({alpha})",
    )


def chebyshev_recurrence(N: int, kind: int) -> Recurrence1D:
    """Chebyshev recurrences with the classical unit-mass normalization.

    Orthonormal off-diagonals: kind 1 has a_0 = 1/sqrt(2) then 1/2; kinds
    2-4 have a_n = 1/2 throughout, with b_0 = -1/2 (kind 3) or 1/2 (kind 4).
    """
    if kind not in _CHEB_PARAMS:
        raise ValueError(f"chebyshev kind must be 1..4, got {kind}")
    bb = np.zeros(N + 1)
    cc = np.full(N + 1, 0.25)
    cc[0] = 0.0
    if kind == 1 and N >= 1:
        cc[1] = 0.5
    if kind == 3:
        bb[0] = -0.5
    if kind == 4:
        bb[0] = 0.5
    return Recurrence1D(bb, cc, mass=1.0, label=f"chebyshev{kind}")


# ---------------------------------------------------------------------------
# CLI functional specs, e.g. "disk:mu=1.5" or "simplex:k=0.5,0.5,0.5"


def parse_functional(text: str) -> MomentFunctional:
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
            args[key.strip()] = [float(v) for v in val.split(",")]

    def one(key, default=None):
        if key not in args:
            if default is None:
                raise ValueError(f"functional {name!r} needs argument {key!r}")
            return default
        vals = args[key]
        if len(vals) != 1:
            raise ValueError(f"argument {key!r} expects a single value")
        return vals[0]

    if name == "disk":
        return disk_functional(one("mu"))
    if name == "simplex":
        return simplex_functional(args.get("k") or args["kappa"])
    if name == "cheb-product":
        return product_chebyshev_functional(int(one("kind")), int(one("d", 2)))
    if name == "koornwinder-cheb":
        return koornwinder_symmetrized_functional(int(one("kind")))
    if name == "cube-jacobi":
        return cube_jacobi_functional(args["a"], args["b"])
    if name == "laguerre":
        if "kappa" in args or "k" in args:
            return multiple_laguerre_functional(args.get("kappa") or args["k"])
        return laguerre_functional_1d(one("alpha"))
    if name == "jacobi":
        return jacobi_functional_1d(one("a"), one("b"))
    if name == "krall-laguerre":
        v = krall_laguerre_functional(one("alpha"), one("a1"))
        wy = laguerre_functional_1d(one("kappa2", 0.0))
        return tensor(v, wy) if one("d", 1) == 2 else v
    if name == "krall-jacobi":
        v = krall_jacobi_functional(one("alpha"), one("beta"), one("a1"))
        wy = jacobi_functional_1d(one("ay", 0.0), one("by", 0.0))
        return tensor(v, wy) if one("d", 1) == 2 else v
    raise ValueError(f"unknown functional family {name!r}")
