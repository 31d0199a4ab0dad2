"""Pucci extremal operators, a library of second-order operators F and
Hamiltonians H, and randomized checkers for the structure conditions they
are supposed to satisfy (gradient-growth bounds, x-shift modulus,
convexity-type bound, and the sublinearization inequality with the
gamma-tilde constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import row_norms, squared_row_norms

MARGIN_TOL = 1e-9
_PMAX = 1e3  # sampling range for gradient magnitudes (log-uniform)
_DIM = 2  # dimension of the points and gradients the checkers draw


class MetadataError(ValueError):
    """A checker was asked for a condition whose constants H does not carry."""


@dataclass(frozen=True)
class EllipticityPair:
    lam: float
    Lam: float

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lam <= Lam")


@dataclass(frozen=True)
class CheckReport:
    condition: str
    samples: int
    worst_margin: float
    witness: dict
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -MARGIN_TOL


@dataclass(frozen=True)
class OperatorF:
    """Second-order operator (x, X) -> real, normalized so F(x, 0) = 0.

    The evaluator is vectorized: x has shape (N, n), X has shape (N, n, n).
    ``stencil(x, d2)`` is F's monotone discretization: given the (N, n_pairs)
    second differences along the stencil direction pairs (the n axes, then
    in 2D the two diagonals), it returns nonnegative weights of the same
    shape with F_h = sum(weights * d2, axis=1).
    """

    evaluator: Callable
    ellipticity: EllipticityPair
    stencil: Callable

    def __call__(self, x, X):
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(X, dtype=float))


@dataclass(frozen=True)
class HamiltonianH:
    """Gradient Hamiltonian (x, p) -> real with H(x, 0) = 0 and its constants.

    growth = (m, gamma1, gamma_m) are valid both for the two-point bound
        |H(x,p) - H(x,q)| <= (gamma1 + gamma_m(|p|^{m-1}+|q|^{m-1}))|p-q|
    and for the shifted form |H(x,p+q) - H(y,p)| with the modulus
    omega(t) = modulus_coeff * t on the x-shift.
    convexity = (c_lower, A, sigma0) when H satisfies the convexity-type
    bound H(x,p) - sigma H(x, p/sigma) <= (1-sigma)(-c_lower|p|^m + A).
    ``gradient(x, p)`` is dH/dp in closed form, shape (N, n), and 0 at
    p = 0; the solver's Newton Jacobian needs it.
    """

    evaluator: Callable
    m: float
    gamma1: float
    gamma_m: float
    gradient: Callable
    convexity: Optional[tuple] = None   # (c_lower, A, sigma0)
    modulus_coeff: float = 0.0
    tag: str = "custom"
    claims: tuple = ()

    def __call__(self, x, p):
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# Pucci operators
# ---------------------------------------------------------------------------

def pucci(X, ell: EllipticityPair, extremal: str = "+") -> np.ndarray:
    """Pucci extremal operator of symmetric matrices X of shape (..., n, n)
    from their eigenvalues, one value per matrix (an np.float64 for one
    matrix)."""
    if extremal not in ("+", "-"):
        raise ValueError("extremal must be '+' or '-'")
    return pucci_batch(_batch_eigs(X), ell.lam, ell.Lam, extremal)


def pucci_batch(eigs: np.ndarray, lam: float, Lam: float, extremal: str = "+") -> np.ndarray:
    """Pucci from precomputed eigenvalues, batched over the leading axis."""
    pos = np.clip(eigs, 0.0, None).sum(axis=-1)
    neg = np.clip(eigs, None, 0.0).sum(axis=-1)
    if extremal == "+":
        return Lam * pos + lam * neg
    return lam * pos + Lam * neg


def _admissible_coeffs_2d(rng, samples: int, lam: float, Lam: float):
    """Random admissible A = Q diag(d1,d2) Q^T reduced to quadratic-form
    coefficients: Tr(AX) = M @ (x11, x12, x22) for upper-triangle X. Each
    eigenvalue is snapped to lam or Lam with probability 1/2."""
    theta = rng.uniform(0.0, np.pi, samples)
    d = rng.uniform(lam, Lam, (samples, 2))
    snap = rng.random((samples, 2)) < 0.5
    ends = np.where(rng.random((samples, 2)) < 0.5, lam, Lam)
    d = np.where(snap, ends, d)
    c, s = np.cos(theta), np.sin(theta)
    # q1 = (c, s), q2 = (-s, c)
    m11 = d[:, 0] * c * c + d[:, 1] * s * s
    m22 = d[:, 0] * s * s + d[:, 1] * c * c
    m12 = 2.0 * c * s * (d[:, 0] - d[:, 1])
    return np.stack([m11, m12, m22], axis=1)


def pucci_bruteforce(X, ell: EllipticityPair, samples: int,
                     rng=None, extremal: str = "+") -> float:
    """Monte-Carlo sup/inf of Tr(AX) over admissible A = Q D Q^T for one
    symmetric (n, n) matrix X.

    A lower bound on P+ (upper bound on P-) that converges as samples grow.
    """
    if samples < 1:
        raise ValueError("samples >= 1 required")
    rng = np.random.default_rng(rng)
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n == 2:
        M = _admissible_coeffs_2d(rng, samples, ell.lam, ell.Lam)
        vals = M @ X[np.triu_indices(2)]
    else:
        mats = rng.standard_normal((samples, n, n))
        Q, _ = np.linalg.qr(mats)
        d = rng.uniform(ell.lam, ell.Lam, (samples, n))
        A = np.einsum("sik,sk,sjk->sij", Q, d, Q)
        vals = np.einsum("sij,ji->s", A, X)
    return float(vals.max() if extremal == "+" else vals.min())


def pucci_bruteforce_sweep(X_upper: np.ndarray, ell: EllipticityPair,
                           samples: int, rng=None) -> np.ndarray:
    """Brute-force P+ for a batch of 2x2 matrices sharing one sample set.

    X_upper has shape (N, 3) with rows (x11, x12, x22).
    """
    rng = np.random.default_rng(rng)
    M = _admissible_coeffs_2d(rng, samples, ell.lam, ell.Lam)
    return (M @ np.asarray(X_upper, dtype=float).T).max(axis=0)


# ---------------------------------------------------------------------------
# Operator library
# ---------------------------------------------------------------------------

def _batch_eigs(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if n == 1:
        return X[..., 0, :]
    if n == 2:
        a, b, c = X[..., 0, 0], X[..., 0, 1], X[..., 1, 1]
        mean = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        return np.stack([mean - rad, mean + rad], axis=-1)
    return np.linalg.eigvalsh(X)


def _pucci_stencil(ell: EllipticityPair, extremal: str) -> Callable:
    """Lam or lam on each second difference by its sign; in 2D only the
    frame (axes or diagonals) with the larger (P+) or smaller (P-) sum
    keeps its weights."""
    if extremal not in ("+", "-"):
        raise ValueError("extremal must be '+' or '-'")
    plus = extremal == "+"
    up, down = (ell.Lam, ell.lam) if plus else (ell.lam, ell.Lam)

    def stencil(x, d2):
        weights = np.where(d2 > 0.0, up, down)
        if d2.shape[1] == 1:
            return weights
        per = weights * d2
        axes, diagonals = per[:, 0] + per[:, 1], per[:, 2] + per[:, 3]
        diag = diagonals > axes if plus else diagonals < axes
        weights[:, 2:] *= diag[:, None]
        weights[:, :2] *= ~diag[:, None]
        return weights
    return stencil


def _axis_stencil(w) -> Callable:
    """Fixed weights w on the axes and none on the diagonals: the stencil of
    the linear F = sum_i w_i X_ii."""
    def stencil(x, d2):
        weights = np.zeros_like(d2)
        weights[:, : x.shape[1]] = w  # the n axis pairs come first
        return weights
    return stencil


def pucci_operator(ell: EllipticityPair, extremal: str) -> OperatorF:
    """The Pucci operator P+ (extremal "+") or P- ("-") at the pair ell."""
    return OperatorF(evaluator=lambda x, X: pucci(X, ell, extremal),
                     ellipticity=ell, stencil=_pucci_stencil(ell, extremal))


def laplacian_operator() -> OperatorF:
    def ev(x, X):
        return np.trace(np.asarray(X, dtype=float), axis1=-2, axis2=-1)
    return OperatorF(evaluator=ev, ellipticity=EllipticityPair(1.0, 1.0),
                     stencil=_axis_stencil(1.0))


def weighted_trace_operator(weights: Sequence[float]) -> OperatorF:
    """F(x, X) = sum_i w_i X_ii. Elliptic with pair (min w, max w)."""
    w = np.asarray(weights, dtype=float)
    ell = EllipticityPair(float(w.min()), float(w.max()))

    def ev(x, X):
        diag = np.diagonal(np.asarray(X, dtype=float), axis1=-2, axis2=-1)
        # not diag @ w: matmul rounds a batch of one matrix another way
        return np.einsum("...i,i->...", diag, w)
    return OperatorF(evaluator=ev, ellipticity=ell, stencil=_axis_stencil(w))


_CHUNK = 200_000
_BLOCK = 4_096


def _chunked_sweep(samples: int, draw: Callable,
                   margin: Callable) -> tuple[float, dict]:
    """Smallest margin over `samples` random draws, and its witness.

    ``draw(count)`` makes the next `count` samples, at most 200,000 at a
    time, as a dict mapping names to arrays with one row per sample.
    ``margin(**block)`` returns the margins of a block of at most `_BLOCK`
    consecutive rows of those arrays, so its temporaries stay small enough
    to live in cache. The witness holds each array's row for the sample of
    the smallest margin. Chunks and blocks run in order, so one RNG gives
    one result whatever the block size: the first smallest margin wins,
    and the first NaN margin is the smallest and stays so. A chunk with no
    rows has no blocks.
    """
    worst = np.inf
    witness: dict = {}
    for start in range(0, samples, _CHUNK):
        data = draw(min(_CHUNK, samples - start))
        rows = len(next(iter(data.values())))
        for lo in range(0, rows, _BLOCK):
            block = {key: val[lo:lo + _BLOCK] for key, val in data.items()}
            margins = margin(**block)
            k = int(np.argmin(margins))  # the first NaN, if any
            if not (margins[k] >= worst or math.isnan(worst)):
                worst = float(margins[k])
                witness = {key: val[k].tolist() for key, val in block.items()}
    return worst, witness


# ---------------------------------------------------------------------------
# Coefficient helper (bounded uniformly continuous, Lipschitz in x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coeff:
    """c(x) = c0 + amp * sin(freq * sum(x)). When amp = 0 a call returns
    the number c0 itself, which broadcasts against any array of points."""

    c0: float
    amp: float = 0.0
    freq: float = 1.0

    def __call__(self, x) -> np.ndarray | float:
        if self.amp == 0.0:
            return self.c0
        x = np.asarray(x, dtype=float)
        return self.c0 + self.amp * np.sin(self.freq * x.sum(axis=-1))

    @property
    def sup(self) -> float:
        return self.c0 + abs(self.amp)

    @property
    def inf(self) -> float:
        return self.c0 - abs(self.amp)

    @property
    def sup_abs(self) -> float:
        return max(abs(self.sup), abs(self.inf))

    def lipschitz(self, n: int) -> float:
        return abs(self.amp) * abs(self.freq) * math.sqrt(n)


def _as_coeff(value) -> Coeff:
    if isinstance(value, Coeff):
        return value
    if isinstance(value, dict):
        return Coeff(**value)
    return Coeff(c0=float(value))


# ---------------------------------------------------------------------------
# Hamiltonian library
# ---------------------------------------------------------------------------

def _young_constant(alpha: float, beta: float, l: float, m: float) -> float:
    """Smallest C with alpha r^l <= beta r^m + C for r >= 0 (1 <= l < m)."""
    if alpha == 0.0:
        return 0.0
    rstar = (alpha * l / (beta * m)) ** (1.0 / (m - l))
    return alpha * rstar ** l - beta * rstar ** m


# Convexity-type constants for the nonconvex rational-factor Hamiltonian
# c * ((|p|^2-1)^2 - 1)/(|p|^2+1): pinned by dense maximization of
# (H(x,p) - sigma H(x,p/sigma))/(1-sigma) + 0.5|p|^2 over sigma in [0.5,1),
# |p| in [0,1e4] (see tests for the re-derivation sweep).
_RATIONAL_C_LOWER_FACTOR = 0.5
_RATIONAL_A_FACTOR = 3.0


CONDITIONS = ("lipschitz_structure", "shift_modulus", "convexity_type",
              "sublinearization")


def _power_law(terms: tuple) -> tuple[Callable, Callable]:
    """H(x, p) = sum_k c_k(x) |p|^{e_k} over the (coefficient, exponent)
    ``terms`` and dH/dp = H'(|p|) p/|p|, 0 at p = 0; both 0 with no terms."""
    if not terms:
        return (lambda x, p: np.zeros(p.shape[:-1]),
                lambda x, p: np.zeros_like(p, dtype=float))

    def radial(x, r, slope):
        # the first term starts the sum; r^1 = r and r^0 = 1 exactly
        total = None
        for c, e in terms:
            power = e - 1.0 if slope else e
            term = (e * c(x) if slope else c(x)) \
                * (1.0 if power == 0.0 else r if power == 1.0 else r ** power)
            total = term if total is None else total + term
        return total

    def ev(x, p):
        return radial(x, row_norms(p), False)

    def grad(x, p):
        r = row_norms(p)
        scale = np.divide(radial(x, r, True), r, out=np.zeros_like(r),
                          where=r > 0.0)
        return scale[..., None] * p
    return ev, grad


# One constructor per library tag. Its keyword parameters are the tag's
# config keys, with their defaults, plus n, the dimension in the x-shift
# modulus constant (and the size of sup_inf's matrices); the config reader
# takes the keys and each key's kind (its annotation) from here and hands
# over checked values.

def _zero(*, m: float = 2.0, n: int = 2) -> HamiltonianH:
    if not (m == 1.0 or 1.0 < m <= 2.0):
        raise ValueError("zero needs m = 1 or m in (1, 2]")
    ev, grad = _power_law(())
    return HamiltonianH(evaluator=ev, m=m, gamma1=0.0, gamma_m=0.0,
                        gradient=grad, convexity=(0.0, 0.0, 0.5), tag="zero",
                        claims=CONDITIONS if m > 1 else CONDITIONS[:3])


def _prototype(*, c1: Coeff = 0.0, cm: Coeff = 1.0, m: float = 2.0,
               n: int = 2) -> HamiltonianH:
    c1, cm = _as_coeff(c1), _as_coeff(cm)
    if not (m == 1.0 or 1.0 < m <= 2.0):
        raise ValueError("prototype needs m = 1 or m in (1, 2]")
    ev, grad = _power_law(((c1, 1.0), (cm, m)))
    gamma1 = c1.sup_abs + cm.sup_abs if m == 1 else c1.sup_abs
    gamma_m = 2.0 * m * cm.sup_abs if m > 1 else 0.0
    convexity, claims = None, CONDITIONS[:2]
    if m > 1 and cm.inf > 0:
        convexity, claims = (0.95 * (m - 1) * cm.inf, 0.0, 0.5), CONDITIONS
    return HamiltonianH(evaluator=ev, m=m, gamma1=gamma1, gamma_m=gamma_m,
                        gradient=grad, convexity=convexity,
                        modulus_coeff=c1.lipschitz(n) + cm.lipschitz(n),
                        tag="prototype", claims=claims)


def _two_power(*, c: Coeff = 1.0, a: Coeff = 0.5, m: float = 2.0,
               l: float = 1.5, sigma0: float = 0.5, n: int = 2) -> HamiltonianH:
    c, a = _as_coeff(c), _as_coeff(a)
    if not (1.0 < m <= 2.0 and 1.0 <= l < m and 0.0 < sigma0 < 1.0):
        raise ValueError("two_power needs 1 < m <= 2, 1 <= l < m and "
                         "0 < sigma0 < 1")
    if c.inf <= 0:
        raise ValueError("two_power needs inf c > 0")
    ev, grad = _power_law(((c, m), (a, l)))
    gamma1 = 2.0 * l * a.sup_abs
    gamma_m = 2.0 * m * c.sup + 2.0 * l * a.sup_abs
    c_lower = 0.5 * (m - 1) * c.inf
    A = _young_constant(a.sup_abs * abs(l - 1.0) / sigma0 ** l, c_lower, l, m)
    return HamiltonianH(evaluator=ev, m=m, gamma1=gamma1, gamma_m=gamma_m,
                        gradient=grad, convexity=(c_lower, A, sigma0),
                        modulus_coeff=c.lipschitz(n) + a.lipschitz(n),
                        tag="two_power", claims=CONDITIONS)


def _rational_factor(*, c: Coeff = 1.0, n: int = 2) -> HamiltonianH:
    c = _as_coeff(c)
    if c.inf <= 0:
        raise ValueError("rational_factor needs inf c > 0")

    def ev(x, p):
        r2 = squared_row_norms(p)
        return c(x) * ((r2 - 1.0) ** 2 - 1.0) / (r2 + 1.0)

    def grad(x, p):
        # H = c g(|p|^2) with g(t) = ((t-1)^2 - 1)/(t+1):
        # dH/dp = 2 c g'(|p|^2) p
        t = squared_row_norms(p)
        slope = (t * t + 2.0 * t - 2.0) / ((t + 1.0) * (t + 1.0))
        return (2.0 * c(x) * slope)[..., None] * p

    return HamiltonianH(
        evaluator=ev, m=2.0,
        gamma1=1.5 * c.sup_abs, gamma_m=3.0 * c.sup_abs, gradient=grad,
        convexity=(_RATIONAL_C_LOWER_FACTOR * c.inf,
                   _RATIONAL_A_FACTOR * c.sup, 0.5),
        modulus_coeff=2.0 * c.lipschitz(n), tag="rational_factor",
        claims=CONDITIONS)


def _sup_inf(*, matrices: list, m: float = 2.0, n: int = 2) -> HamiltonianH:
    if not 1.0 < m <= 2.0:
        raise ValueError("sup_inf needs m in (1, 2]")
    sizes = [len(grp) for grp in matrices]
    flat = [np.asarray(S, dtype=float) for grp in matrices for S in grp]
    if 0 in sizes or not all(S.shape == (n, n) and np.array_equal(S, S.T)
                             for S in flat):
        raise ValueError(f"sup_inf needs nonempty groups of symmetric {n} x {n}"
                         " matrices")
    ends = np.cumsum(sizes)
    spans = list(zip(ends - sizes, ends))  # each group's slice of flat
    all_eigs = np.concatenate([np.linalg.eigvalsh(S) for S in flat])
    nu = float(all_eigs.min())
    big = float(all_eigs.max())
    if nu <= 0:
        raise ValueError("sup_inf needs all matrices >= nu I with nu > 0")

    def active(p):
        """Each row's active form Q = p^T S p, the first smallest in its
        group of the group with the first largest, and the index of its S
        in ``flat``."""
        forms = np.stack([np.einsum("...i,ij,...j->...", p, S, p) for S in flat])
        lows = np.stack([lo + forms[lo:hi].argmin(axis=0) for lo, hi in spans])
        group = np.take_along_axis(forms, lows, 0).argmax(axis=0)
        k = np.take_along_axis(lows, group[None], 0)[0]
        return np.take_along_axis(forms, k[None], 0)[0], k

    def ev(x, p):
        return active(p)[0] ** (m / 2.0)

    def grad(x, p):
        # (m/2) Q^{m/2-1} (S + S^T) p at the active form Q = p^T S p
        Q, k = active(p)
        form_grad = np.choose(k[..., None], [p @ (S + S.T) for S in flat])
        # Q >= nu |p|^2, so Q = 0 only at p = 0, where the gradient is 0
        scale = np.zeros_like(Q)
        np.power(Q, m / 2.0 - 1.0, out=scale, where=Q > 0.0)
        return (0.5 * m * scale)[..., None] * form_grad

    return HamiltonianH(
        evaluator=ev, m=m, gamma1=0.0, gamma_m=2.0 * m * big ** (m / 2.0),
        gradient=grad,
        convexity=(0.95 * (m - 1.0) * nu ** (m / 2.0), 0.0, 0.5), tag="sup_inf",
        claims=CONDITIONS)


HAMILTONIANS = {"zero": _zero, "prototype": _prototype, "two_power": _two_power,
                "rational_factor": _rational_factor, "sup_inf": _sup_inf}


def hamiltonian_library(tag: str, **params) -> HamiltonianH:
    """Construct a library Hamiltonian with its derived structure constants."""
    if tag not in HAMILTONIANS:
        raise ValueError(f"unknown Hamiltonian tag {tag!r}")
    return HAMILTONIANS[tag](**params)


def negate_hamiltonian(H: HamiltonianH) -> HamiltonianH:
    """-H, used for the concave-Hamiltonian experiments."""
    def ev(x, p):
        return -H(x, p)

    def grad(x, p):
        return -H.gradient(x, p)
    return HamiltonianH(evaluator=ev, m=H.m, gamma1=H.gamma1, gamma_m=H.gamma_m,
                        gradient=grad,
                        convexity=H.convexity, modulus_coeff=H.modulus_coeff,
                        tag="negated_" + H.tag, claims=CONDITIONS[:2])


# ---------------------------------------------------------------------------
# Structure-condition checkers
# ---------------------------------------------------------------------------

def _sample_vectors(rng, count: int, rmax: float = _PMAX) -> np.ndarray:
    """Random vectors with log-uniform magnitude in [1e-6, rmax], plus a
    sprinkle of exact zeros.

    The vectors are scaled in place one coordinate column at a time (a row
    of the (dim, count) transpose), so numpy's loops run over `count`
    values rather than over rows of length dim; the floats are those of
    scaling whole rows.
    """
    u = rng.standard_normal((count, _DIM))
    norms = row_norms(u)
    np.maximum(norms, 1e-300, out=norms)
    scale = rng.uniform(-6.0, np.log10(rmax), count)
    np.power(10.0, scale, out=scale)
    zero = rng.random(count) < 0.01
    for col in u.T:
        col /= norms
        col *= scale
        np.copyto(col, 0.0, where=zero)
    return u


def _divide_rows(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """v / d[:, None], divided one coordinate column at a time."""
    out = np.empty_like(v)
    for col_out, col in zip(out.T, v.T):
        np.divide(col, d, out=col_out)
    return out


def _sample_sigma(rng, count: int, sigma0: float) -> np.ndarray:
    """sigma in (sigma0, 1), emphasizing the sigma -> 1 end."""
    u = rng.uniform(0.0, 8.0, count)
    return 1.0 - (1.0 - sigma0) * 10.0 ** (-u)


def tilde_gamma(gamma_m: float, m: float, c_lower: float) -> float:
    """gamma_m + (m-1)^{m-1} gamma_m^m / (m^m c_lower^{m-1}); 0 when gamma_m=0."""
    if m <= 1.0:
        raise ValueError("tilde gamma requires m > 1")
    if gamma_m < 0.0:
        raise ValueError("gamma_m must be nonnegative")
    if gamma_m == 0.0:
        return 0.0
    if c_lower <= 0.0:
        raise ValueError("tilde gamma requires c_lower > 0")
    return gamma_m + (m - 1.0) ** (m - 1.0) * gamma_m ** m / (m ** m * c_lower ** (m - 1.0))


def check_hamiltonian(H: HamiltonianH, condition: str, samples: int,
                      rng=None) -> CheckReport:
    """Randomized margin sweep for one structure condition.

    Margins are (bound - quantity); negative below -1e-9 flags a violation.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if samples < 1:
        raise ValueError("samples >= 1 required")
    if condition in ("convexity_type", "sublinearization") and H.convexity is None:
        raise MetadataError(f"{H.tag} carries no convexity constants")
    if condition == "sublinearization" and H.m <= 1.0:
        raise MetadataError("sublinearization requires m > 1")
    rng = np.random.default_rng(rng)
    m, g1, gm = H.m, H.gamma1, H.gamma_m
    if condition == "sublinearization":
        try:
            tg = tilde_gamma(gm, m, H.convexity[0])
        except OverflowError:
            raise MetadataError(f"tilde gamma overflows at gamma_m = {gm:.3g}")

    def draw(count):
        x = rng.uniform(-10.0, 10.0, (count, _DIM))
        p = _sample_vectors(rng, count)
        q = _sample_vectors(rng, count)
        if condition == "lipschitz_structure":
            return {"x": x, "p": p, "q": q}
        if condition == "shift_modulus":
            y = _sample_vectors(rng, count, rmax=10.0)
            y += x
            return {"x": x, "y": y, "p": p, "q": q}
        sigma = _sample_sigma(rng, count, H.convexity[2])
        if condition == "convexity_type":
            # q is drawn and not used: every condition draws x, p, q first,
            # so a seed keeps giving the samples (and, in a shared RNG, the
            # later conditions' samples) it always gave
            return {"x": x, "p": p, "sigma": sigma}
        return {"x": x, "p": p, "q": q, "sigma": sigma}

    def growth(pn, qn):
        return g1 + gm * (pn ** (m - 1.0) + qn ** (m - 1.0))

    def lipschitz_structure(x, p, q):
        bound = growth(row_norms(p), row_norms(q)) * row_norms(p - q)
        return bound - np.abs(H(x, p) - H(x, q))

    def shift_modulus(x, y, p, q):
        pn, qn = row_norms(p), row_norms(q)
        bound = H.modulus_coeff * row_norms(x - y) * (pn ** m + 1.0) \
            + growth(pn, qn) * qn
        return bound - np.abs(H(x, p + q) - H(y, p))

    def convexity_type(x, p, sigma):
        c_lower, A, _ = H.convexity
        quantity = H(x, p) - sigma * H(x, _divide_rows(p, sigma))
        return (1.0 - sigma) * (-c_lower * row_norms(p) ** m + A) - quantity

    def sublinearization(x, p, q, sigma):
        A = H.convexity[1]
        quantity = H(x, p + q) - sigma * H(x, _divide_rows(p, sigma))
        qn = row_norms(q)
        bound = tg * (1.0 - sigma) ** (1.0 - m) * qn ** m + g1 * qn \
            + (1.0 - sigma) * A
        return bound - quantity

    margin = {"lipschitz_structure": lipschitz_structure,
              "shift_modulus": shift_modulus, "convexity_type": convexity_type,
              "sublinearization": sublinearization}[condition]
    worst, witness = _chunked_sweep(samples, draw, margin)
    return CheckReport(condition=condition, samples=samples,
                       worst_margin=worst, witness=witness)


def empirical_increment_constant(m: float, samples: int, rng=None) -> float:
    """Empirical C(m) with |p+q|^m - |p|^m <= C (|p|^{m-1}+|q|^{m-1}) |q|,
    found by maximizing the ratio over random pairs."""
    rng = np.random.default_rng(rng)

    def draw(count):
        p = _sample_vectors(rng, count)
        q = _sample_vectors(rng, count)
        ok = row_norms(q) > 0  # no ratio where q = 0
        return {"p": p[ok], "q": q[ok]}

    def margin(p, q):
        # margin -ratio: the sweep's smallest margin is minus the largest ratio
        pn, qn = row_norms(p), row_norms(q)
        num = row_norms(p + q) ** m - pn ** m
        den = (pn ** (m - 1.0) + qn ** (m - 1.0)) * qn
        return -(num / den)

    return max(0.0, -_chunked_sweep(samples, draw, margin)[0])
