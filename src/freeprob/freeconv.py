"""Additive free convolution by two routes, plus its limit theorems.

Moment route: free cumulants linearize the operation, so convolving moment
sequences is cumulant extraction, addition, and resummation -- exact in
rational arithmetic via the one-sided functional-equation recursion.

Analytic route: the Cauchy transform of X boxplus Y is computed by
subordination (Belinschi & Bercovici, "A new approach to subordination
results in free probability", J. Anal. Math. 101, 2007).  With
h = 1/G - id, for every z in the upper half-plane the map

    T(w) = z + h_Y(z + h_X(w))

has a unique fixed point w = omega_1(z) in the upper half-plane (its
Denjoy-Wolff point), and G_{X boxplus Y}(z) = G_X(omega_1(z)).  Because the
fixed point is unique, no continuation from far above the axis is needed to
pick the branch: every point of the Stieltjes-inversion grid is solved at
once, by Newton steps on w - T(w) with plain steps w <- T(w) as the fallback.
At the fixed point omega_2 = z + h_X(omega_1) satisfies
G_X(omega_1) = G_Y(omega_2), which the functional residual measures.
Stieltjes inversion of the resulting boundary values produces the output
measure.

The solver reads each input only through a (G, G') evaluator (see
`measures`): by default the cell kernel on the input measure
(`measures.cauchy_evaluator`), or one handed in, such as the closed forms of
`measures.named_cauchy`, which cost a few operations per point where the
kernel sums every grid cell.

The semicircle flow f_mu(s) = mu boxplus (semicircle of variance s) satisfies
the complex inviscid Burgers equation d_s G + G d_z G = 0 in the variance
variable s; parametrizing by the radius instead leaves a nonzero residual
(checked numerically on mu = delta_0, where both flows have closed forms).
`semicircle_flow_residual` therefore differentiates in s = r^2/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import InversionError, Measure, cauchy_evaluator, make_named
from .measures import moments as measure_moments
from .measures import stieltjes_invert
from .series import free_cumulants_from_moments, free_moments_from_cumulants

__all__ = [
    "ConvolutionResult",
    "ContinuationError",
    "SolverCounters",
    "free_convolve_cumulants",
    "free_convolve_moments",
    "free_convolve_analytic",
    "convolved_cauchy",
    "free_poisson",
    "free_clt",
    "semicircle_flow_residual",
]


# Subordination solve (see `_subordinate`).
ROUNDING = 2.0**-50  # relative rounding error assumed in each term of T(w)
SOLVE_TOL = 1e-12  # residual at which a point is done
ACCEPT_TOL = 1e-8  # largest residual accepted after a stall or at MAX_ROUNDS
STALL_ROUNDS = 8  # rounds without a new lowest residual that make a stall
FREE_ROUNDS = 40  # rounds in which every Newton step is taken
SWAP_ROUNDS = 32  # stall after which a point is solved with X and Y swapped
LAMBDA_MIN = 1.0 / 16.0  # smallest fraction of a Newton step tried
MAX_ROUNDS = 1000


class ContinuationError(RuntimeError):
    """The analytic solve did not converge; carries the offending point."""

    def __init__(self, message: str, z: complex):
        super().__init__(message)
        self.z = z


@dataclass
class SolverCounters:
    """Deterministic residuals and step counts of the subordination solve,
    filled in by the solve over every point of one convolution."""

    # worst relative fixed-point residual (|w - T(w)| + rounding)/(1 + |w|)
    residual: float = 0.0
    functional: float = 0.0  # worst |G_X(omega_1) - G_Y(omega_2)|/|G|
    iterations: int = 0  # most rounds any point took, both orders counted
    safeguarded_steps: int = 0  # damped or plain steps, summed over points
    worst_z: complex | None = None  # the point with the largest fixed-point residual

    def add(self, zs, residual, functional, rounds):
        """Take in the points ``zs`` that finished after ``rounds`` rounds."""
        k = int(np.argmax(residual))
        if self.worst_z is None or residual[k] > self.residual:
            self.residual = float(residual[k])
            self.worst_z = complex(zs[k])
        self.functional = max(self.functional, float(functional.max()))
        self.iterations = max(self.iterations, rounds)


@dataclass(frozen=True)
class ConvolutionResult:
    moments: tuple
    measure: Measure | None
    solver: SolverCounters
    # 1 minus the inverted measure's total mass before it is normalised
    mass_defect: float


def free_convolve_cumulants(kx, ky) -> list:
    """Moments of X boxplus Y from the free cumulants of X and Y, which add,
    up to the shorter order (exact on rationals)."""
    return free_moments_from_cumulants([a + b for a, b in zip(kx, ky)])


def free_convolve_moments(mx, my) -> list:
    """Moments of X boxplus Y from the moments of X and Y (exact on rationals)."""
    if len(mx) != len(my):
        raise ValueError(f"moment sequences differ in length: {len(mx)} vs {len(my)}")
    return free_convolve_cumulants(
        free_cumulants_from_moments(mx), free_cumulants_from_moments(my))


def _bounds(mu: Measure) -> tuple:
    lo = math.inf
    hi = -math.inf
    for loc, _ in mu.atoms:
        lo = min(lo, loc)
        hi = max(hi, loc)
    if mu.support is not None:
        lo = min(lo, mu.support[0])
        hi = max(hi, mu.support[1])
    return lo, hi


def _subordinate(
    z: np.ndarray, cauchy_x, cauchy_y, solver: SolverCounters, after: int = 0
) -> np.ndarray:
    """G of X boxplus Y at every point of z (Im z > 0), solved together.

    ``cauchy_x`` and ``cauchy_y`` are the (G, G') evaluators of X and Y.
    Returns G_X(w), w the fixed point of T(w) = z + h_Y(z + h_X(w)) with
    h = 1/G - id, iterated from w = z, and adds its residuals and step counts
    to ``solver``.  Each round evaluates every point still iterating at its
    trial iterate:

    * Steps.  The trial after an accepted one is the full Newton step on
      F(w) = w - T(w).  For ``FREE_ROUNDS`` rounds every trial is accepted:
      near a double root of F (two Bernoulli laws at z = 0) Newton converges
      while |F| first grows.  After that a trial is accepted only if it lowers
      |F|, else the step is halved.  The plain step w <- T(w) replaces a
      Newton step that leaves the upper half-plane or falls below
      ``LAMBDA_MIN``, and is always accepted: plain steps converge to the
      fixed point (Denjoy-Wolff), only slowly.
    * Residual.  (|F(w)| + e)/(1 + |w|), where e bounds the rounding error of
      T(w) at ``ROUNDING`` per term, so that rounding noise cannot pass for
      convergence.  It bounds the error of w relative to 1 + |w|, up to the
      conditioning 1/|1 - T'(w)|.
    * Done.  At a residual of ``SOLVE_TOL``, or of ``ACCEPT_TOL`` once the
      residual has stalled for ``STALL_ROUNDS`` rounds: where G is small one
      of the two subordination functions is huge, and rounding alone keeps
      the residual above ``SOLVE_TOL``.
    * Swap.  A point stalled for ``SWAP_ROUNDS`` rounds above ``ACCEPT_TOL``
      after ``FREE_ROUNDS``, or above it at ``MAX_ROUNDS``, is solved again as G_Y(omega_2), with X
      and Y swapped, ``after`` the rounds already spent: the rounding floor is
      lower in the order that iterates the smaller subordination function.
      In that order a point above ``ACCEPT_TOL`` at ``MAX_ROUNDS`` raises
      ContinuationError.
    """
    z = np.asarray(z, dtype=np.complex128).ravel()
    out = np.empty(z.shape, dtype=np.complex128)
    n = z.size
    idx = np.arange(n)  # points still iterating
    zs = w = base = t_base = z  # trial iterate, last accepted one, T there
    delta = np.zeros(n, dtype=np.complex128)  # Newton step from base
    f_base = np.full(n, np.inf)  # |F| at base
    lam = np.ones(n)
    plain = np.zeros(n, dtype=bool)
    r_low = np.full(n, np.inf)  # lowest residual so far
    stall = np.zeros(n, dtype=np.int64)  # rounds since it was reached
    for rounds in range(1, MAX_ROUNDS + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gx, gxp = cauchy_x(w)
            u = zs + 1.0 / gx - w
            gy, gyp = cauchy_y(u)
            tw = zs + 1.0 / gy - u
            dhx = -gxp / (gx * gx) - 1.0  # h_X'(w)
            dhy = -gyp / (gy * gy) - 1.0  # h_Y'(u)
            noise = np.abs(dhy) * (np.abs(1.0 / gx) + np.abs(w) + np.abs(zs))
            noise += np.abs(1.0 / gy) + np.abs(u) + np.abs(zs)
        fw = w - tw
        f_abs = np.abs(fw)
        r = (f_abs + ROUNDING * noise) / (1.0 + np.abs(w))
        stall = np.where(r < r_low, 0, stall + 1)
        r_low = np.minimum(r, r_low)
        done = (r <= SOLVE_TOL) | ((stall >= STALL_ROUNDS) & (r <= ACCEPT_TOL))
        stuck = ~done & (stall >= SWAP_ROUNDS) & (rounds > FREE_ROUNDS)
        if rounds == MAX_ROUNDS:
            done = r <= ACCEPT_TOL
            stuck = ~done
            if after and stuck.any():
                k = int(np.argmax(np.where(stuck, r, -1.0)))
                raise ContinuationError(
                    f"subordination did not converge at z = {complex(zs[k])} "
                    f"(residual {r[k]:.3e})",
                    complex(zs[k]),
                )
        if done.any():
            functional = np.abs(gx[done] - gy[done]) / np.abs(gx[done])
            solver.add(zs[done], r[done], functional, after + rounds)
            out[idx[done]] = gx[done]
        keep = ~done
        if not after and stuck.any():
            out[idx[stuck]] = _subordinate(zs[stuck], cauchy_y, cauchy_x, solver, after=rounds)
            keep &= ~stuck
        if rounds == MAX_ROUNDS or not keep.any():
            break
        accept = plain | (f_abs < f_base) | (rounds <= FREE_ROUNDS)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -fw / (1.0 - dhy * dhx)
            base = np.where(accept, w, base)
            t_base = np.where(accept, tw, t_base)
            f_base = np.where(accept, f_abs, f_base)
            delta = np.where(accept, step, delta)
            lam = np.where(accept, 1.0, 0.5 * lam)
            trial = base + lam * delta
        plain = ~(np.isfinite(trial) & (trial.imag > 0.0)) | (lam < LAMBDA_MIN)
        w = np.where(plain, t_base, trial)
        solver.safeguarded_steps += int(np.count_nonzero(keep & (plain | (lam < 1.0))))
        idx, zs, w, base, t_base = idx[keep], zs[keep], w[keep], base[keep], t_base[keep]
        delta, f_base, lam, plain = delta[keep], f_base[keep], lam[keep], plain[keep]
        r_low, stall = r_low[keep], stall[keep]
    return out


def convolved_cauchy(mu_x: Measure, mu_y: Measure, z) -> complex:
    """G of mu_x boxplus mu_y at one point z (Im z > 0), by subordination."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("convolved_cauchy needs Im z > 0")
    solved = _subordinate(
        np.array([z]), cauchy_evaluator(mu_x), cauchy_evaluator(mu_y), SolverCounters())
    return complex(solved[0])


def free_convolve_analytic(
    mu_x: Measure,
    mu_y: Measure,
    grid_size: int = 512,
    eta: float = 1e-3,
    n_moments: int = 6,
    cauchy_x=None,
    cauchy_y=None,
) -> ConvolutionResult:
    """Voiculescu's algorithm on measures; returns moments, measure, the
    solve's residuals and step counts, and the inverted measure's mass defect
    before normalisation.

    The solve reads X through ``cauchy_x``, a (G, G') evaluator of the same
    law as ``mu_x`` (`measures.named_cauchy` gives the named laws' closed
    forms); None takes the cell kernel on ``mu_x``.  Likewise for Y.  The
    measures themselves give the support hint and the quadrature moments.
    """
    for mu in (mu_x, mu_y):
        if mu.support is None and not mu.atoms:
            raise ValueError("input measure is empty")
    ax, bx = _bounds(mu_x)
    ay, by = _bounds(mu_y)
    a, b = ax + ay, bx + by
    pad = 0.1 * max(b - a, 1.0)
    solver = SolverCounters()
    cauchy_x = cauchy_x or cauchy_evaluator(mu_x)
    cauchy_y = cauchy_y or cauchy_evaluator(mu_y)

    def transform(zs: np.ndarray) -> np.ndarray:
        return _subordinate(zs, cauchy_x, cauchy_y, solver).reshape(zs.shape)

    raw = stieltjes_invert(transform, (a - pad, b + pad), grid_size=grid_size, eps=eta)
    missing = 1.0 - sum(m for _, m in raw.atoms)
    if missing > 1e-9 and not raw.samples.any():
        raise InversionError(
            f"inversion found atoms of total mass {1.0 - missing:.6g} and a zero "
            f"density, so mass {missing:.3g} is missing (eta={eta:g} too coarse?)"
        )
    measure = Measure(
        atoms=raw.atoms, support=raw.support, samples=raw.samples, edges=raw.edges, normalize=True
    )

    # moments beyond the float range overflow the recursion, whose entries
    # from then on are inf or an undetermined inf - inf = NaN, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        mom = free_convolve_moments(
            list(measure_moments(mu_x, n_moments)), list(measure_moments(mu_y, n_moments)))
    return ConvolutionResult(
        moments=tuple(float(v) for v in mom),
        measure=measure,
        solver=solver,
        mass_defect=1.0 - raw.total_mass(),
    )


def free_poisson(lam, alpha, n_copies: int, order: int) -> list:
    """Moments of mu_N^{boxplus N}, mu_N = (1-lam/N) delta_0 + (lam/N) delta_alpha.

    Exact: the free cumulants of the N-fold convolution are N times those of
    mu_N, whose moments are (lam/N) alpha^n.
    """
    lam = Fraction(lam)
    alpha = Fraction(alpha)
    if lam <= 0 or alpha <= 0:
        raise ValueError("lam and alpha must be positive")
    if n_copies <= lam:
        raise ValueError(f"need N > lam for mu_N to be a probability measure; got N={n_copies}")
    if order < 1:
        raise ValueError("order must be at least 1")
    m_single = [(lam / n_copies) * alpha**n for n in range(1, order + 1)]
    kappa = [n_copies * k for k in free_cumulants_from_moments(m_single)]
    return free_moments_from_cumulants(kappa)


def free_clt(m_base, n_copies: int, order: int | None = None) -> list:
    """Moments of (X_1 + ... + X_N)/sqrt(N) for freely independent copies.

    kappa_n scales by N^{1-n/2}; results stay exact rationals when every odd
    cumulant beyond the first vanishes or N is a perfect square, and fall back
    to floats otherwise.
    """
    if order is None:
        order = len(m_base)
    m_base = list(m_base)[:order]
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if len(m_base) < 2:
        raise ValueError("need moments up to order 2")
    if m_base[0] != 0:
        raise ValueError(f"base must be centered; m1 = {m_base[0]}")
    if m_base[1] != 1:
        raise ValueError(f"base must have unit variance; m2 = {m_base[1]}")
    kappa = free_cumulants_from_moments(m_base)
    root = math.isqrt(n_copies)
    exact_root = root * root == n_copies
    scaled = []
    exact = True
    for i, k in enumerate(kappa):
        n = i + 1
        if k == 0:
            scaled.append(k)
        elif n % 2 == 0:
            scaled.append(k * Fraction(1, n_copies) ** ((n - 2) // 2))
        elif exact_root:
            # N^{1-n/2} = root^{2-n}
            scaled.append(k * Fraction(1, root) ** (n - 2))
        else:
            exact = False
            scaled.append(float(k) * float(n_copies) ** (1 - n / 2))
    if not exact:
        scaled = [float(s) for s in scaled]
    return free_moments_from_cumulants(scaled)


def semicircle_flow_residual(mu: Measure, r: float, z: complex, h: float) -> complex:
    """Finite-difference Burgers residual d_s G + G d_z G of the semicircle flow.

    The flow member at radius r carries variance s = r^2/4, and s is the
    variable in which the PDE holds (see module docstring); both derivatives
    are second-order central differences with step h.
    """
    z = complex(z)
    r = float(r)
    h = float(h)
    if z.imag < 0.1:
        raise ValueError("need Im z >= 0.1")
    if r <= 0 or h <= 0:
        raise ValueError("r and h must be positive")
    s0 = r * r / 4.0
    if h >= s0:
        raise ValueError(f"step h={h} too large for flow variance {s0}")

    def g_at(s: float, zz: complex) -> complex:
        member = make_named("semicircle", 4096, r=2.0 * math.sqrt(s))
        return convolved_cauchy(mu, member, zz)

    g0 = g_at(s0, z)
    ds = (g_at(s0 + h, z) - g_at(s0 - h, z)) / (2.0 * h)
    dz = (g_at(s0, z + h) - g_at(s0, z - h)) / (2.0 * h)
    return ds + g0 * dz
