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

Newton starts at the subordination function of the free CLT's answer: the
semicircle sigma with the mean and variance of X boxplus Y.  It is in closed
form (Biane, "On the free convolution with a semi-circular distribution",
Indiana Univ. Math. J. 46, 1997):

    w_0(z) = z - kappa_1(Y) - kappa_2(Y) G_sigma(z),

exact when X and Y are both semicircles or Y is a point mass, and in the
upper half-plane with Im w_0 >= Im z, since kappa_2 >= 0 and Im G <= 0.

The output's atoms need no search: X boxplus Y has an atom at a + b exactly
when mu_X({a}) + mu_Y({b}) > 1, and its mass is the excess (Bercovici &
Voiculescu, "Regularity questions for free convolution", Oper. Theory Adv.
Appl. 104, 1998).  The solve gives G and, from the same Newton round, G'
at each point of one row t + i eta of the inversion grid (omega_1 is
analytic, so G' = G_X'(omega_1) omega_1' in closed form, see `_subordinate`).
The atoms' poles are subtracted from both, and `measures.stieltjes_invert`
reads the density off that single row as (eta Re G' - Im G)/pi, which
cancels the O(eta) smoothing with no second row.

Each input is a `measures.LawInput`: its atoms, the support of its
density, its low moments and its (G, G') evaluator.  Those give the
inversion's support hint, the output's atoms, the start's mean and variance,
the moments of the output by the float recursion, and every value of G the
solve reads.  A named law with a closed-form G gives them from its record
(`measures.named_input`): exact moments, and that G (for a law of atoms
alone, the pole sum of its atoms), which costs a few operations per point
where the cell kernel sums every grid cell.  A law without a closed-form G
enters as its cell `Measure`, which gives them from its own quadrature: its
moments (`measures.moments`) and the cell kernel
(`measures.cauchy_evaluator`).

The semicircle flow mu_s = mu boxplus (semicircle of variance s) satisfies
the complex inviscid Burgers equation d_s G + G d_z G = 0 in the variance s,
whose characteristics are straight lines: G_s(z + s G_mu(z)) = G_mu(z)
wherever Im(z + s G_mu(z)) > 0.  This is Biane's subordination
omega(z) = z - s G_s(z), read at z_s = z + s G_mu(z).
`semicircle_flow_residual` checks it by one solve at the one point z_s,
against the member semicircle's closed-form (G, G') from
`measures.named_cauchy`, so the residual is the solve's error alone: no
step in s or z, and no quadrature of the member.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from ._numpy import np
from .measures import LawInput, Measure, _edge_root, cauchy_evaluator, named_cauchy
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
    "free_poisson",
    "free_clt",
    "semicircle_flow_residual",
]


# Subordination solve (see `_subordinate`).
ROUNDING = 2.0**-50  # relative rounding error assumed in each term of T(w)
SOLVE_TOL = 1e-12  # residual at which a point is done
ACCEPT_TOL = 1e-8  # largest residual accepted after a stall or at MAX_ROUNDS
STALL_ROUNDS = 8  # rounds without a new lowest residual that make a stall
SWAP_ROUNDS = 32  # stall after which a point is solved with X and Y swapped
MAX_ROUNDS = 1000

# Smallest excess mass taken for an atom of a convolution: masses that sum to
# 1 in exact arithmetic can exceed it by rounding (0.7 + (1 - 0.7)).
ATOM_TOL = 1e-12


class ContinuationError(RuntimeError):
    """The analytic solve did not converge; carries the worst point ``z`` and
    the number of points that ``failed``."""

    def __init__(self, message: str, z: complex, failed: int = 1):
        super().__init__(message)
        self.z = z
        self.failed = failed


class SolverCounters:
    """Deterministic residuals and step counts of the subordination solve,
    filled in by the solve over every point of one convolution.  Two are
    equal when every counter is."""

    def __init__(self):
        # worst relative fixed-point residual (|w - T(w)| + rounding)/(1 + |w|)
        self.residual = 0.0
        self.functional = 0.0  # worst |G_X(omega_1) - G_Y(omega_2)|/|G|
        self.iterations = 0  # most rounds any point took, both orders counted
        self.safeguarded_steps = 0  # plain steps w <- T(w) taken for Newton, summed over points
        self.worst_z: complex | None = None  # the point with the largest fixed-point residual
        # rounds -> number of points that finished after that many, both orders counted
        self.rounds_finished = Counter()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def add(self, zs, residual, functional, rounds):
        """Take in the points ``zs`` that finished after ``rounds`` rounds."""
        k = int(np.argmax(residual))
        if self.worst_z is None or residual[k] > self.residual:
            self.residual = float(residual[k])
            self.worst_z = complex(zs[k])
        self.functional = max(self.functional, float(functional.max()))
        self.iterations = max(self.iterations, rounds)
        self.rounds_finished[rounds] += len(zs)

    @property
    def median_iterations(self) -> int:
        """The lower median of the rounds per finished point (0 before any)."""
        half = (self.rounds_finished.total() + 1) // 2
        seen = 0
        for rounds in sorted(self.rounds_finished):
            seen += self.rounds_finished[rounds]
            if seen >= half:
                return rounds
        return 0


class ConvolutionResult(NamedTuple):
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
    """Moments of X boxplus Y from the moments of X and Y (exact on rationals);
    X boxplus X, passed as one sequence twice, extracts its cumulants once."""
    if len(mx) != len(my):
        raise ValueError(f"moment sequences differ in length: {len(mx)} vs {len(my)}")
    kx = free_cumulants_from_moments(mx)
    return free_convolve_cumulants(kx, kx if my is mx else free_cumulants_from_moments(my))


def _bounds(mu: LawInput) -> tuple:
    lo = math.inf
    hi = -math.inf
    for loc, _ in mu.atoms:
        lo = min(lo, loc)
        hi = max(hi, loc)
    if mu.support is not None:
        lo = min(lo, mu.support[0])
        hi = max(hi, mu.support[1])
    return lo, hi


def _unit_semicircle(z: np.ndarray) -> np.ndarray:
    """G of the semicircle of variance 1, by the arithmetic of its record
    (`named_cauchy("semicircle", r=2.0)`), without its G'."""
    return 2.0 / (z + _edge_root(z, -2.0, 2.0))


def _free_clt_start(z: np.ndarray, x: tuple, y: tuple) -> np.ndarray:
    """The start w_0(z) = z - kappa_1(Y) - kappa_2(Y) G_sigma(z) of the solve
    (see the module docstring), from the (mean, variance) pairs ``x`` of X and
    ``y`` of Y; z itself when the summed variance is 0 or not finite.

    G_sigma is the unit semicircle's closed form (`_unit_semicircle`),
    scaled: a semicircle of variance s has G(z) = G_1(z / sqrt(s)) / sqrt(s),
    with no bound on s.
    """
    (mean_x, var_x), (mean_y, var_y) = x, y
    s = var_x + var_y
    if not 0.0 < s < math.inf:
        return z
    root = math.sqrt(s)
    return z - mean_y - var_y * (_unit_semicircle((z - (mean_x + mean_y)) / root) / root)


def _subordinate(
    z: np.ndarray, cauchy_x, cauchy_y, solver: SolverCounters, after: int = 0,
    failed: list | None = None, start: np.ndarray | None = None,
) -> tuple:
    """(G, G') of X boxplus Y at every point of z (Im z > 0), solved together.

    ``cauchy_x`` and ``cauchy_y`` are the (G, G') evaluators of X and Y.
    Returns the arrays G_X(w) and G_X'(w) omega_1'(z), w = omega_1(z) the
    fixed point of T(w) = z + h_Y(z + h_X(w)) with h = 1/G - id, iterated
    from ``start`` (an array like z in the upper half-plane, by default z
    itself; `free_convolve_analytic` passes the free CLT's subordination
    function of Biane (1997), see `_free_clt_start`), and adds its residuals
    and step counts to ``solver``.  Each round evaluates T and T' at the
    iterate of every point still iterating:

    * Steps.  The next iterate is the full Newton step on F(w) = w - T(w),
      w - F(w)/(1 - h_Y'(u) h_X'(w)) with u = z + h_X(w).  Where that step is
      not finite or leaves the upper half-plane, it is the plain step
      w <- T(w) instead: T maps the upper half-plane into itself, so plain
      steps converge to the fixed point (Denjoy-Wolff), only slowly.
    * Residual.  (|F(w)| + e)/(1 + |w|), where e bounds the rounding error of
      T(w) at ``ROUNDING`` per term, so that rounding noise cannot pass for
      convergence.  It bounds the error of w relative to 1 + |w|, up to the
      conditioning 1/|1 - T'(w)|.
    * Done.  At a residual of ``SOLVE_TOL``, or of ``ACCEPT_TOL`` once the
      residual has stalled for ``STALL_ROUNDS`` rounds: where G is small one
      of the two subordination functions is huge, and rounding alone keeps
      the residual above ``SOLVE_TOL``.
    * Derivative.  omega_1 is analytic, so differentiating w = T(w) in z
      gives omega_1' = (1 + h_Y'(u))/(1 - h_Y'(u) h_X'(w)).  A point's G' is
      G_X'(w) omega_1' from the G_X', h_X' and h_Y' of the round that
      finishes it, at the w whose G_X(w) it returns.
    * Swap.  A point stalled for ``SWAP_ROUNDS`` rounds above ``ACCEPT_TOL``,
      or above it at ``MAX_ROUNDS``, is solved again as G_Y(omega_2), with X
      and Y swapped, ``after`` the rounds already spent: the rounding floor is
      lower in the order that iterates the smaller subordination function.
      The swapped solve starts at z, and returns G_Y(omega_2) and
      G_Y'(omega_2) omega_2', by the same rule with X and Y exchanged.
      In that order a point above ``ACCEPT_TOL`` at ``MAX_ROUNDS`` has
      failed: it goes to the list ``failed`` as (z, residual), and once every
      other point is solved the call raises ContinuationError with their
      count and the worst of them.
    """
    z = np.asarray(z, dtype=np.complex128).ravel()
    out = np.empty(z.shape, dtype=np.complex128)
    out_p = np.empty(z.shape, dtype=np.complex128)
    if not after:
        failed = []
    n = z.size
    idx = np.arange(n)  # points still iterating
    zs = z
    w = z if start is None else np.asarray(start, dtype=np.complex128).ravel()
    az = np.abs(z)
    r_low = np.full(n, np.inf)  # lowest residual so far
    stall = np.zeros(n, dtype=np.int64)  # rounds since it was reached
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rounds in range(1, MAX_ROUNDS + 1):
            gx, gxp = cauchy_x(w)
            igx = 1.0 / gx
            u = zs + igx - w
            gy, gyp = cauchy_y(u)
            igy = 1.0 / gy
            tw = zs + igy - u
            dhx = -gxp / (gx * gx) - 1.0  # h_X'(w)
            dhy = -gyp / (gy * gy) - 1.0  # h_Y'(u)
            aw = np.abs(w)
            noise = np.abs(dhy) * (np.abs(igx) + aw + az)
            noise += np.abs(igy) + np.abs(u) + az
            fw = w - tw
            r = (np.abs(fw) + ROUNDING * noise) / (1.0 + aw)
            stall = np.where(r < r_low, 0, stall + 1)
            r_low = np.minimum(r, r_low)
            done = (r <= SOLVE_TOL) | ((stall >= STALL_ROUNDS) & (r <= ACCEPT_TOL))
            stuck = ~done & (stall >= SWAP_ROUNDS)
            if rounds == MAX_ROUNDS:
                done = r <= ACCEPT_TOL
                stuck = ~done
                if after:
                    failed += zip(zs[stuck], r[stuck])
            keep = None  # None while every point goes on iterating
            if done.any():
                g_done = gx[done]
                functional = np.abs(g_done - gy[done]) / np.abs(g_done)
                solver.add(zs[done], r[done], functional, after + rounds)
                out[idx[done]] = g_done
                dhy_done = dhy[done]
                out_p[idx[done]] = gxp[done] * (1.0 + dhy_done) / (1.0 - dhy_done * dhx[done])
                keep = ~done
            if not after and stuck.any():
                out[idx[stuck]], out_p[idx[stuck]] = _subordinate(
                    zs[stuck], cauchy_y, cauchy_x, solver, after=rounds, failed=failed)
                keep = ~(done | stuck)
            if rounds == MAX_ROUNDS or (keep is not None and not keep.any()):
                break
            w = w - fw / (1.0 - dhy * dhx)
            plain = ~(np.isfinite(w) & (w.imag > 0.0))
            if plain.any():
                w = np.where(plain, tw, w)
                if keep is not None:
                    plain &= keep
                solver.safeguarded_steps += int(np.count_nonzero(plain))
            if keep is not None:
                idx, zs, az, w = idx[keep], zs[keep], az[keep], w[keep]
                r_low, stall = r_low[keep], stall[keep]
    if not after and failed:
        z_bad, r_bad = max(failed, key=lambda point: point[1])
        raise ContinuationError(
            f"subordination did not converge at {len(failed)} point(s); the worst is "
            f"z = {complex(z_bad)} (residual {r_bad:.3e})",
            complex(z_bad),
            len(failed),
        )
    return out, out_p


def _as_input(mu) -> LawInput:
    """``mu`` as a `LawInput`: a `Measure` through its quadrature moments and
    its cell kernel; a `LawInput` as it is."""
    if isinstance(mu, LawInput):
        return mu
    return LawInput(atoms=mu.atoms, support=mu.support, cauchy=cauchy_evaluator(mu),
                    moments=lambda order: measure_moments(mu, order).tolist())


def free_convolve_analytic(
    mu_x: LawInput | Measure,
    mu_y: LawInput | Measure,
    grid_size: int = 512,
    eta: float = 1e-3,
    n_moments: int = 6,
) -> ConvolutionResult:
    """Voiculescu's algorithm on two inputs; returns moments, measure, the
    solve's residuals and step counts, and the inverted measure's mass defect
    before normalisation.

    Each input is a `measures.LawInput` (`measures.named_input` gives the
    named laws' closed forms) or a `Measure`, read through its quadrature
    moments and its cell kernel.  The inputs give the support hint, the
    atoms, the moments m_1..m_n_moments that the float recursion convolves,
    their mean and variance, which give the solve's start (see
    `_free_clt_start`), and the (G, G') evaluator that the solve reads (a
    caller that wants another evaluator of the same law passes a `LawInput`
    that carries it).  The output's atoms follow from the inputs' atoms (see
    the module docstring).  Each grid point at the single height ``eta``,
    positive and finite, is solved once, for G and G'; each atom's pole
    m/(z - a) is subtracted from G and its derivative from G' (m/(z - a)^2 is
    added), and `stieltjes_invert` inverts the rest into the density.  Atoms
    that carry the whole mass make the output, with no solve.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if n_moments < 1:
        raise ValueError(f"n_moments must be at least 1, got {n_moments}")
    for mu in (mu_x, mu_y):
        if mu.support is None and not mu.atoms:
            raise ValueError("input measure is empty")
    x = _as_input(mu_x)
    y = _as_input(mu_y)
    # no two pairs share a location: their masses would total more than 2
    atoms = tuple((a + b, ma + mb - 1.0) for a, ma in x.atoms for b, mb in y.atoms
                  if ma + mb - 1.0 > ATOM_TOL)
    missing = 1.0 - sum(m for _, m in atoms)
    # mu boxplus mu (one object on both sides) reads its moments once
    mx = x.moments(max(n_moments, 2))
    my = mx if mu_y is mu_x else y.moments(max(n_moments, 2))
    lx = mx[:n_moments]
    # moments beyond the float range overflow the recursion, whose entries
    # from then on are inf or an undetermined inf - inf = NaN: Python floats
    # give these without a warning
    moms = tuple(free_convolve_moments(lx, lx if my is mx else my[:n_moments]))
    solver = SolverCounters()
    if missing <= 1e-9:
        # the atoms carry the whole mass, so the output has no density
        return ConvolutionResult(moments=moms, measure=Measure(atoms=atoms), solver=solver,
                                 mass_defect=missing)

    ax, bx = _bounds(x)
    ay, by = _bounds(y)
    a, b = ax + ay, bx + by
    pad = 0.1 * max(b - a, 1.0)
    # (mean, variance): rounding can take m_2 - m_1^2 below 0
    clt_x, clt_y = ((m[0], max(m[1] - m[0] * m[0], 0.0)) for m in (mx, my))

    def transform(zs: np.ndarray) -> tuple:
        g, gp = _subordinate(zs, x.cauchy, y.cauchy, solver,
                             start=_free_clt_start(zs, clt_x, clt_y))
        for loc, mass in atoms:
            pole = mass / (zs - loc)
            g -= pole
            gp += pole / (zs - loc)
        return g, gp

    measure = stieltjes_invert(transform, (a - pad, b + pad), grid_size=grid_size, eps=eta,
                               atoms=atoms)
    return ConvolutionResult(
        moments=moms,
        measure=measure,
        solver=solver,
        mass_defect=1.0 - measure.raw_mass,
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


def semicircle_flow_residual(mu: LawInput | Measure, s: float, z: complex,
                             solver: SolverCounters) -> tuple:
    """The semicircle flow's characteristic at z, checked by one solve.

    Returns (z_s, |G_s(z_s) - G_mu(z)|/|G_mu(z)|), z_s = z + s G_mu(z) and
    G_s the G of mu boxplus (the semicircle of variance s), which the solve
    `_subordinate` gives at z_s against the member's closed form
    (`measures.named_cauchy`) and adds its counters to ``solver``.  ``mu`` is
    read as in `free_convolve_analytic`.  z must be finite with Im z >= 0.1,
    s positive and finite, and z_s in the upper half-plane.
    """
    z = complex(z)
    s = float(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag) and z.imag >= 0.1):
        raise ValueError(f"need a finite z with Im z >= 0.1, got {z}")
    if not 0 < s < math.inf:
        raise ValueError(f"flow variance s must be positive and finite, got {s}")
    mu = _as_input(mu)
    g = complex(mu.cauchy(np.array([z]))[0][0])
    z_s = z + s * g
    if not z_s.imag > 0:
        raise ValueError(f"the characteristic from z = {z} leaves the upper half-plane "
                         f"by s = {s} (z_s = {z_s})")
    member = named_cauchy("semicircle", r=2.0 * math.sqrt(s))
    g_s, _ = _subordinate(np.array([z_s]), mu.cauchy, member, solver)
    return z_s, abs(complex(g_s[0]) - g) / abs(g)
