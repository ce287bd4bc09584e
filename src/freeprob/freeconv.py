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

The free convolution power mu^{boxplus t}, t >= 1, has the one-law map

    T(w) = z/t + (1 - 1/t) F_mu(w),    F = 1/G,

whose fixed point omega gives F_{mu^{boxplus t}} = F_mu(omega) (Nica &
Speicher, Amer. J. Math. 118, 1996; Belinschi & Bercovici, 2004).  At t = 2
it is mu boxplus mu with omega_1 = omega_2 = omega, at one G evaluation per
round where the two-law map takes two (`free_power_analytic`).  Its Newton
step is damped: a step that leaves the upper half-plane goes 0.9 of the way
to the axis instead, which takes fewer rounds than falling back to T(w); the
two-law map keeps its plain fallback.  Both maps run on one Newton driver
(`_newton`): residual, stall, acceptance, restart and counters.

Newton starts at the subordination function of the free CLT's answer: the
semicircle sigma with the mean and variance of X boxplus Y.  It is in closed
form (Biane, "On the free convolution with a semi-circular distribution",
Indiana Univ. Math. J. 46, 1997):

    w_0(z) = z - kappa_1(Y) - kappa_2(Y) G_sigma(z),

exact when X and Y are both semicircles or Y is a point mass, and in the
upper half-plane with Im w_0 >= Im z, since kappa_2 >= 0 and Im G <= 0.  For
mu^{boxplus t}, Y is mu^{boxplus (t - 1)}, with cumulants (t - 1) kappa_n(mu).

The output's atoms need no search: X boxplus Y has an atom at a + b exactly
when mu_X({a}) + mu_Y({b}) > 1, and its mass is the excess (Bercovici &
Voiculescu, "Regularity questions for free convolution", Oper. Theory Adv.
Appl. 104, 1998); mu^{boxplus t} has one at t a where t mu({a}) - (t - 1)
is positive, of that mass.  The solve gives G and, from the same Newton
round, G' at each point of one row t + i eta of the inversion grid (omega
is analytic, so G' = G_mu'(omega) omega' in closed form, see `_newton`).
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
from typing import Callable, NamedTuple

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
    "free_power_analytic",
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
        self.iterations = 0  # most rounds any point took, both orders counted
        # damped or plain steps taken for Newton's, summed over points
        self.safeguarded_steps = 0
        self.worst_z: complex | None = None  # the point with the largest fixed-point residual
        # rounds -> number of points that finished after that many, both orders counted
        self.rounds_finished = Counter()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def add(self, zs, residual, rounds):
        """Take in the points ``zs`` that finished after ``rounds`` rounds."""
        k = int(np.argmax(residual))
        if self.worst_z is None or residual[k] > self.residual:
            self.residual = float(residual[k])
            self.worst_z = complex(zs[k])
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


class _TwoLaw(NamedTuple):
    """T(w) = z + h_Y(z + h_X(w)), h = 1/G - id, whose fixed point is
    omega_1(z) of X boxplus Y, from the (G, G') evaluators of X and Y, for
    `_newton`: plain steps, and a restart with X and Y swapped."""

    cauchy_x: Callable
    cauchy_y: Callable
    damped = False

    def restart(self):
        return _TwoLaw(self.cauchy_y, self.cauchy_x)

    def round(self, zs, az, w, aw):
        """(T(w), 1 - T'(w), rounding noise of T(w), state for `finish`);
        T'(w) = h_Y'(u) h_X'(w), u = z + h_X(w)."""
        gx, gxp = self.cauchy_x(w)
        igx = 1.0 / gx
        u = zs + igx - w
        gy, gyp = self.cauchy_y(u)
        igy = 1.0 / gy
        dhx = -gxp / (gx * gx) - 1.0  # h_X'(w)
        dhy = -gyp / (gy * gy) - 1.0  # h_Y'(u)
        noise = np.abs(dhy) * (np.abs(igx) + aw + az)
        noise += np.abs(igy) + np.abs(u) + az
        return zs + igy - u, 1.0 - dhy * dhx, noise, (gx, gxp, dhy)

    def finish(self, state, done, slope):
        """G_X(w) and G_X'(w) omega_1', omega_1' = (1 + h_Y'(u))/(1 - T'(w)),
        at the points ``done``."""
        gx, gxp, dhy = state
        return gx[done], gxp[done] * (1.0 + dhy[done]) / slope[done]


class _Power(NamedTuple):
    """T(w) = z/t + (1 - 1/t) F(w), F = 1/G_mu, whose fixed point is the
    omega(z) of mu^{boxplus t}, t >= 1, from the (G, G') evaluator of mu, for
    `_newton`: damped steps, and a restart with plain ones."""

    cauchy: Callable
    t: float
    damped: bool = True

    def restart(self):
        return self._replace(damped=False)

    def round(self, zs, az, w, aw):
        """As `_TwoLaw.round`, with T'(w) = (1 - 1/t) F'(w), F' = -G'/G^2."""
        g, gp = self.cauchy(w)
        f = 1.0 / g
        c = 1.0 - 1.0 / self.t
        noise = aw + az / self.t + c * np.abs(f)
        return zs / self.t + c * f, 1.0 + c * gp / (g * g), noise, (g, gp)

    def finish(self, state, done, slope):
        """G_mu(w) and G_mu'(w) omega', omega' = (1/t)/(1 - T'(w)), at the
        points ``done``."""
        g, gp = state
        return g[done], gp[done] * (1.0 / self.t) / slope[done]


def _newton(z: np.ndarray, fmap, solver: SolverCounters, start: np.ndarray | None = None,
            after: int = 0, failed: list | None = None) -> tuple:
    """(G, G') at every point of z (Im z > 0), solved together by Newton on
    F(w) = w - T(w), T the map ``fmap`` (`_TwoLaw` or `_Power`).

    Iterates from ``start`` (an array like z in the upper half-plane, by
    default z itself) and adds its residuals and step counts to ``solver``.
    Each round evaluates T and 1 - T' at the iterate of every point still
    iterating (``fmap.round``):

    * Steps.  The next iterate is the full Newton step w - F(w)/(1 - T'(w)).
      Where that step is not finite or leaves the upper half-plane, a map
      with plain steps takes w <- T(w) instead: T maps the upper half-plane
      into itself, so plain steps converge to the fixed point
      (Denjoy-Wolff), only slowly.  A damped map goes 0.9 of the way to the
      axis along the Newton step, and takes w <- T(w) only where that is not
      finite.  Both kinds count as safeguarded steps.
    * Residual.  (|F(w)| + e)/(1 + |w|), where e bounds the rounding error of
      T(w) at ``ROUNDING`` per term, so that rounding noise cannot pass for
      convergence.  It bounds the error of w relative to 1 + |w|, up to the
      conditioning 1/|1 - T'(w)|.
    * Done.  At a residual of ``SOLVE_TOL``, or of ``ACCEPT_TOL`` once the
      residual has stalled for ``STALL_ROUNDS`` rounds: where G is small a
      subordination function is huge, and rounding alone keeps the residual
      above ``SOLVE_TOL``.
    * Derivative.  omega is analytic, so differentiating w = T(w) in z gives
      omega' = (d_z T)/(1 - T'(w)), with the 1 - T' of the Newton step.  A
      point's G and G' come from the round that finishes it
      (``fmap.finish``), at the w whose G it returns.
    * Restart.  A point stalled for ``SWAP_ROUNDS`` rounds above
      ``ACCEPT_TOL``, or above it at ``MAX_ROUNDS``, is solved again from z
      by ``fmap.restart()`` ``after`` the rounds already spent: for two laws,
      with X and Y swapped, as G_Y(omega_2) and G_Y'(omega_2) omega_2',
      since the rounding floor is lower in the order that iterates the
      smaller subordination function; for a power, with plain steps, since
      damped steps can keep a point near the axis where plain ones reach the
      fixed point.  In that solve a point above ``ACCEPT_TOL`` at
      ``MAX_ROUNDS`` has failed: it goes to the list ``failed`` as (z,
      residual), and once every other point is solved the call raises
      ContinuationError with their count and the worst of them.
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
            aw = np.abs(w)
            tw, slope, noise, state = fmap.round(zs, az, w, aw)
            fw = w - tw
            r = (np.abs(fw) + ROUNDING * noise) / (1.0 + aw)
            stall = np.where(r < r_low, 0, stall + 1)
            r_low = np.minimum(r, r_low)
            # stall counts at most rounds - 1, so each stall clause is
            # built only once it can hold
            stuck = None
            if rounds == MAX_ROUNDS:
                done = r <= ACCEPT_TOL
                stuck = ~done
                if after:
                    failed += zip(zs[stuck], r[stuck])
            else:
                done = r <= SOLVE_TOL
                if rounds > STALL_ROUNDS:
                    done |= (stall >= STALL_ROUNDS) & (r <= ACCEPT_TOL)
                if rounds > SWAP_ROUNDS:
                    stuck = ~done & (stall >= SWAP_ROUNDS)
            keep = None  # None while every point goes on iterating
            if done.any():
                out[idx[done]], out_p[idx[done]] = fmap.finish(state, done, slope)
                solver.add(zs[done], r[done], after + rounds)
                keep = ~done
            if not after and stuck is not None and stuck.any():
                out[idx[stuck]], out_p[idx[stuck]] = _newton(
                    zs[stuck], fmap.restart(), solver, after=rounds, failed=failed)
                keep = ~(done | stuck)
            if rounds == MAX_ROUNDS or (keep is not None and not keep.any()):
                break
            step = fw / slope
            w_next = w - step
            guard = ~(np.isfinite(w_next) & (w_next.imag > 0.0))
            if guard.any():
                if fmap.damped:
                    # where guarded and finite, Im step >= Im w > 0
                    w_next = np.where(guard, w - (0.9 * w.imag / step.imag) * step, w_next)
                    w_next = np.where(np.isfinite(w_next), w_next, tw)
                else:
                    w_next = np.where(guard, tw, w_next)
                if keep is not None:
                    guard &= keep
                solver.safeguarded_steps += int(np.count_nonzero(guard))
            w = w_next
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


def _subordinate(z: np.ndarray, cauchy_x, cauchy_y, solver: SolverCounters,
                 start: np.ndarray | None = None) -> tuple:
    """(G, G') of X boxplus Y at every point of z (Im z > 0) from the (G, G')
    evaluators of X and Y: G_X(omega_1) and G_X'(omega_1) omega_1', by
    `_newton` on `_TwoLaw` from ``start`` (`free_convolve_analytic` passes
    the free CLT's subordination function of Biane (1997), see
    `_free_clt_start`)."""
    return _newton(z, _TwoLaw(cauchy_x, cauchy_y), solver, start)


def _power_subordinate(z: np.ndarray, cauchy, t: float, solver: SolverCounters,
                       start: np.ndarray | None = None) -> tuple:
    """(G, G') of mu^{boxplus t}, t >= 1, at every point of z (Im z > 0) from
    the (G, G') evaluator of mu: G_mu(omega) and G_mu'(omega) omega', by
    `_newton` on `_Power` from ``start``."""
    return _newton(z, _Power(cauchy, float(t)), solver, start)


def _as_input(mu) -> LawInput:
    """``mu`` as a `LawInput`: a `Measure` through its quadrature moments and
    its cell kernel; a `LawInput` as it is."""
    if isinstance(mu, LawInput):
        return mu
    return LawInput(atoms=mu.atoms, support=mu.support, cauchy=cauchy_evaluator(mu),
                    moments=lambda order: measure_moments(mu, order).tolist())


def _check_analytic(inputs: tuple, grid_size: int, eta: float, n_moments: int):
    """The analytic routes' rules on their inputs and settings (ValueError)."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if n_moments < 1:
        raise ValueError(f"n_moments must be at least 1, got {n_moments}")
    for mu in inputs:
        if mu.support is None and not mu.atoms:
            raise ValueError("input measure is empty")


def _mean_variance(m: list) -> tuple:
    """(mean, variance) from m_1, m_2: rounding can take m_2 - m_1^2 below 0."""
    return m[0], max(m[1] - m[0] * m[0], 0.0)


def _invert(solve, atoms: tuple, moms: tuple, hint: tuple, grid_size: int,
            eta: float) -> ConvolutionResult:
    """The analytic route's result: the output ``atoms`` alone when they
    carry the whole mass, else the density that `stieltjes_invert` reads off
    ``solve``'s (G, G') at height ``eta`` on the support ``hint``, padded,
    after each atom's pole is subtracted."""
    solver = SolverCounters()
    missing = 1.0 - sum(m for _, m in atoms)
    if missing <= 1e-9:
        # the atoms carry the whole mass, so the output has no density
        return ConvolutionResult(moments=moms, measure=Measure(atoms=atoms), solver=solver,
                                 mass_defect=missing)
    a, b = hint
    pad = 0.1 * max(b - a, 1.0)

    def transform(zs: np.ndarray) -> tuple:
        g, gp = solve(zs, solver)
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
    that carry the whole mass make the output, with no solve.  The two-law
    map solves mu boxplus mu too, whether or not one object is on both
    sides; `free_power_analytic` solves it with one evaluation of G per
    round.
    """
    _check_analytic((mu_x, mu_y), grid_size, eta, n_moments)
    x = _as_input(mu_x)
    y = _as_input(mu_y)
    # no two pairs share a location: their masses would total more than 2
    atoms = tuple((a + b, ma + mb - 1.0) for a, ma in x.atoms for b, mb in y.atoms
                  if ma + mb - 1.0 > ATOM_TOL)
    # mu boxplus mu (one object on both sides) reads its moments once
    mx = x.moments(max(n_moments, 2))
    my = mx if mu_y is mu_x else y.moments(max(n_moments, 2))
    lx = mx[:n_moments]
    # moments beyond the float range overflow the recursion, whose entries
    # from then on are inf or an undetermined inf - inf = NaN: Python floats
    # give these without a warning
    moms = tuple(free_convolve_moments(lx, lx if my is mx else my[:n_moments]))
    clt_x, clt_y = _mean_variance(mx), _mean_variance(my)
    (ax, bx), (ay, by) = _bounds(x), _bounds(y)

    def solve(zs: np.ndarray, solver: SolverCounters) -> tuple:
        return _subordinate(zs, x.cauchy, y.cauchy, solver,
                            start=_free_clt_start(zs, clt_x, clt_y))

    return _invert(solve, atoms, moms, (ax + ay, bx + by), grid_size, eta)


def free_power_analytic(
    mu: LawInput | Measure,
    t: float,
    grid_size: int = 512,
    eta: float = 1e-3,
    n_moments: int = 6,
) -> ConvolutionResult:
    """`free_convolve_analytic` for the free convolution power mu^{boxplus t},
    t >= 1 and finite, by the one-law map `_Power` (see the module
    docstring); at t = 2 it is mu boxplus mu.

    The input is read as there, once.  The output has an atom at t a for
    each atom (a, m) of mu with t m - (t - 1) > ``ATOM_TOL``, of that mass;
    the support hint is t [lo, hi]; the moments are the float recursion on
    t kappa_n(mu); the start is the free CLT's, from the semicircle of mean
    t kappa_1 and variance t kappa_2.
    """
    t = float(t)
    if not 1.0 <= t < math.inf:
        raise ValueError(f"the power t must be at least 1 and finite, got {t}")
    _check_analytic((mu,), grid_size, eta, n_moments)
    x = _as_input(mu)
    atoms = tuple((t * a, t * m - (t - 1.0)) for a, m in x.atoms if t * m - (t - 1.0) > ATOM_TOL)
    mx = x.moments(max(n_moments, 2))
    moms = tuple(free_moments_from_cumulants(
        [t * k for k in free_cumulants_from_moments(mx[:n_moments])]))
    k1, k2 = _mean_variance(mx)
    lo, hi = _bounds(x)

    def solve(zs: np.ndarray, solver: SolverCounters) -> tuple:
        start = _free_clt_start(zs, (k1, k2), ((t - 1.0) * k1, (t - 1.0) * k2))
        return _power_subordinate(zs, x.cauchy, t, solver, start=start)

    return _invert(solve, atoms, moms, (t * lo, t * hi), grid_size, eta)


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
    read as in `free_convolve_analytic`.  z must be finite with Im z > 0, s
    positive and finite, and z_s in the upper half-plane.
    """
    z = complex(z)
    s = float(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag) and z.imag > 0):
        raise ValueError(f"need a finite z with Im z > 0, got {z}")
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
