"""Probability measures on the real line: atoms plus gridded densities.

A `Measure` carries point masses and an optional density sampled on a uniform
grid.  Edges behaving like a power of the distance x to the support endpoint
are marked per side: ``"invsqrt"`` (arcsine-type blowup ~ x^-1/2), ``"sqrt"``
(semicircle-type vanishing ~ x^1/2), or ``"regular"`` (smooth).  For the two
singular models the outermost band of cells is integrated in the substituted
variable y = sqrt(x), where the integrand is smooth, instead of trusting the
trapezoid rule on a fractional power.  Interior cells use plain trapezoid
weights for real integrals and an exact piecewise-linear formula for the
Cauchy transform, which stays accurate for Im z far below the grid spacing.

Named laws, with their parameters and defaults in one table: semicircle(r=2),
arcsine, bernoulli, marchenko_pastur(lam=1, alpha=1), sato_tate, point(c=0).
`resolve_law` checks a law's parameters.  The table's other columns are:

* `make_named`: the gridded cell density and its edge model;
* `named_moments`: the exact Fraction moments;
* `named_cumulants`: the exact Fraction free cumulants;
* `named_cauchy`: a (G, G') evaluator.  Semicircle, arcsine and
  Marchenko-Pastur have closed forms in the root s = sqrt(z - a) sqrt(z - b)
  of their support [a, b], a product of principal roots, so the cut is the
  support and s ~ z at infinity.  Each is written so that nothing cancels far
  from the support: semicircle G = 2/(z + s), arcsine G = 1/s, and
  Marchenko-Pastur G = 2/(z + alpha(1 - lam) + s) (or its conjugate form near
  its atom at 0).  Bernoulli and point masses have none: their own
  `cauchy_evaluator` is already an exact pole sum.  Sato-Tate has no
  elementary G, so it has no evaluator and no rational moments or cumulants.

A `Measure` is built once into the one form that its Cauchy transform,
moments and mass are read from: point masses ``_weights`` at ``_poles`` (the
atoms, then the nodes of the singular edge bands), the density's nodes
``_t``, ``_f`` between the bands (empty without a density) and their
trapezoid weights ``_tw``.  Any measure's
own evaluator is `cauchy_evaluator`, the kernel `_kernels.cauchy_many` on
that form.  An evaluator maps a 1-d complex array z to the arrays
(G(z), G'(z)).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _kernels, series

__all__ = [
    "Measure",
    "InversionError",
    "NAMED_TAGS",
    "resolve_law",
    "make_named",
    "named_moments",
    "named_cumulants",
    "named_cauchy",
    "moments",
    "cauchy",
    "cauchy_evaluator",
    "stieltjes_invert",
    "to_json",
    "from_json",
    "to_csv",
    "support_radius",
]

# Each named law's parameters and their defaults.
_LAW_PARAMS = {
    "semicircle": {"r": 2.0},
    "arcsine": {},
    "bernoulli": {},
    "marchenko_pastur": {"lam": 1.0, "alpha": 1.0},
    "sato_tate": {},
    "point": {"c": 0.0},
}
_POSITIVE = ("r", "lam", "alpha")  # parameters that must exceed 0
# ... and lie in this range: far outside it the cell densities under- or
# overflow (r = 1e-300 squares to 0; at r = 1e-150 the edge bands overflow)
_RANGE = (1e-100, 1e100)
NAMED_TAGS = tuple(_LAW_PARAMS)

# Largest relative gap between a density's mass on its grid's actual cells,
# which the Cauchy kernel integrates over, and its mass on cells of the
# nominal width (b - a)/(G - 1), which `moments` and `total_mass` read.  A
# support narrow next to its distance from 0 holds few floats, so its grid
# points round unevenly or coincide.
_MASS_RTOL = 1e-9


class InversionError(RuntimeError):
    """Stieltjes inversion produced a significantly negative density, or a
    measure that misses part of the unit mass."""


@dataclass
class Measure:
    """Atoms plus an optional uniform-grid density on [a, b].

    ``edges`` marks each side of the support as "regular", "sqrt" or "invsqrt".
    With ``normalize=True`` the density samples are rescaled so the measure's
    own quadrature rule integrates to exactly 1 - (atom mass); inversion
    output skips this so that mass defects stay visible to the caller.
    """

    atoms: tuple = ()
    support: tuple | None = None
    samples: np.ndarray | None = None
    edges: tuple = ("regular", "regular")
    normalize: bool = True

    def __post_init__(self):
        self.atoms = tuple((float(l), float(m)) for l, m in self.atoms)
        for _, m in self.atoms:
            if not (0.0 < m <= 1.0 + 1e-12):
                raise ValueError(f"atom mass {m} outside (0, 1]")
        if (self.support is None) != (self.samples is None):
            raise ValueError("support and samples must be given together")
        if self.samples is not None:
            a, b = float(self.support[0]), float(self.support[1])
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"bad support [{a}, {b}]")
            self.support = (a, b)
            self.samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
            if self.samples.ndim != 1 or self.samples.size < 2:
                raise ValueError("density needs at least 2 samples")
            if np.any(self.samples < 0.0):
                raise ValueError("density samples must be non-negative")
            if np.any(~np.isfinite(self.samples)):
                raise ValueError("density samples must be finite")
        for side in self.edges:
            if side not in ("regular", "sqrt", "invsqrt"):
                raise ValueError(f"unknown edge model {side!r}")
        self.edges = tuple(self.edges)
        self._build()

    # -- the decomposed form ------------------------------------------------

    def _build(self):
        """Point masses ``_weights`` at ``_poles`` (the atoms, then the edge
        bands' nodes), the density's nodes ``_t``, ``_f`` between the bands
        and their trapezoid weights ``_tw``."""
        locs = np.array([l for l, _ in self.atoms], dtype=np.float64)
        masses = np.array([m for _, m in self.atoms], dtype=np.float64)
        atom_mass = float(masses.sum())
        S = W = t = f = tw = np.empty(0)
        if self.samples is None:
            if self.normalize and abs(atom_mass - 1.0) > 1e-9:
                raise ValueError(f"atom masses sum to {atom_mass}, not 1")
        else:
            a, b = self.support
            G = self.samples.size
            h = (b - a) / (G - 1)
            t = np.linspace(a, b, G)
            if not np.diff(t).min() > 0.0:
                raise ValueError(f"support [{a!r}, {b!r}] is too narrow for {G} distinct "
                                 "grid points")
            f = self.samples.copy()

            n_band = max(8, G // 128)
            n_band = min(n_band, (G - 1) // 3)
            lo, hi = 0, G - 1
            bands = []
            if self.edges[0] != "regular":
                lo = n_band
                bands.append(self._band_nodes(a, h, n_band, f[: n_band + 1], +1.0, self.edges[0]))
            if self.edges[1] != "regular":
                hi = G - 1 - n_band
                bands.append(self._band_nodes(b, h, n_band, f[::-1][: n_band + 1], -1.0,
                                              self.edges[1]))
            if bands:
                S = np.concatenate([s for s, _ in bands])
                W = np.concatenate([w for _, w in bands])

            cell_f = 0.5 * h * (f[lo:hi] + f[lo + 1 : hi + 1])
            cont_mass = float(cell_f.sum() + W.sum())
            if self.normalize:
                target = 1.0 - atom_mass
                if target < -1e-12:
                    raise ValueError("atom masses exceed 1")
                target = max(target, 0.0)
                if cont_mass > 0.0:
                    scale = target / cont_mass
                    f *= scale
                    W *= scale
                    self.samples = f
                elif abs(target) > 1e-9:
                    raise ValueError("zero density cannot carry the remaining mass")
            t, f = t[lo : hi + 1], f[lo : hi + 1]
            tw = h * f
            tw[[0, -1]] *= 0.5
            # the kernel integrates over the cells that linspace gives, which
            # round unevenly where the support is narrow next to its distance
            # from 0; their widths still telescope to the support's
            cont_mass = float(tw.sum() + W.sum())
            kernel_mass = float(np.sum(0.5 * np.diff(t) * (f[:-1] + f[1:])) + W.sum())
            if not abs(kernel_mass - cont_mass) <= _MASS_RTOL * (abs(atom_mass) + abs(cont_mass)):
                raise ValueError(f"support [{a!r}, {b!r}] is too narrow for {G} grid points: "
                                 f"their cells hold mass {kernel_mass!r}, not {cont_mass!r}")
        self._poles = np.concatenate([locs, S])
        self._weights = np.concatenate([masses, W])
        self._t, self._f, self._tw = t, f, tw

    @staticmethod
    def _band_nodes(edge, h, n_band, f_side, orient, model):
        """Sub-cell quadrature for one singular edge band.

        Writes the band density as C(x)*x^p, x = distance from the edge and
        p = -1/2 ("invsqrt") or +1/2 ("sqrt"), with C piecewise linear through
        C_k = f_k*x_k^(-p); substituting x = y^2 turns ∫ f g dx into
        ∫ 2 C(y²) y^(2p+1) g dy with a smooth integrand, which a fine
        trapezoid rule in y handles.  Returns nodes on the t axis and weights
        for ∫ f·g ≈ Σ W g(S).
        """
        x_nodes = h * np.arange(n_band + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            if model == "invsqrt":
                c_nodes = f_side * np.sqrt(x_nodes)
            else:
                c_nodes = f_side / np.sqrt(x_nodes)
        c_nodes[0] = max(2.0 * c_nodes[1] - c_nodes[2], 0.0)
        m_sub = 8 * n_band
        y = np.linspace(0.0, math.sqrt(n_band * h), m_sub + 1)
        c_y = np.interp(y * y, x_nodes, c_nodes)
        wy = np.full(m_sub + 1, y[1] - y[0])
        wy[0] *= 0.5
        wy[-1] *= 0.5
        S = edge + orient * y * y
        if model == "invsqrt":
            W = 2.0 * c_y * wy
        else:
            W = 2.0 * c_y * y * y * wy
        return S, W

    # -- convenience --------------------------------------------------------

    @property
    def grid(self):
        if self.support is None:
            return None
        return np.linspace(self.support[0], self.support[1], self.samples.size)

    def total_mass(self) -> float:
        return float(self._weights.sum()) + float(self._tw.sum())


def resolve_law(law: str, **params) -> dict:
    """A named law's parameters as floats, defaults filled in and checked.

    >>> resolve_law("marchenko_pastur", lam=0.5)
    {'lam': 0.5, 'alpha': 1.0}
    """
    defaults = _LAW_PARAMS.get(law)
    if defaults is None:
        raise ValueError(f"unknown law {law!r}; expected one of {NAMED_TAGS}")
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(f"unexpected parameters for {law}: {extra}")
    p = {key: float(params.get(key, default)) for key, default in defaults.items()}
    for key, value in p.items():
        if not math.isfinite(value):
            raise ValueError(f"{law} parameter {key} must be finite, got {value}")
        if key in _POSITIVE and value <= 0:
            raise ValueError(f"{law} parameter {key} must be positive, got {value}")
        if key in _POSITIVE and not _RANGE[0] <= value <= _RANGE[1]:
            raise ValueError(f"{law} parameter {key} must lie in [{_RANGE[0]:g}, {_RANGE[1]:g}], "
                             f"got {value}")
    return p


def _mp_support(lam: float, alpha: float) -> tuple:
    """Ends of the Marchenko-Pastur density's support."""
    return alpha * (1.0 - math.sqrt(lam)) ** 2, alpha * (1.0 + math.sqrt(lam)) ** 2


def make_named(law: str, grid_size: int = 2048, **params) -> Measure:
    """A named law's density sampled on `grid_size` points, with its edge model."""
    p = resolve_law(law, **params)
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")

    if law == "semicircle":
        r = p["r"]
        t = np.linspace(-r, r, grid_size)
        dens = (2.0 / (math.pi * r * r)) * np.sqrt(np.maximum(r * r - t * t, 0.0))
        return Measure(support=(-r, r), samples=dens, edges=("sqrt", "sqrt"))

    if law == "arcsine":
        t = np.linspace(-2.0, 2.0, grid_size)
        dens = np.zeros_like(t)
        inner = slice(1, -1)
        dens[inner] = 1.0 / (math.pi * np.sqrt(4.0 - t[inner] ** 2))
        return Measure(support=(-2.0, 2.0), samples=dens, edges=("invsqrt", "invsqrt"))

    if law == "bernoulli":
        return Measure(atoms=((-1.0, 0.5), (1.0, 0.5)))

    if law == "marchenko_pastur":
        lam, alpha = p["lam"], p["alpha"]
        t_lo, t_hi = _mp_support(lam, alpha)
        t = np.linspace(t_lo, t_hi, grid_size)
        rad = 4.0 * lam * alpha * alpha - (t - alpha * (1.0 + lam)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.sqrt(np.maximum(rad, 0.0)) / (2.0 * math.pi * alpha * t)
        dens[~np.isfinite(dens)] = 0.0
        dens[dens < 0.0] = 0.0
        atoms = ()
        if lam < 1.0:
            atoms = ((0.0, 1.0 - lam),)
        left = "invsqrt" if abs(lam - 1.0) < 1e-12 else "sqrt"
        if left == "invsqrt":
            dens[0] = 0.0
        return Measure(atoms=atoms, support=(t_lo, t_hi), samples=dens, edges=(left, "sqrt"))

    if law == "sato_tate":
        t = np.linspace(0.0, math.pi, grid_size)
        dens = (2.0 / math.pi) * np.sin(t) ** 2
        return Measure(support=(0.0, math.pi), samples=dens)

    return Measure(atoms=((p["c"], 1.0),))  # point


def named_moments(law: str, order: int, **params) -> list | None:
    """Exact moments m_1..m_order of a named law, as Fractions of its float
    parameters; None for sato_tate, whose moments are not rational.

    >>> [str(m) for m in named_moments("arcsine", 6)]
    ['0', '2', '0', '6', '0', '20']
    """
    p = resolve_law(law, **params)
    ns = range(1, order + 1)
    if law == "bernoulli":
        return [Fraction(0 if n % 2 else 1) for n in ns]
    if law == "arcsine":
        return [Fraction(0 if n % 2 else math.comb(n, n // 2)) for n in ns]
    if law == "point":
        return [Fraction(p["c"]) ** n for n in ns]
    if law == "semicircle":
        half = Fraction(p["r"]) / 2
        return [Fraction(0) if n % 2 else half**n * (math.comb(n, n // 2) // (n // 2 + 1)) for n in ns]
    if law == "marchenko_pastur":
        return series.free_moments_from_cumulants(named_cumulants(law, order, **p))
    return None  # sato_tate


def named_cumulants(law: str, order: int, **params) -> list | None:
    """Exact free cumulants kappa_1..kappa_order of a named law, as Fractions
    of its float parameters; None for sato_tate.

    Bernoulli has kappa_2n = (-1)^(n-1) Cat(n-1) and no odd cumulants, and
    arcsine = Bernoulli boxplus Bernoulli has twice those.

    >>> [str(k) for k in named_cumulants("bernoulli", 8)]
    ['0', '1', '0', '-1', '0', '2', '0', '-5']
    """
    p = resolve_law(law, **params)
    ns = range(1, order + 1)
    zero = Fraction(0)
    if law in ("bernoulli", "arcsine"):
        scale = 2 if law == "arcsine" else 1
        return [zero if n % 2 else
                Fraction(scale * (-1) ** (n // 2 - 1) * math.comb(n - 2, n // 2 - 1) // (n // 2))
                for n in ns]
    if law == "point":
        return [Fraction(p["c"]) if n == 1 else zero for n in ns]
    if law == "semicircle":
        return [(Fraction(p["r"]) / 2) ** 2 if n == 2 else zero for n in ns]
    if law == "marchenko_pastur":
        lam, alpha = Fraction(p["lam"]), Fraction(p["alpha"])
        return [lam * alpha**n for n in ns]
    return None  # sato_tate


def _edge_root(z, a: float, b: float):
    """sqrt(z - a) sqrt(z - b) with principal roots: cut on [a, b], ~ z at infinity."""
    return np.sqrt(z - a) * np.sqrt(z - b)


def named_cauchy(law: str, **params) -> Callable | None:
    """A named law's closed-form (G, G') evaluator, exact up to rounding.

    The evaluator takes a 1-d complex array z off the support and returns
    the arrays (G(z), G'(z)); see the module docstring for the forms.  None
    for bernoulli and point, whose own `cauchy_evaluator` is exact, and for
    sato_tate, which has no elementary G.
    """
    p = resolve_law(law, **params)
    if law == "semicircle":
        r = p["r"]

        def evaluate(z):
            s = _edge_root(z, -r, r)
            g = 2.0 / (z + s)
            return g, -g / s

    elif law == "arcsine":

        def evaluate(z):
            g = 1.0 / _edge_root(z, -2.0, 2.0)
            return g, -z * g**3

    elif law == "marchenko_pastur":
        lam, alpha = p["lam"], p["alpha"]
        a, b = _mp_support(lam, alpha)
        shift = alpha * (1.0 - lam)

        def evaluate(z):
            # G = (q - s)/(2 alpha z) = 2/(q + s), as (q - s)(q + s) = 4 alpha z;
            # take the form whose denominator does not cancel (q - s near the
            # atom at 0 when lam < 1, q + s elsewhere)
            s = _edge_root(z, a, b)
            q = z + shift
            plus, minus = q + s, q - s
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(np.abs(plus) >= np.abs(minus), 2.0 / plus, minus / (2.0 * alpha * z))
            return g, g * (alpha * g - 1.0) / s

    else:
        return None  # bernoulli, point, sato_tate
    return evaluate


def moments(mu: Measure, n_max: int) -> np.ndarray:
    """Moments m_1..m_n_max (index i holds m_{i+1})."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p, w, t, tw = mu._poles, mu._weights, mu._t, mu._tw
    return np.array([float(np.sum(w * p**n)) + float(np.sum(tw * t**n))
                     for n in range(1, n_max + 1)])


def cauchy(mu: Measure, z):
    """Cauchy transform G_mu(z); z may be a complex scalar or array."""
    zs = np.asarray(z, dtype=np.complex128)
    near_axis = np.abs(zs.imag) <= 1e-12
    if np.any(near_axis):
        re = zs.real[near_axis] if zs.ndim else np.array([zs.real])
        for x in np.atleast_1d(re):
            for loc, _ in mu.atoms:
                if abs(x - loc) <= 1e-12:
                    raise ValueError(f"z = {x} is on an atom of the measure")
            if mu.support is not None:
                a, b = mu.support
                if a - 1e-12 <= x <= b + 1e-12:
                    raise ValueError(f"z = {x} lies on the support [{a}, {b}]")
    vals, _ = cauchy_evaluator(mu)(zs.ravel())
    if zs.ndim == 0:
        return complex(vals[0])
    return vals.reshape(zs.shape)


def cauchy_evaluator(mu: Measure) -> Callable:
    """The (G, G') evaluator of a measure's own quadrature: the kernel on its
    decomposed form."""
    form = mu._poles, mu._weights, mu._t, mu._f
    return lambda z: _kernels.cauchy_many(z, *form)


def support_radius(mu: Measure) -> float:
    r = 0.0
    for loc, _ in mu.atoms:
        r = max(r, abs(loc))
    if mu.support is not None:
        r = max(r, abs(mu.support[0]), abs(mu.support[1]))
    return r


def _eval_transform(G: Callable, zs: np.ndarray) -> np.ndarray:
    """A vectorised Cauchy transform G on the array zs."""
    vals = np.asarray(G(zs), dtype=np.complex128)
    if vals.shape != zs.shape:
        raise ValueError(f"the transform gave shape {vals.shape} on points of shape {zs.shape}; "
                         "it must map an array of points to an array of values")
    return vals


def stieltjes_invert(G: Callable, support_hint, grid_size: int = 2048, eps: float = 1e-3) -> Measure:
    """Recover a measure from its Cauchy transform.

    G maps a 1-d complex array to the array of its values there.  Density
    via -Im G(t + i*eps)/pi with Richardson extrapolation between eps
    and eps/2.  Atoms are flagged where eps*|Im G| exceeds 0.1*sqrt(eps) and
    the two-level mass estimates agree (a pole's estimate is eps-independent,
    a bounded density's halves), then located by a parabolic fit to the
    reciprocal estimate and measured as the extrapolated pole mass.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a, b = float(support_hint[0]), float(support_hint[1])
    if not a < b:
        raise ValueError("support_hint must be an increasing pair")
    n_grid = int(grid_size)
    if n_grid < 64:
        raise ValueError("grid_size must be at least 64")
    if n_grid % 2 == 0:
        n_grid += 1  # keep the hint midpoint on the grid; atoms often sit there
    t = np.linspace(a, b, n_grid)
    h = t[1] - t[0]
    g1 = _eval_transform(G, t + 1j * eps)
    g2 = _eval_transform(G, t + 1j * eps / 2.0)
    d1 = -g1.imag / math.pi
    d2 = -g2.imag / math.pi
    dens = 2.0 * d2 - d1

    mass1 = eps * np.abs(g1.imag)
    threshold = 0.1 * math.sqrt(eps)

    atoms = []
    idx = np.flatnonzero(mass1 > threshold)
    if idx.size:
        runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        for run in runs:
            k = run[np.argmax(mass1[run])]
            loc = t[k]
            if 0 < k < n_grid - 1 and mass1[k - 1] > 0 and mass1[k + 1] > 0:
                # near a pole, 1/mass1 is a parabola in t with vertex at the atom
                y0, y1, y2 = 1.0 / mass1[k - 1], 1.0 / mass1[k], 1.0 / mass1[k + 1]
                denom = y0 - 2.0 * y1 + y2
                if denom > 0:
                    shift = 0.5 * (y0 - y2) / denom
                    if abs(shift) <= 1.0:
                        loc = t[k] + shift * h
            # decide pole vs steep density at the refined point: a pole's
            # eta*|Im G| is eta-independent, a bounded density's halves
            za = complex(loc, eps)
            zb = complex(loc, eps / 2.0)
            ma = eps * abs(_eval_transform(G, np.array([za]))[0].imag)
            mb = (eps / 2.0) * abs(_eval_transform(G, np.array([zb]))[0].imag)
            if mb <= 0.0 or not (0.8 < ma / mb < 1.25):
                continue
            mass = 2.0 * mb - ma
            if mass > threshold:
                atoms.append((float(loc), float(min(mass, 1.0))))

    if float(dens.min()) < -1e-6:
        k = int(np.argmin(dens))
        raise InversionError(
            f"density {dens[k]:.3e} at t={t[k]:.6g}: negative beyond tolerance "
            "(wrong branch or non-Nevanlinna input)"
        )
    dens = np.maximum(dens, 0.0)

    # blank the Richardson residue of each atom's pole out of the density
    for loc, mass in atoms:
        radius = max(3.0 * h, 10.0 * eps, (3.0 * mass * eps**3 / (4.0 * math.pi * 1e-4)) ** 0.25)
        dens[np.abs(t - loc) < radius] = 0.0

    return Measure(atoms=tuple(atoms), support=(a, b), samples=dens, normalize=False)


# -- serialization ----------------------------------------------------------


def to_json(mu: Measure) -> str:
    obj = {
        "atoms": [[loc, mass] for loc, mass in mu.atoms],
        "support": list(mu.support) if mu.support is not None else None,
        "density": mu.samples.tolist() if mu.samples is not None else [],
    }
    if mu.edges != ("regular", "regular"):
        obj["edges"] = list(mu.edges)
    return json.dumps(obj)


def from_json(text: str) -> Measure:
    obj = json.loads(text)
    support = tuple(obj["support"]) if obj.get("support") else None
    samples = np.asarray(obj.get("density", []), dtype=np.float64) if support else None
    edges = tuple(obj.get("edges", ("regular", "regular")))
    return Measure(
        atoms=tuple((l, m) for l, m in obj.get("atoms", [])),
        support=support,
        samples=samples,
        edges=edges,
        normalize=False,
    )


def to_csv(mu: Measure) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "density"])
    if mu.support is not None:
        for ti, fi in zip(mu.grid, mu.samples):
            writer.writerow([repr(float(ti)), repr(float(fi))])
    return buf.getvalue()
