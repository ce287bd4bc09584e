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
  elementary G, so it has no evaluator and no rational moments or cumulants;
* `named_input`: the law as an input of the analytic route (`LawInput`):
  atoms, support, exact moments as floats and (G, G') evaluator, the pole
  sum `_kernels.pole_sum` for Bernoulli and point masses.  None for
  Sato-Tate, which enters that route as its cell measure.

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

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import _kernels
from ._numpy import np

__all__ = [
    "Measure",
    "InversionError",
    "NAMED_TAGS",
    "resolve_law",
    "make_named",
    "named_moments",
    "named_cumulants",
    "named_cauchy",
    "LawInput",
    "named_input",
    "moments",
    "cauchy",
    "cauchy_evaluator",
    "stieltjes_invert",
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


class InversionError(RuntimeError):
    """Stieltjes inversion produced a significantly negative density, or a
    measure that misses part of the unit mass."""


class Measure:
    """Atoms plus an optional uniform-grid density on [a, b].

    ``edges`` marks each side of the support as "regular", "sqrt" or "invsqrt".
    With ``normalize=True`` the density samples are rescaled so the measure's
    own quadrature rule integrates to exactly 1 - (atom mass).  ``raw_mass``
    is the total mass as given, before that rescaling.
    """

    def __init__(self, atoms: tuple = (), support: tuple | None = None,
                 samples: np.ndarray | None = None, edges: tuple = ("regular", "regular"),
                 normalize: bool = True):
        self.atoms = tuple((float(l), float(m)) for l, m in atoms)
        for _, m in self.atoms:
            if not (0.0 < m <= 1.0 + 1e-12):
                raise ValueError(f"atom mass {m} outside (0, 1]")
        if (support is None) != (samples is None):
            raise ValueError("support and samples must be given together")
        if samples is not None:
            a, b = float(support[0]), float(support[1])
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"bad support [{a}, {b}]")
            support = (a, b)
            samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
            if samples.ndim != 1 or samples.size < 2:
                raise ValueError("density needs at least 2 samples")
            if np.any(samples < 0.0):
                raise ValueError("density samples must be non-negative")
            if np.any(~np.isfinite(samples)):
                raise ValueError("density samples must be finite")
        for side in edges:
            if side not in ("regular", "sqrt", "invsqrt"):
                raise ValueError(f"unknown edge model {side!r}")
        self.support = support
        self.samples = samples
        self.edges = tuple(edges)
        self.normalize = normalize
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
        self.raw_mass = atom_mass
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

            # trapezoid weights on the cells that linspace gives, which the
            # kernel integrates over: they round unevenly where the support is
            # narrow next to its distance from 0
            t = t[lo : hi + 1]
            half = 0.5 * np.diff(t)
            tw = np.zeros(t.size)
            tw[:-1] += half
            tw[1:] += half
            cont_mass = float(np.sum(tw * f[lo : hi + 1]) + W.sum())
            self.raw_mass = atom_mass + cont_mass
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
            f = f[lo : hi + 1]
            tw *= f
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


def _atoms_and_support(law: str, p: dict) -> tuple:
    """A named law's atoms ((location, mass), ...) and the ends of its
    density's support (None without a density), from its resolved
    parameters ``p``."""
    if law == "bernoulli":
        return ((-1.0, 0.5), (1.0, 0.5)), None
    if law == "point":
        return ((p["c"], 1.0),), None
    if law == "semicircle":
        return (), (-p["r"], p["r"])
    if law == "arcsine":
        return (), (-2.0, 2.0)
    if law == "sato_tate":
        return (), (0.0, math.pi)
    lam = p["lam"]  # marchenko_pastur
    return ((0.0, 1.0 - lam),) if lam < 1.0 else (), _mp_support(lam, p["alpha"])


def make_named(law: str, grid_size: int = 2048, **params) -> Measure:
    """A named law's density sampled on `grid_size` points, with its edge model."""
    p = resolve_law(law, **params)
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    atoms, support = _atoms_and_support(law, p)
    if support is None:
        return Measure(atoms=atoms)
    t = np.linspace(*support, grid_size)
    edges = ("regular", "regular")

    if law == "semicircle":
        r = p["r"]
        dens = (2.0 / (math.pi * r * r)) * np.sqrt(np.maximum(r * r - t * t, 0.0))
        edges = ("sqrt", "sqrt")
    elif law == "arcsine":
        dens = np.zeros_like(t)
        inner = slice(1, -1)
        dens[inner] = 1.0 / (math.pi * np.sqrt(4.0 - t[inner] ** 2))
        edges = ("invsqrt", "invsqrt")
    elif law == "marchenko_pastur":
        lam, alpha = p["lam"], p["alpha"]
        rad = 4.0 * lam * alpha * alpha - (t - alpha * (1.0 + lam)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.sqrt(np.maximum(rad, 0.0)) / (2.0 * math.pi * alpha * t)
        dens[~np.isfinite(dens)] = 0.0
        dens[dens < 0.0] = 0.0
        left = "invsqrt" if abs(lam - 1.0) < 1e-12 else "sqrt"
        if left == "invsqrt":
            dens[0] = 0.0
        edges = (left, "sqrt")
    else:  # sato_tate
        dens = (2.0 / math.pi) * np.sin(t) ** 2
    return Measure(atoms=atoms, support=support, samples=dens, edges=edges)


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
        # the Narayana sum m_n = alpha^n sum_k N(n, k) lam^k, N(n, k) =
        # C(n, k) C(n, k - 1) / n, over the common denominator (b d)^n of
        # lam = a/b and alpha = c/d
        a, b = Fraction(p["lam"]).as_integer_ratio()
        c, d = Fraction(p["alpha"]).as_integer_ratio()
        return [Fraction(c**n * sum(math.comb(n, k) * math.comb(n, k - 1) // n * a**k * b ** (n - k)
                                    for k in range(1, n + 1)), (b * d) ** n)
                for n in ns]
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
            # atom at 0 when lam < 1, q + s elsewhere), each only where taken
            s = _edge_root(z, a, b)
            q = z + shift
            plus, minus = q + s, q - s
            near = np.abs(plus) < np.abs(minus)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = 2.0 / plus
                if near.any():
                    g[near] = minus[near] / (2.0 * alpha * z[near])
            return g, g * (alpha * g - 1.0) / s

    else:
        return None  # bernoulli, point, sato_tate
    return evaluate


class LawInput(NamedTuple):
    """One side of the analytic route (`freeconv.free_convolve_analytic`):
    the atoms ((location, mass), ...), the ends of the density's support
    (None without a density), the (G, G') evaluator, and ``moments``, which
    maps an order n to the floats m_1..m_n."""

    atoms: tuple
    support: tuple | None
    cauchy: Callable
    moments: Callable


def _float(q: Fraction) -> float:
    """q as the nearest float, or the infinity of its sign past the range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def named_input(law: str, **params) -> LawInput | None:
    """A named law's analytic-route input, read from the law itself: its
    atoms and support, its `named_cauchy` evaluator (for bernoulli and point
    the pole sum `_kernels.pole_sum` of their atoms) and its exact
    `named_moments` as floats.  None for sato_tate, which has no closed form.
    """
    p = resolve_law(law, **params)
    atoms, support = _atoms_and_support(law, p)
    if support is None:
        locs, masses = (np.array(column) for column in zip(*atoms))

        def evaluate(z):
            return _kernels.pole_sum(z, locs, masses)

    else:
        evaluate = named_cauchy(law, **p)
        if evaluate is None:
            return None  # sato_tate
    return LawInput(atoms=atoms, support=support, cauchy=evaluate,
                    moments=lambda order: [_float(m) for m in named_moments(law, order, **p)])


def moments(mu: Measure, n_max: int) -> np.ndarray:
    """Moments m_1..m_n_max (index i holds m_{i+1})."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p, w, t, tw = mu._poles, mu._weights, mu._t, mu._tw
    ns = np.arange(1.0, n_max + 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sum(w * p**ns, axis=1) + np.sum(tw * t**ns, axis=1)
        # a power that overflows gives inf, and 0 * inf or inf - inf gives
        # NaN: recompute those moments as s^n sum w (p/s)^n, s = max |p|
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            s = max(np.abs(p).max(initial=0.0), np.abs(t).max(initial=0.0))
            for i in bad:
                n = i + 1
                scaled = float(np.sum(w * (p / s) ** n)) + float(np.sum(tw * (t / s) ** n))
                out[i] = np.float64(s) ** n * scaled if scaled else 0.0
    return out


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


def stieltjes_invert(G: Callable, support_hint, grid_size: int = 2048, eps: float = 1e-3,
                     atoms: tuple = ()) -> Measure:
    """Recover the density of a measure from its Cauchy transform: G is the
    transform of a measure without atoms, or of one whose known poles, the
    ``atoms``, were already subtracted (`freeconv.free_convolve_analytic`
    takes the atoms of a free convolution from the Bercovici-Voiculescu
    rule).  A pole left in G is smeared into the density, not reported.

    G maps a 1-d complex array to the array of its values there.  It is
    called once, on the grid at both heights.  The density is -Im G(t + i*eps)/pi
    with Richardson extrapolation between eps and eps/2, for a positive and
    finite eps.  The result is one normalised `Measure` of the ``atoms`` and
    the density; its ``raw_mass`` is the mass before normalising, so the mass
    defect of the inversion is 1 - raw_mass.  A zero density where the atoms
    leave mass missing raises `InversionError`.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    a, b = float(support_hint[0]), float(support_hint[1])
    if not a < b:
        raise ValueError("support_hint must be an increasing pair")
    n_grid = int(grid_size)
    if n_grid < 64:
        raise ValueError("grid_size must be at least 64")
    if n_grid % 2 == 0:
        n_grid += 1  # keep the hint midpoint on the grid
    t = np.linspace(a, b, n_grid)
    zs = np.concatenate([t + 1j * eps, t + 1j * eps / 2.0])
    g = np.asarray(G(zs), dtype=np.complex128)
    if g.shape != zs.shape:
        raise ValueError(f"the transform gave shape {g.shape} on points of shape {zs.shape}; "
                         "it must map an array of points to an array of values")
    d1 = -g[:n_grid].imag / math.pi
    d2 = -g[n_grid:].imag / math.pi
    dens = 2.0 * d2 - d1

    if float(dens.min()) < -1e-6:
        k = int(np.argmin(dens))
        raise InversionError(
            f"density {dens[k]:.3e} at t={t[k]:.6g}: negative beyond tolerance "
            "(wrong branch or non-Nevanlinna input)"
        )
    dens = np.maximum(dens, 0.0)
    missing = 1.0 - sum(m for _, m in atoms)
    if missing > 1e-9 and not dens.any():
        raise InversionError(
            f"the atoms have total mass {1.0 - missing:.6g} and the density is zero, "
            f"so mass {missing:.3g} is missing (eps={eps:g} too coarse?)"
        )
    return Measure(atoms=atoms, support=(a, b), samples=dens)


# -- serialization ----------------------------------------------------------


def to_csv(mu: Measure) -> str:
    """The density grid as ``t,density`` rows of repr floats, which need no
    quoting; a measure of atoms only gives the header alone."""
    lines = ["t,density\n"]
    if mu.support is not None:
        lines += [f"{float(ti)!r},{float(fi)!r}\n" for ti, fi in zip(mu.grid, mu.samples)]
    return "".join(lines)
