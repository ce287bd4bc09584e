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

Named laws live in one table, `_LAWS`, which maps each tag to its
parameters' defaults and to the factory of its record, `_Law`: semicircle
(r=2), arcsine, bernoulli, marchenko_pastur (lam=1, alpha=1), sato_tate and
point (c=0).  `resolve_law` checks the parameters.  At them a record holds
the law's atoms, the support of its density (None without one) and these
columns, each None where the law has none:

* ``density``: the density on a grid and its edge model (`make_named`);
* ``moment``, ``cumulant``: the exact moments and free cumulants, as
  Fractions of the float parameters (`named_moments`, `named_cumulants`);
* ``cauchy``: the closed-form (G, G') evaluator (`named_cauchy`), written in
  the root s = sqrt(z - a) sqrt(z - b) of the support [a, b], a product of
  principal roots, so the cut is the support and s ~ z at infinity, and so
  that nothing cancels far from the support: semicircle G = 2/(z + s),
  arcsine G = 1/s, Marchenko-Pastur G = 2/(z + alpha(1 - lam) + s) or its
  conjugate form near its atom at 0.

`named_input` reads a record as an input of the analytic route (`LawInput`):
a law without a density enters as the pole sum of its atoms, and a law
with a density but no ``cauchy`` has none.

A `Measure` is built once into the one form that its Cauchy transform,
moments and mass are read from: point masses ``_weights`` at ``_poles`` (the
atoms, then the nodes of the singular edge bands), the density's nodes
``_t``, ``_f`` between the bands (empty without a density) and their
trapezoid weights ``_tw``.  Any measure's own evaluator is
`cauchy_evaluator`, the kernel `_kernels.cauchy_many` on that form.  An
evaluator maps a 1-d complex array z to the arrays (G(z), G'(z)).
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


class InversionError(RuntimeError):
    """Stieltjes inversion produced a significantly negative density, or a
    measure that misses part of the unit mass."""


class Measure:
    """Atoms plus an optional uniform-grid density on [a, b].

    ``edges`` marks each side of the support as "regular", "sqrt" or "invsqrt".
    With ``normalize=True`` the density samples are rescaled so the measure's
    own quadrature rule integrates to exactly 1 - (atom mass).  ``raw_mass``
    is the total mass as given, before that rescaling.
    ``clipped_negative_mass`` is the mass that `stieltjes_invert` removed by
    clipping a negative density at 0 (0 for samples given as they are).
    """

    clipped_negative_mass = 0.0

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


class _Law(NamedTuple):
    """A named law at resolved parameters: one column per field, None where
    the law has no such column (see the module docstring)."""

    atoms: tuple
    support: tuple | None
    density: Callable | None
    moment: Callable | None
    cumulant: Callable | None
    cauchy: Callable | None


_ZERO, _ONE = Fraction(0), Fraction(1)


def _edge_root(z, a: float, b: float):
    """sqrt(z - a) sqrt(z - b) with principal roots: cut on [a, b], ~ z at infinity."""
    return np.sqrt(z - a) * np.sqrt(z - b)


def _catalan_cumulant(scale: int) -> Callable:
    """kappa_2k = scale (-1)^(k-1) Cat(k-1), no odd ones: the free cumulants of
    Bernoulli (scale 1) and of arcsine = Bernoulli boxplus Bernoulli (2)."""
    return lambda n: _ZERO if n % 2 else Fraction(
        scale * (-1) ** (n // 2 - 1) * math.comb(n - 2, n // 2 - 1) // (n // 2))


def _semicircle(r: float) -> _Law:
    half = Fraction(r) / 2
    variance = half**2

    def density(t):
        dens = (2.0 / (math.pi * r * r)) * np.sqrt(np.maximum(r * r - t * t, 0.0))
        return dens, ("sqrt", "sqrt")

    def cauchy(z):
        s = _edge_root(z, -r, r)
        g = 2.0 / (z + s)
        return g, -g / s

    return _Law((), (-r, r), density,
                lambda n: _ZERO if n % 2 else half**n * (math.comb(n, n // 2) // (n // 2 + 1)),
                lambda n: variance if n == 2 else _ZERO, cauchy)


def _arcsine_density(t):
    dens = np.zeros_like(t)
    inner = slice(1, -1)
    dens[inner] = 1.0 / (math.pi * np.sqrt(4.0 - t[inner] ** 2))
    return dens, ("invsqrt", "invsqrt")


def _arcsine_cauchy(z):
    g = 1.0 / _edge_root(z, -2.0, 2.0)
    return g, -z * g**3


def _arcsine() -> _Law:
    return _Law((), (-2.0, 2.0), _arcsine_density,
                lambda n: _ZERO if n % 2 else Fraction(math.comb(n, n // 2)),
                _catalan_cumulant(2), _arcsine_cauchy)


def _bernoulli() -> _Law:
    return _Law(((-1.0, 0.5), (1.0, 0.5)), None, None, lambda n: _ZERO if n % 2 else _ONE,
                _catalan_cumulant(1), None)


def _point(c: float) -> _Law:
    c_q = Fraction(c)
    return _Law(((c, 1.0),), None, None, lambda n: c_q**n,
                lambda n: c_q if n == 1 else _ZERO, None)


def _marchenko_pastur(lam: float, alpha: float) -> _Law:
    a, b = alpha * (1.0 - math.sqrt(lam)) ** 2, alpha * (1.0 + math.sqrt(lam)) ** 2
    shift = alpha * (1.0 - lam)
    left = "invsqrt" if abs(lam - 1.0) < 1e-12 else "sqrt"
    lam_q, alpha_q = Fraction(lam), Fraction(alpha)
    (p, q), (u, v) = lam.as_integer_ratio(), alpha.as_integer_ratio()

    def density(t):
        rad = 4.0 * lam * alpha * alpha - (t - alpha * (1.0 + lam)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.sqrt(np.maximum(rad, 0.0)) / (2.0 * math.pi * alpha * t)
        dens[~np.isfinite(dens)] = 0.0
        dens[dens < 0.0] = 0.0
        if left == "invsqrt":
            dens[0] = 0.0
        return dens, (left, "sqrt")

    def moment(n):
        # the Narayana sum m_n = alpha^n sum_k N(n, k) lam^k, N(n, k) =
        # C(n, k) C(n, k - 1) / n, over the common denominator (q v)^n of
        # lam = p/q and alpha = u/v
        return Fraction(u**n * sum(math.comb(n, k) * math.comb(n, k - 1) // n * p**k * q ** (n - k)
                                   for k in range(1, n + 1)), (q * v) ** n)

    def cauchy(z):
        # G = (w - s)/(2 alpha z) = 2/(w + s), as (w - s)(w + s) = 4 alpha z;
        # take the form whose denominator does not cancel (w - s near the
        # atom at 0 when lam < 1, w + s elsewhere), each only where taken
        s = _edge_root(z, a, b)
        w = z + shift
        plus, minus = w + s, w - s
        near = np.abs(plus) < np.abs(minus)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = 2.0 / plus
            if near.any():
                g[near] = minus[near] / (2.0 * alpha * z[near])
        return g, g * (alpha * g - 1.0) / s

    return _Law(((0.0, 1.0 - lam),) if lam < 1.0 else (), (a, b), density, moment,
                lambda n: lam_q * alpha_q**n, cauchy)


def _sato_tate_density(t):
    return (2.0 / math.pi) * np.sin(t) ** 2, ("regular", "regular")


def _sato_tate() -> _Law:
    return _Law((), (0.0, math.pi), _sato_tate_density, None, None, None)


# Each tag's record factory, called with the resolved parameters, and their defaults
_LAWS = {
    "semicircle": (_semicircle, {"r": 2.0}),
    "arcsine": (_arcsine, {}),
    "bernoulli": (_bernoulli, {}),
    "marchenko_pastur": (_marchenko_pastur, {"lam": 1.0, "alpha": 1.0}),
    "sato_tate": (_sato_tate, {}),
    "point": (_point, {"c": 0.0}),
}
NAMED_TAGS = tuple(_LAWS)
_POSITIVE = ("r", "lam", "alpha")  # parameters that must exceed 0
# ... and lie in this range: far outside it the cell densities under- or
# overflow (r = 1e-300 squares to 0; at r = 1e-150 the edge bands overflow)
_RANGE = (1e-100, 1e100)


def resolve_law(law: str, **params) -> dict:
    """A named law's parameters as floats, defaults filled in and checked.

    >>> resolve_law("marchenko_pastur", lam=0.5)
    {'lam': 0.5, 'alpha': 1.0}
    """
    entry = _LAWS.get(law)
    if entry is None:
        raise ValueError(f"unknown law {law!r}; expected one of {NAMED_TAGS}")
    defaults = entry[1]
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


def _law(law: str, params: dict) -> _Law:
    """The record of a named law at its parameters, resolved and checked."""
    p = resolve_law(law, **params)  # before the lookup: it names an unknown law
    return _LAWS[law][0](**p)


def make_named(law: str, grid_size: int = 2048, **params) -> Measure:
    """A named law's atoms and density on `grid_size` points, with its edge model."""
    rec = _law(law, params)
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    if rec.density is None:
        return Measure(atoms=rec.atoms)
    samples, edges = rec.density(np.linspace(*rec.support, grid_size))
    return Measure(atoms=rec.atoms, support=rec.support, samples=samples, edges=edges)


def named_moments(law: str, order: int, **params) -> list | None:
    """Exact moments m_1..m_order of a named law, as Fractions of its float
    parameters; None for a law without them.

    >>> [str(m) for m in named_moments("arcsine", 6)]
    ['0', '2', '0', '6', '0', '20']
    """
    moment = _law(law, params).moment
    return None if moment is None else [moment(n) for n in range(1, order + 1)]


def named_cumulants(law: str, order: int, **params) -> list | None:
    """Exact free cumulants kappa_1..kappa_order of a named law, as Fractions
    of its float parameters; None for a law without them.

    >>> [str(k) for k in named_cumulants("bernoulli", 8)]
    ['0', '1', '0', '-1', '0', '2', '0', '-5']
    """
    cumulant = _law(law, params).cumulant
    return None if cumulant is None else [cumulant(n) for n in range(1, order + 1)]


def named_cauchy(law: str, **params) -> Callable | None:
    """A named law's closed-form (G, G') evaluator, exact up to rounding, or
    None.  It takes a 1-d complex array z off the support and returns the
    arrays (G(z), G'(z)); see the module docstring for the forms."""
    return _law(law, params).cauchy


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
    """A named law's analytic-route input, read from its record: its atoms
    and support, its exact moments as floats, and its closed-form (G, G'),
    which for a law of atoms alone is the pole sum `_kernels.pole_sum` of
    its atoms.  None for a law with a density and no closed-form G."""
    rec = _law(law, params)
    if rec.density is None:
        locs, masses = (np.array(column) for column in zip(*rec.atoms))

        def evaluate(z):
            return _kernels.pole_sum(z, locs, masses)

    elif rec.cauchy is None:
        return None
    else:
        evaluate = rec.cauchy
    return LawInput(atoms=rec.atoms, support=rec.support, cauchy=evaluate,
                    moments=lambda order: [_float(rec.moment(n)) for n in range(1, order + 1)])


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
    (G, G') evaluator of a measure without atoms, or of one whose known poles,
    the ``atoms``, were already subtracted (`freeconv.free_convolve_analytic`
    takes the atoms of a free convolution from the Bercovici-Voiculescu
    rule).  A pole left in G is smeared into the density, not reported.

    G maps a 1-d complex array to the arrays (G, G') of its values there, the
    contract of `cauchy_evaluator` and `named_cauchy`.  It is called once, on
    the grid t at the single height eps, positive and finite.  With
    F(eps) = -Im G(t + i eps)/pi, so that F'(eps) = -Re G'(t + i eps)/pi, the
    density is the first-order Taylor step to the axis,

        f(t) = F(eps) - eps F'(eps) = (eps Re G' - Im G)/pi,

    which cancels the O(eps) smoothing as the Richardson pair
    2 F(eps/2) - F(eps) does; at an interior point its error is
    -(eps^2/2) Im G''/pi + O(eps^3), at most eps^2 |G''|/(2 pi), against
    eps^2 |G''|/(4 pi) for that pair, which solves every point twice.

    The result is one normalised `Measure` of the ``atoms`` and the density.
    Its ``raw_mass`` is the mass before normalising, so the mass defect of the
    inversion is 1 - raw_mass, and its ``clipped_negative_mass`` is the mass
    that clipping the density at 0 removed, by the grid's trapezoid weights,
    before normalising.  A density that is not finite, below -1e-6, or zero
    where the atoms leave mass missing, raises `InversionError`.
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
    zs = t + 1j * eps
    g, gp = (np.asarray(v, dtype=np.complex128) for v in G(zs))
    if g.shape != zs.shape or gp.shape != zs.shape:
        raise ValueError(f"the transform gave shapes {g.shape} and {gp.shape} on points of "
                         f"shape {zs.shape}; it must map an array of points to an array of "
                         "values and one of derivatives")
    dens = (eps * gp.real - g.imag) / math.pi

    finite = np.isfinite(dens)
    if not finite.all():
        k = int(np.argmin(finite))
        raise InversionError(
            f"density {dens[k]} at t={t[k]:.6g}, eps={eps:g}: the transform's G or G' is "
            "not finite there"
        )
    if float(dens.min()) < -1e-6:
        k = int(np.argmin(dens))
        raise InversionError(
            f"density {dens[k]:.3e} at t={t[k]:.6g}: negative beyond tolerance "
            "(wrong branch or non-Nevanlinna input)"
        )
    below = np.maximum(-dens, 0.0)
    clipped = float(np.sum(np.diff(t) * (below[:-1] + below[1:]))) / 2.0
    dens = np.maximum(dens, 0.0)
    missing = 1.0 - sum(m for _, m in atoms)
    if missing > 1e-9 and not dens.any():
        raise InversionError(
            f"the atoms have total mass {1.0 - missing:.6g} and the density is zero, "
            f"so mass {missing:.3g} is missing (eps={eps:g} too coarse?)"
        )
    measure = Measure(atoms=atoms, support=(a, b), samples=dens)
    measure.clipped_negative_mass = clipped
    return measure


# -- serialization ----------------------------------------------------------


def to_csv(mu: Measure) -> str:
    """The density grid as ``t,density`` rows of repr floats, which need no
    quoting; a measure of atoms only gives the header alone."""
    lines = ["t,density\n"]
    if mu.support is not None:
        lines += [f"{float(ti)!r},{float(fi)!r}\n" for ti, fi in zip(mu.grid, mu.samples)]
    return "".join(lines)
