"""Cauchy transform of a decomposed measure, vectorised over points in numpy.

A measure enters `cauchy_many`, the one entry point, in the form that
`measures.Measure` builds for it:

* point masses ``weights`` at ``poles`` (its atoms, then the sub-cell
  quadrature nodes of its singular edge bands), summed as exact poles;
* a piecewise-linear density through the nodes ``t``, ``f`` of a uniform grid
  (empty without a density), whose Cauchy transform is evaluated by the
  exact per-cell log formula -- this stays accurate arbitrarily close to the
  real axis, where a plain weighted pole sum with node spacing h fails for
  Im z < a few h.

Near the support the per-cell logarithm log((z - t_k)/(z - t_{k+1})) is
computed as log1p(h/(z - t_{k+1})) from the exact cell width h, in real
arithmetic.  Far from it (``_FAR`` cell widths or more from every cell) each
cell is written in y = h/(2(z - c)), c its midpoint: the logarithm is
2 atanh(y) and the part of the integral that cancels to O(h^3/z^2) is
h (atanh(y)/y - 1), both summed as series in y^2.  So G keeps its relative
precision at any distance, where a direct formula loses a factor |z|/h.

Points are processed in blocks so that no points-by-cells temporary holds
more than ``_BLOCK_ELEMS`` values, whatever the grid size.
"""

from __future__ import annotations

import numpy as np

# The only backend; perfbench/passrun.py reads it into every pass it records.
BACKEND = "numpy"

# Largest points-by-cells temporary, in values (1 MB of float64).
_BLOCK_ELEMS = 1 << 17

# Points at least _FAR cell widths from every cell midpoint take the series,
# where |y| <= 1/32; the terms 1/3, 1/5, ..., 1/13 of atanh(y)/y - 1 then
# reach double precision.
_FAR = 16.0
_ATANH_TERMS = 1.0 / np.arange(3.0, 15.0, 2.0)


def _cells_near(z, tc, fc, h, m):
    """(sum of the cell integrals, sum of m log) by the log formula.

    With a = Re z - t at the cell nodes, |z - t|^2 = A at t_k and B at
    t_{k+1}, and A - B = h(a_k + a_{k+1}): the real part of the cell log is
    log1p of |A - B| over the smaller of A and B, signed, so the log1p
    argument is never negative and nothing cancels.
    """
    a = z.real[:, None] - tc
    ar, br = a[:, :-1], a[:, 1:]
    zi = z.imag[:, None]
    zi2 = zi * zi
    q = a * a + zi2
    d = h * (ar + br)
    re = 0.5 * np.copysign(np.log1p(np.abs(d) / np.minimum(q[:, :-1], q[:, 1:])), d)
    im = np.arctan2(-h * zi, ar * br + zi2)
    # cell integral (f_k + m za) log(za/zb) - m h, with za = z - t_k; the
    # m h terms sum to f_hi - f_lo
    cr = fc[:-1] + m * ar
    mre = np.einsum("ij,j->i", re, m)
    mim = np.einsum("ij,j->i", im, m)
    g = (np.einsum("ij,ij->i", cr, re) - z.imag * mim - (fc[-1] - fc[0])) + 1j * (
        np.einsum("ij,ij->i", cr, im) + z.imag * mre
    )
    return g, mre + 1j * mim


def _cells_far(z, tc, fc, h, m):
    """(sum of the cell integrals, sum of m log) by the series in y."""
    y = h / (2.0 * (z[:, None] - 0.5 * (tc[:-1] + tc[1:])))
    y2 = y * y
    q = _ATANH_TERMS[-1]
    for coef in _ATANH_TERMS[-2::-1]:
        q = q * y2 + coef
    q = q * y2  # atanh(y)/y - 1
    lg = 2.0 * y * (1.0 + q)
    # cell integral f_mid log + m h (atanh(y)/y - 1)
    g = np.einsum("ij,j->i", lg, 0.5 * (fc[:-1] + fc[1:])) + np.einsum("ij,j->i", q, m * h)
    return g, np.einsum("ij,j->i", lg, m)


def pole_sum(z, nodes, weights):
    """(G(z), G'(z)) of point masses ``weights`` at ``nodes``, z a 1-d array."""
    inv = 1.0 / (z[:, None] - nodes)
    return np.einsum("ij,j->i", inv, weights), -np.einsum("ij,ij,j->i", inv, inv, weights)


def _g_block(z, poles, weights, t, f):
    if poles.size:
        g, gp = pole_sum(z, poles, weights)
    else:
        g = np.zeros(z.shape, dtype=np.complex128)
        gp = np.zeros(z.shape, dtype=np.complex128)
    if t.size:
        h = np.diff(t)
        m = np.diff(f) / h
        outside = np.maximum(np.maximum(t[0] - z.real, z.real - t[-1]), 0.0)
        far = np.hypot(outside, z.imag) >= _FAR * h.max()
        for sel, cells in ((far, _cells_far), (~far, _cells_near)):
            if sel.any():
                gs, ms = cells(z[sel], t, f, h, m)
                g[sel] += gs
                gp[sel] += ms
        # derivative: sum of m log(za/zb) plus f_k/za - f_{k+1}/zb, which telescopes
        gp += f[0] / (z - t[0]) - f[-1] / (z - t[-1])
    return g, gp


def cauchy_many(z, poles, weights, t, f):
    """(G(z), G'(z)) of point masses ``weights`` at ``poles`` plus the
    piecewise-linear density through (``t``, ``f``), for an array of points z."""
    z = np.ascontiguousarray(np.asarray(z, dtype=np.complex128).ravel())
    step = max(1, _BLOCK_ELEMS // max(1, poles.size + t.size))
    g = np.empty(z.shape, dtype=np.complex128)
    gp = np.empty(z.shape, dtype=np.complex128)
    for start in range(0, z.size, step):
        block = slice(start, start + step)
        g[block], gp[block] = _g_block(z[block], poles, weights, t, f)
    return g, gp
