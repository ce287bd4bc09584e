"""Test oracles: the general Monte Carlo word estimator, its ensemble sampler,
and the one-point subordination of two cell measures.

`mc_word_moment` estimates (E tr) of any word in Ginibre, GUE, CUE and fixed
matrices, drawn by `sample`, with counter-based per-trial RNG streams, so
its results are bit-identical for any worker count.  The CLI's freeness
checks (`freeprob.rmt.freeness_experiment`) compute each trace by an exact
identity instead, on the same streams (`freeprob.rmt._rng`) and GUE draws
(`freeprob.rmt._gue`).  `convolved_cauchy` is G of mu_x boxplus mu_y at one
point, by the solve of `freeprob.freeconv` on the cell kernels.
"""

from __future__ import annotations

import math

import numpy as np

from freeprob.freeconv import SolverCounters, _subordinate
from freeprob.measures import Measure, cauchy_evaluator
from freeprob.rmt import _gue, _mean_stderr, _rng, _run_trials

_KINDS = ("ginibre", "gue", "cue", "deterministic")


class EnsembleSpec:
    """What to sample: ensemble kind, dimension, and RNG seed.

    deterministic specs carry their matrix in `payload`; the seed is then
    inert but kept so specs stay interchangeable in words.
    """

    def __init__(self, kind: str, N: int, seed: int = 0, payload: np.ndarray | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r}; expected {_KINDS}")
        if N < 1:
            raise ValueError(f"dimension must be >= 1, got {N}")
        if kind == "deterministic":
            if payload is None:
                raise ValueError("deterministic spec needs a payload matrix")
            if getattr(payload, "shape", None) != (N, N):
                raise ValueError(f"payload must be an ndarray of shape ({N}, {N})")
        elif payload is not None:
            raise ValueError("payload only makes sense for deterministic specs")
        self.kind = kind
        self.N = N
        self.seed = seed
        self.payload = payload


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """standard_normal(shape) + 1j * standard_normal(shape), bit for bit and
    with the same draws, filled in place instead of through two temporaries."""
    z = np.empty(shape, dtype=np.complex128)
    z.real[...] = rng.standard_normal(shape)
    z.imag[...] = rng.standard_normal(shape)
    return z


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """QR of a complex Ginibre, each column of Q multiplied by the phase of
    R's diagonal entry there: that makes R's diagonal positive, which is what
    makes the law Haar (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(_complex_normal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _sample_rng(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of spec from rng."""
    n = spec.N
    if spec.kind == "deterministic":
        return spec.payload.astype(np.complex128)
    if spec.kind == "ginibre":
        return _complex_normal(rng, (n, n)) / math.sqrt(2 * n)
    if spec.kind == "gue":
        return _gue(rng, n)
    return _haar_unitary(rng, n)


def sample(spec: EnsembleSpec, trial: int = 0) -> np.ndarray:
    """One draw from the ensemble; trial selects an independent stream."""
    return _sample_rng(spec, _rng(spec.seed, trial))


class MCEstimate:
    def __init__(self, mean: complex, stderr: float, trials: int, seed: int):
        if stderr < 0:
            raise ValueError("stderr must be non-negative")
        self.mean = mean
        self.stderr = stderr
        self.trials = trials
        self.seed = seed


def _normalize_word(word) -> list[tuple[int, bool]]:
    out = []
    for item in word:
        if isinstance(item, (tuple, list)):
            idx, adj = item
            out.append((int(idx), bool(adj)))
        else:
            out.append((int(item), False))
    if not out:
        raise ValueError("word must be non-empty")
    return out


def mc_word_moment(specs, word, trials: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo (E tr) of a matrix word, bit-reproducible across workers.

    word entries are spec indices or (index, adjoint) pairs.  Each trial
    samples every referenced spec from its own counter-based stream keyed by
    (spec seed, trial, spec position), so the estimate depends only on the
    specs, the word, and the trial count; per-trial values land in a
    trial-indexed array and are reduced with a single pairwise sum.  The
    last letter is never multiplied in: tr(P M) = sum_ij P_ij M_ji.
    """
    specs = list(specs)
    letters = _normalize_word(word)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ns = {s.N for s in specs}
    if len(ns) != 1:
        raise ValueError(f"dimension mismatch across specs: {sorted(ns)}")
    (n,) = ns
    used = sorted({idx for idx, _ in letters})
    for idx in used:
        if not 0 <= idx < len(specs):
            raise ValueError(f"word references spec {idx}, have {len(specs)}")
    vals = np.empty(trials, dtype=np.complex128)

    def run(trial: int):
        mats = {i: _sample_rng(specs[i], _rng(specs[i].seed, trial, i)) for i in used}
        factors = [mats[idx].conj().T if adj else mats[idx] for idx, adj in letters]
        prod = factors[0]
        for m in factors[1:-1]:
            prod = prod @ m
        if len(factors) == 1:
            vals[trial] = np.trace(prod) / n
        else:
            vals[trial] = np.sum(prod * factors[-1].T) / n

    _run_trials(run, trials, workers)
    mean, stderr = _mean_stderr(vals)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=specs[0].seed)


def convolved_cauchy(mu_x: Measure, mu_y: Measure, z) -> complex:
    """G of mu_x boxplus mu_y at one point z (Im z > 0), by subordination."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("convolved_cauchy needs Im z > 0")
    solved, _ = _subordinate(
        np.array([z]), cauchy_evaluator(mu_x), cauchy_evaluator(mu_y), SolverCounters())
    return complex(solved[0])
