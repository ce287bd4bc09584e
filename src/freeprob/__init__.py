"""Computational free probability.

Exact partition/cumulant combinatorics, moment-cumulant recursions, measures
and Stieltjes inversion, free additive convolution (exact moment route and
analytic subordination route), random walks on lattices and free groups,
group-algebra and Fock-space models of freeness, and random-matrix checks
(Wick/genus expansions, Weingarten calculus, reproducible Monte Carlo).

The analytic free convolution solves the subordination fixed point for
every point of the inversion grid at once, in numpy; the Cauchy transforms it
needs come from one vectorised kernel (`freeprob._kernels`).
"""

from . import (
    cumulants,
    freeconv,
    measures,
    models,
    partitions,
    rmt,
    series,
    walks,
)
from .freeconv import ContinuationError, free_convolve_analytic, free_convolve_moments
from .measures import Measure, make_named
from .partitions import Partition, Permutation, enumerate_partitions

__all__ = [
    "partitions",
    "series",
    "cumulants",
    "measures",
    "freeconv",
    "walks",
    "models",
    "rmt",
    "Partition",
    "Permutation",
    "enumerate_partitions",
    "Measure",
    "make_named",
    "ContinuationError",
    "free_convolve_analytic",
    "free_convolve_moments",
]

__version__ = "0.1.0"
