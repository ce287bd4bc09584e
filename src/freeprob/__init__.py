"""Computational free probability.

Moment-cumulant recursions, measures and Stieltjes inversion, free additive
convolution (exact moment route and analytic subordination route), random
walks on lattices and free groups, group-algebra and Fock-space models of
freeness, and random-matrix checks (Wick/genus expansions, Weingarten
calculus, reproducible Monte Carlo).

The analytic free convolution solves the subordination fixed point for
every point of the inversion grid at once, in numpy; the Cauchy transforms it
needs come from one vectorised kernel (`freeprob._kernels`).

`models` (the group-algebra and Fock-space models) is loaded on first access,
``freeprob.models`` or ``from freeprob import models``: nothing else in the
package uses it, so importing the CLI does not pay for it.

numpy, too, loads on first use: the modules take ``np`` from
`freeprob._numpy`, a stand-in that imports numpy when one of its attributes
is first read.  Importing the package loads no numpy, and neither do the
exact computations: the loop counts of `walks.kesten_loops`, `cumulants`,
`series`, `partitions`, the Wick and Weingarten calculus of `rmt` and the
named laws' exact moments and cumulants in `measures`.
"""

import importlib

from . import (
    cumulants,
    freeconv,
    measures,
    partitions,
    rmt,
    series,
    walks,
)
from .freeconv import ContinuationError, free_convolve_analytic, free_convolve_moments
from .measures import Measure, make_named
from .partitions import Permutation

__all__ = [
    "partitions",
    "series",
    "cumulants",
    "measures",
    "freeconv",
    "walks",
    "models",
    "rmt",
    "Permutation",
    "Measure",
    "make_named",
    "ContinuationError",
    "free_convolve_analytic",
    "free_convolve_moments",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # importing the submodule also binds it as an attribute of the package,
    # so this runs at most once per name
    if name == "models":
        return importlib.import_module(".models", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
