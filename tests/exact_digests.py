"""The sha256 of the stdout of the CLI's exact routes, argv by argv.

These routes compute in integers and Fractions, so their bytes depend on
neither libm, BLAS nor numpy's random streams.  `test_exact_digests.py`
compares every digest in ``exact_digests.json`` with a fresh in-process run.
After a change that is meant to alter some of these outputs, rewrite the
table with

    PYTHONPATH=src python tests/exact_digests.py

and name in the change log each argv whose digest changed, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

TABLE = Path(__file__).with_name("exact_digests.json")

# every named law with exact free cumulants
_LAWS = ("semicircle", "arcsine", "bernoulli", "marchenko_pastur:lam=0.5",
         "marchenko_pastur:lam=1", "point:c=1.5")
# one permutation of each cycle type of S(1) .. S(4)
_PERMS = ("1", "1,2", "2,1", "1,2,3", "2,1,3", "2,3,1",
          "1,2,3,4", "2,1,3,4", "2,1,4,3", "2,3,1,4", "2,3,4,1")

ARGVS = tuple(
    [("cumulants", "--moments", m, "--lattice", "both")
     for m in ("1,2,3,4,5,6,7,8,9", "1/3,2,5", "0,1,0,2,0,5,0,14", "1,2,8,64,1024",
               "1/2,-1,3/4,0,7,-5/3")]
    + [("freeconv", "--law-x", x, "--law-y", y, "--route", "moments", "--order", "12")
       for x, y in itertools.combinations_with_replacement(_LAWS, 2)]
    + [("freeconv", "--law-x", x, "--law-y", y, "--route", "moments", "--order", "40")
       for x, y in (("semicircle", "bernoulli"), ("arcsine", "marchenko_pastur:lam=0.5"))]
    + [("kesten", "--d", str(d), "--nmax", "24") for d in range(1, 5)]
    + [("kesten", "--d", str(d), "--nmax", "200") for d in (1, 2, 3, 5)]
    + [("wick", "--n", str(n)) for n in range(17)]
    + [("wick", "--n", str(n), "--N", "3") for n in range(17)]
    + [("weingarten", "--perm", p, "--N", "5") for p in _PERMS]
)


def digest(argv) -> str:
    """The sha256 of what ``freeprob`` prints for argv, with the seed fixed."""
    from freeprob import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(list(argv) + ["--seed", "0"])
    if rc:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in ARGVS}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {TABLE}")
