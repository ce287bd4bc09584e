"""Output sweep of the CLI: two source trees, one fixed argv set, every difference.

Runs each argv of a fixed set (`argvs`) in both trees and prints each argv
whose exit code, stderr or stdout differs between them.  Where both stdouts are JSON
reports it names the dotted keys that differ (``diagnostics.worst_z``), a key
present in one tree only marked as such, instead of printing the text; a list
of numbers that differs is named as a whole.  The exit code is 0 when no argv
differs and 1 otherwise.

    python3 tools/byte_sweep.py BEFORE_TREE AFTER_TREE

A tree is a checkout of this repository (its package under ``src/``).  Each
tree runs the whole set in one interpreter, through ``freeprob.cli.run``,
with ``PYTHONDONTWRITEBYTECODE=1`` and no ``FREEPROB_SEED``.  The set is:

* the benchmark's job argvs (`perfbench/workloads.py`) at seed 1;
* all 64 ordered pairs of ``LAWS`` on ``--route both --grid-size 64``, on
  ``--route analytic --grid-size 256 --eta 1e-7`` and on ``--route moments
  --order 30``;
* ``flow`` on each of ``LAWS``, and at a point near the axis;
* ``EXTRA``: runs that exit 3, moments past the float range, and moment
  lists on the moment route.
"""

from __future__ import annotations

import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

LAWS = ("semicircle", "arcsine", "bernoulli", "marchenko_pastur:lam=0.5",
        "marchenko_pastur:lam=1", "sato_tate", "point", "point:c=1.5")

EXTRA = (
    # numerical failures: a solve that does not converge, a density that is NaN
    ("freeconv", "--law-x", "sato_tate", "--law-y", "semicircle:r=1e99",
     "--route", "analytic", "--grid-size", "128"),
    ("freeconv", "--law-x", "semicircle", "--law-y", "semicircle",
     "--route", "analytic", "--grid-size", "64", "--eta", "1e200"),
    # moments past the float range: null entries, an infinite moment error
    ("freeconv", "--law-x", "semicircle:r=1e100", "--law-y", "bernoulli",
     "--route", "both", "--grid-size", "128"),
    ("freeconv", "--law-x", "semicircle:r=1e3", "--law-y", "marchenko_pastur:lam=0.01",
     "--route", "both", "--grid-size", "64"),
    ("freeconv", "--law-x", "semicircle:r=1e100", "--law-y", "bernoulli", "--route", "moments"),
    # moment lists, of equal and of different lengths
    ("freeconv", "--moments-x", "0,1,0,2", "--moments-y", "1,2,5,14", "--route", "moments"),
    ("freeconv", "--moments-x", "1,2", "--moments-y", "1,2,3", "--route", "moments"),
    ("freeconv", "--moments-x", "0,1,0,1", "--law-y", "semicircle", "--route", "moments"),
    ("freeconv", "--law-x", "sato_tate", "--moments-y", "0,1,0,1", "--route", "moments",
     "--order", "6"),
)


def argvs() -> list:
    out = [tuple(workloads.argv_for(job, 1))
           for jobs in workloads.WORKLOADS.values() for job in jobs]
    for settings in (("--route", "both", "--grid-size", "64"),
                     ("--route", "analytic", "--grid-size", "256", "--eta", "1e-7"),
                     ("--route", "moments", "--order", "30")):
        out += [("freeconv", "--law-x", x, "--law-y", y, *settings)
                for x, y in itertools.product(LAWS, LAWS)]
    out += [("flow", "--law", law) for law in LAWS]
    out += [("flow", "--law", "arcsine", "--z", "3+0.05j")]
    return out + list(EXTRA)


def worker(argv_list: list) -> list:
    """Run in the tree's interpreter: (exit code, stdout, stderr) of each argv."""
    import contextlib
    import io

    from freeprob import cli

    runs = []
    for argv in argv_list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def run_tree(tree: Path, argv_list: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "tools")]),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("FREEPROB_SEED", None)
    code = ("import json, sys, byte_sweep; "
            "print(json.dumps(byte_sweep.worker(json.load(sys.stdin))))")
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps(argv_list), env=env,
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the sweep failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def differing_keys(a, b, prefix: str = "") -> list:
    """The dotted keys at which two parsed JSON values differ."""
    if a == b:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in dict.fromkeys([*a, *b]):
            name = f"{prefix}{key}"
            if key not in b:
                out.append(f"{name} (before only)")
            elif key not in a:
                out.append(f"{name} (after only)")
            else:
                out += differing_keys(a[key], b[key], name + ".")
        return out
    if (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
            and any(isinstance(v, (dict, list)) for v in a)):
        return [key for i, (u, v) in enumerate(zip(a, b))
                for key in differing_keys(u, v, f"{prefix}{i}.")]
    return [prefix.rstrip(".") or "(the whole output)"]


def stdout_difference(a: str, b: str) -> list:
    try:
        return differing_keys(json.loads(a), json.loads(b))
    except ValueError:
        return ["(not JSON)"]


def main():
    if len(sys.argv) != 3:
        raise SystemExit(f"usage: {sys.argv[0]} BEFORE_TREE AFTER_TREE")
    before, after = (Path(p).resolve() for p in sys.argv[1:])
    argv_list = argvs()
    differ = 0
    for argv, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(
            argv_list, run_tree(before, argv_list), run_tree(after, argv_list), strict=True):
        lines = []
        if code_a != code_b:
            lines.append(f"exit code: {code_a} -> {code_b}")
        if err_a != err_b:
            lines.append(f"stderr: {err_a.strip()!r} -> {err_b.strip()!r}")
        if out_a != out_b:
            lines.append("stdout: " + ", ".join(stdout_difference(out_a, out_b)
                                               if out_a and out_b else ["(empty on one side)"]))
        if lines:
            differ += 1
            print(shlex.join(argv))
            print("".join(f"    {line}\n" for line in lines), end="")
    print(f"{differ} of {len(argv_list)} argvs differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
