"""Command-line front end: every pipeline, JSON/CSV out, reproducible runs.

Output contract: JSON reports are {"config": ..., "result": ..., "diagnostics":
...} with the fully-resolved configuration echoed back, floats printed at 17
significant digits, and exact rationals as strings "p/q", so the same argv and
seed produce byte-identical bytes.  CSV is available only where a flat table
makes sense (freeconv density grids, rmt Monte Carlo sweeps).

Exit codes, mapped in one place (`run`): 0 success; 2 bad input, a
`ValueError` or an `OSError` (a file that cannot be read or written; an
--output that cannot be written is found before the run), with nothing on
stdout; 3 numerical failure, a `ContinuationError` (a solve that missed its
tolerance) or an `InversionError` (an inversion that went negative or lost
mass).

Each input rule is checked once, by the library function that consumes the
input, which raises ValueError: law names and parameters in
`measures.resolve_law`, the grid floor in `measures.make_named`, eta in
`freeconv.free_convolve_analytic`, z, r and h in
`freeconv.semicircle_flow_residual`, the Monte Carlo settings in
`rmt.freeness_experiment`, the Wick order and N in `rmt.wick_trace_moment`,
the Weingarten size and truncation order in `rmt.weingarten_series` and N in
its `evaluate`, d and nmax in `walks`.  This module checks only what no
library function sees: the argv syntax, the text forms of rationals, laws,
permutations and complex numbers, which source feeds each side of freeconv,
the moment order, which subcommands emit CSV, and whether --output can be
written.

Settings resolve in the order: built-in default < FREEPROB_SEED environment
variable (seed only) < --config key=value file < explicit flags.  The file is
named by ``--config FILE`` or ``--config=FILE`` (or a prefix that argparse
accepts, such as ``--conf FILE``); each of its ``key=value`` lines enters as
``--key value`` ahead of the flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from . import freeconv, measures, rmt, series, walks
from .cumulants import moments_to_cumulants
from .freeconv import ContinuationError
from .measures import InversionError
from .partitions import Permutation

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if x != x:
        return '"NaN"'
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.17g}"


def _jdump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{k}": {_jdump(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_jdump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if isinstance(obj, complex):
        return '{"re": ' + _fmt_float(obj.real) + ', "im": ' + _fmt_float(obj.imag) + "}"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    s = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def _report(config: dict, result: dict, diagnostics: dict) -> str:
    return _jdump({"config": config, "result": result, "diagnostics": diagnostics}) + "\n"


def _csv_header(config: dict) -> str:
    return "".join(f"# {k}={v}\n" for k, v in config.items())


def _check_output(output: str):
    """Exit 2 before the run when --output cannot be written.  The file is
    opened only by `_emit`, after the run, so that a failed run leaves an
    existing file as it was."""
    if output == "-":
        return
    folder = os.path.dirname(output) or "."
    if not os.path.isdir(folder):
        raise _Usage(f"cannot write --output {output!r}: no directory {folder!r}")
    if os.path.isdir(output) or not os.access(
            output if os.path.exists(output) else folder, os.W_OK):
        raise _Usage(f"cannot write --output {output!r}")


def _emit(text: str, output: str):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


class _Usage(Exception):
    """Validation failure: message plus exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with usage, but through one code path
        raise _Usage(f"{self.format_usage()}{self.prog}: error: {message}")


def _parse_rationals(text: str) -> list:
    out = []
    for item in (t for chunk in text.split(",") for t in chunk.split()):
        try:
            out.append(Fraction(item))
        except ValueError as exc:
            raise _Usage(f"cannot parse rational list {text!r}: {exc}")
        except ZeroDivisionError:
            raise _Usage(
                f"cannot parse rational list {text!r}: {item!r} has a zero denominator")
    return out


def _read_moments(source: str) -> list:
    if source.startswith("@"):
        with open(source[1:]) as fh:
            return _parse_rationals(fh.read())
    return _parse_rationals(source)


def _parse_law(text: str) -> tuple:
    """A --law string such as ``semicircle:r=3`` as (tag, resolved parameters)."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise _Usage(f"law parameter {item!r} is not key=value")
            try:
                params[key] = float(val)
            except ValueError:
                raise _Usage(f"law parameter {item!r} has a non-numeric value")
    try:
        return name, measures.resolve_law(name, **params)
    except ValueError as exc:
        raise _Usage(f"bad law {text!r}: {exc}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise _Usage(f"cannot parse complex number {text!r}")


def _load_config_file(path: str) -> list:
    """key=value lines -> synthetic argv prepended before the real flags."""
    pairs = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise _Usage(f"{path}:{line_no}: expected key=value, got {line!r}")
            pairs += [f"--{key.strip()}", value.strip()]
    return pairs


@functools.cache
def _config_parser() -> _Parser:
    """A parser of --config alone, run ahead of the full one, so that the
    file's flags can go between the defaults and the argv's flags; it takes
    --config in every spelling that the subcommand parsers take."""
    parser = _Parser(prog="freeprob", add_help=False)
    parser.add_argument("--config")
    return parser


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then reused; it holds no
    per-call state, since the seed's environment default is read after
    parsing (`_default_seed`)."""
    parser = _Parser(prog="freeprob", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: FREEPROB_SEED or 0)")
        p.add_argument("--output", default="-", help="output path, - for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", default=None, help="key=value file; flags win")

    p = sub.add_parser("cumulants", help="moments -> cumulants on both lattices")
    p.add_argument("--moments", required=True,
                   help="comma-separated rationals, or @file")
    p.add_argument("--lattice", choices=("classical", "free", "both"), default="both")
    common(p)

    p = sub.add_parser("freeconv", help="free additive convolution")
    for side in "xy":
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(f"--law-{side}", help="named law, e.g. semicircle:r=2")
        source.add_argument(f"--moments-{side}", help="rational list or @file")
    p.add_argument("--route", choices=("moments", "analytic", "both"), default="both")
    p.add_argument("--order", type=int, default=8, help="moment order for the exact route")
    p.add_argument("--grid-size", type=int, default=512)
    p.add_argument("--eta", type=float, default=1e-3)
    common(p)

    p = sub.add_parser("kesten", help="loop counts of the free-group walk")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    common(p)

    p = sub.add_parser("polya", help="return-probability decay diagnostics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nmax", type=int, default=2000)
    common(p)

    p = sub.add_parser(
        "flow",
        help="semicircular-flow residual at steps h, h/2, h/4; "
             "a ratio near 4 means second order")
    p.add_argument("--law", default="point", help="base measure (named law)")
    p.add_argument("--z", default="2j", help="evaluation point, finite, Im z >= 0.1")
    p.add_argument("--r", type=float, default=1.0, help="flow radius")
    p.add_argument("--h", type=float, default=0.02,
                   help="coarsest step; rows are at h, h/2 and h/4, and a ratio "
                        "of neighbouring residuals near 4 means second order")
    common(p)

    p = sub.add_parser("rmt", help="asymptotic-freeness Monte Carlo experiment")
    p.add_argument("--kind", required=True, choices=rmt.FREENESS_KINDS)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the gue_gue and gue_deterministic trials, whose "
                        "dense N x N products release the GIL; rotated_diagonal's O(N) "
                        "trials run as one batch in the calling thread; the output "
                        "does not depend on it")
    common(p)

    p = sub.add_parser("wick", help="exact GUE trace moment, genus by genus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, default=None, help="evaluate at this dimension")
    common(p)

    p = sub.add_parser("weingarten", help="monotone-factorization expansion")
    p.add_argument("--perm", required=True,
                   help="one-line images, e.g. 2,1 for the transposition in S(2)")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--R", type=int, default=None, help="truncation order")
    common(p)

    return parser


def _default_seed() -> int:
    text = os.environ.get("FREEPROB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _Usage(f"FREEPROB_SEED must be an integer, got {text!r}")


def _resolved_config(args, keys: list) -> dict:
    cfg = {"command": args.command}
    for key in keys:
        cfg[key] = getattr(args, key.replace("-", "_"))
    cfg["seed"] = args.seed
    cfg["output"] = args.output
    cfg["format"] = args.format
    return cfg


def _require_json(args):
    if args.format != "json":
        raise _Usage(
            f"{args.command} only emits JSON; CSV is for density grids and MC sweeps"
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cumulants(args) -> str:
    moms = _read_moments(args.moments)
    if not moms:
        raise _Usage("--moments is empty")
    _require_json(args)
    config = _resolved_config(args, ["lattice"])
    config["moments"] = [str(m) for m in moms]
    result = {"moments": list(moms)}
    if args.lattice in ("classical", "both"):
        result["classical"] = moments_to_cumulants(moms, lattice="classical")
    if args.lattice in ("free", "both"):
        result["free"] = moments_to_cumulants(moms, lattice="free")
    result["provenance"] = "exact"
    return _report(config, result, {"order": len(moms)})


# moments m_1..m_n of the analytic route's output measure that it reports
_OUTPUT_MOMENTS = 6


def _worst_error(got: list, exact: list, relative: bool) -> float:
    """max |a - b|, over max(1, |b|) if ``relative``, over floats a and
    Fractions b, in exact arithmetic, since b need not fit a float; inf if
    some a is None or not finite, or the result does not fit a float."""
    if not all(a is not None and math.isfinite(a) for a in got):
        return math.inf
    worst = max(abs(Fraction(a) - b) / (max(1, abs(b)) if relative else 1)
                for a, b in zip(got, exact))
    return float(worst) if worst < sys.float_info.max else math.inf


def _cmd_freeconv(args) -> str:
    analytic_wanted = args.route in ("analytic", "both")
    if analytic_wanted and (args.law_x is None or args.law_y is None):
        raise _Usage("the analytic route needs named laws, not moment files")
    if args.order < 1:
        raise _Usage(f"--order must be at least 1, got {args.order}")
    config = _resolved_config(
        args, ["law-x", "law-y", "moments-x", "moments-y", "route", "order",
               "grid-size", "eta"])
    result: dict = {}
    diagnostics: dict = {}
    laws = [_parse_law(text) if text is not None else None
            for text in (args.law_x, args.law_y)]
    cells = [measures.make_named(tag, args.grid_size, **params) for tag, params in laws] \
        if analytic_wanted else None

    def cumulants(i: int, order: int) -> list:
        """Free cumulants kappa_1.. of side i: its law's own up to ``order``,
        else those extracted from its quadrature moments, or from its moment
        file, which sets its own order."""
        if laws[i] is None:
            return series.free_cumulants_from_moments(
                _read_moments((args.moments_x, args.moments_y)[i]))
        tag, params = laws[i]
        exact = measures.named_cumulants(tag, order, **params)
        if exact is not None:
            return exact
        mu = cells[i] if cells else measures.make_named(tag, args.grid_size, **params)
        return series.free_cumulants_from_moments(
            [float(v) for v in measures.moments(mu, order)])

    if args.route in ("moments", "both"):
        kappas = [cumulants(i, args.order) for i in (0, 1)]
        result["moments"] = freeconv.free_convolve_cumulants(*kappas)
        exact = all(isinstance(k, Fraction) for side in kappas for k in side)
        result["moments_provenance"] = "exact" if exact else "quadrature"

    if analytic_wanted:
        mux, muy = cells
        cauchy_x, cauchy_y = [measures.named_cauchy(tag, **params) for tag, params in laws]
        conv = freeconv.free_convolve_analytic(
            mux, muy, grid_size=args.grid_size, eta=args.eta,
            n_moments=min(args.order, 6), cauchy_x=cauchy_x, cauchy_y=cauchy_y)
        diagnostics["continuation_residual"] = conv.solver.residual
        diagnostics["functional_residual"] = conv.solver.functional
        diagnostics["iterations"] = conv.solver.iterations
        diagnostics["median_iterations"] = conv.solver.median_iterations
        diagnostics["safeguarded_steps"] = conv.solver.safeguarded_steps
        diagnostics["worst_z"] = conv.solver.worst_z
        diagnostics["mass_defect"] = conv.mass_defect
        if args.format == "csv":
            header = _csv_header(config)
            return header + measures.to_csv(conv.measure)
        output = [float(m) for m in measures.moments(conv.measure, _OUTPUT_MOMENTS)]
        kappas = [measures.named_cumulants(tag, _OUTPUT_MOMENTS, **params)
                  for tag, params in laws]
        diagnostics["output_moment_error"] = None if None in kappas else _worst_error(
            output, freeconv.free_convolve_cumulants(*kappas), relative=True)
        # an entry the float recursion could not determine (NaN) is null
        result["moments_quadrature"] = [None if math.isnan(m) else m for m in conv.moments]
        result["moments_output"] = output
        result["density"] = _measure_payload(conv.measure)
        result["density_provenance"] = "quadrature"
        if "moments" in result:
            diagnostics["route_agreement"] = _worst_error(
                result["moments_quadrature"], result["moments"], relative=False)
    if args.format == "csv":
        raise _Usage("CSV needs the analytic route (it emits the density grid)")
    return _report(config, result, diagnostics)


def _measure_payload(mu) -> dict:
    payload = {"atoms": [[float(a), float(w)] for a, w in mu.atoms]}
    if mu.support is not None:
        lo, hi = mu.support
        payload["support"] = [float(lo), float(hi)]
        payload["samples"] = [float(v) for v in mu.samples]
        payload["edges"] = list(mu.edges)
    return payload


def _cmd_kesten(args) -> str:
    _require_json(args)
    config = _resolved_config(args, ["d", "nmax"])
    loops = walks.kesten_loops(args.d, args.nmax)
    diag: dict = {"degree": loops.degree}
    if args.d >= 2:
        kg = walks.kesten_green(args.d, 0.1 / (2 * args.d))
        diag["decay_base"] = kg.decay_base
    return _report(
        config,
        {"loops": list(loops.values), "provenance": "exact"},
        diag,
    )


def _cmd_polya(args) -> str:
    _require_json(args)
    config = _resolved_config(args, ["d", "nmax"])
    total, exponent = walks.polya_diagnostic(args.d, args.nmax)
    result = {
        "partial_sum": total,
        "decay_exponent": exponent,
        "return_probability_estimate": (1.0 - 1.0 / total) if args.d >= 3 else None,
        "provenance": "quadrature",
    }
    note = (
        "partial sum converges; 1 - 1/sum estimates the return probability"
        if args.d >= 3
        else "partial sum diverges with nmax (recurrent walk)"
    )
    return _report(config, result, {"note": note})


def _cmd_flow(args) -> str:
    _require_json(args)
    config = _resolved_config(args, ["law", "z", "r", "h"])
    tag, params = _parse_law(args.law)
    mu = measures.make_named(tag, 512, **params)
    z = _parse_complex(args.z)
    rows = []
    for h in (args.h, args.h / 2, args.h / 4):
        res = freeconv.semicircle_flow_residual(mu, args.r, z, h)
        rows.append({"h": h, "residual": res, "abs": abs(res)})
    ratios = [
        coarse["abs"] / fine["abs"] if fine["abs"] > 0 else float("inf")
        for coarse, fine in zip(rows, rows[1:])
    ]
    return _report(
        config,
        {"rows": rows, "ratios": ratios, "provenance": "quadrature"},
        {},
    )


def _cmd_rmt(args) -> str:
    config = _resolved_config(args, ["kind", "N", "trials", "degree", "workers"])
    report = rmt.freeness_experiment(
        args.kind, args.N, args.trials, args.degree,
        seed=args.seed, workers=args.workers)
    rows = [
        {"label": r.label, "empirical": r.empirical, "stderr": r.stderr,
         "predicted": r.predicted, "z": r.z}
        for r in report.rows
    ]
    if args.format == "csv":
        lines = [_csv_header(config), "label,empirical,stderr,predicted,z\n"]
        for r in report.rows:
            lines.append(
                f"{r.label},{_fmt_float(r.empirical)},{_fmt_float(r.stderr)},"
                f"{_fmt_float(r.predicted)},{_fmt_float(r.z)}\n"
            )
        return "".join(lines)
    return _report(
        config,
        {"rows": rows, "max_abs_z": report.max_abs_z(), "provenance": "monte-carlo"},
        {},
    )


def _pretty_expansion(terms: dict) -> str:
    if not terms:
        return "0"
    bits = []
    for r, cnt in sorted(terms.items()):
        if r == 0:
            bits.append(str(cnt))
        elif cnt == 1:
            bits.append(f"N^-{r}")
        else:
            bits.append(f"{cnt} N^-{r}")
    return " + ".join(bits)


def _cmd_wick(args) -> str:
    _require_json(args)
    config = _resolved_config(args, ["n", "N"])
    terms = rmt.wick_trace_moment(args.n)
    result = {
        "terms": [[r, c] for r, c in sorted(terms.items())],
        "pretty": _pretty_expansion(terms),
        "provenance": "exact",
    }
    if args.N is not None:
        result["value"] = rmt.wick_trace_moment(args.n, args.N)
    return _report(config, result, {"pairings": sum(terms.values())})


def _cmd_weingarten(args) -> str:
    _require_json(args)
    try:
        images = tuple(int(t) for t in args.perm.split(","))
        perm = Permutation(images)
    except ValueError as exc:
        raise _Usage(f"bad --perm {args.perm!r}: {exc}")
    config = _resolved_config(args, ["perm", "N", "R"])
    expansion = rmt.weingarten_series(perm, R=args.R)
    result = {
        "permutation": list(images),
        "cayley_distance": perm.cayley_distance,
        "coefficients": list(expansion.coefficients),
        "leading": expansion.leading,
        "provenance": "exact",
    }
    diagnostics: dict = {"truncation": expansion.R}
    if args.N is not None:
        val = expansion.evaluate(args.N)
        result["value"] = val.value
        result["value_is_exact"] = val.exact
        if not val.exact:
            result["provenance"] = "quadrature"
            diagnostics["error_bound"] = val.error_bound
    return _report(config, result, diagnostics)


_COMMANDS = {
    "cumulants": _cmd_cumulants,
    "freeconv": _cmd_freeconv,
    "kesten": _cmd_kesten,
    "polya": _cmd_polya,
    "flow": _cmd_flow,
    "rmt": _cmd_rmt,
    "wick": _cmd_wick,
    "weingarten": _cmd_weingarten,
}


def run(argv) -> int:
    """Parse argv, execute, emit the report; returns the exit code."""
    argv = list(argv)
    try:
        path = _config_parser().parse_known_args(argv)[0].config
        if path is not None:
            argv[1:1] = _load_config_file(path)
        args = _build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        _check_output(args.output)
        text = _COMMANDS[args.command](args)
        _emit(text, args.output)
        return 0
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ContinuationError, InversionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
