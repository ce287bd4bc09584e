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
tolerance) or an `InversionError` (an inversion that went negative, lost
mass or was not finite).

Each input rule is checked once, by the library function that consumes the
input, which raises ValueError: law names and parameters in
`measures.resolve_law`, the grid floor in `measures.make_named` and, with
eta, in `freeconv.free_convolve_analytic`, z and the flow variance s in
`freeconv.semicircle_flow_residual`, the Monte Carlo settings in
`rmt.freeness_experiment`, the Wick order and N in `rmt.wick_trace_moment`,
the Weingarten size and truncation order in `rmt.weingarten_series` and N in
its `evaluate`, d and nmax in `walks`.  This module checks only what no
library function sees: the argv syntax, the text forms of rationals, laws,
permutations and complex numbers, which source feeds each side of freeconv,
the moment order, flow's radius, which subcommands emit CSV, and whether
--output can be written.

The argv syntax is ``COMMAND --option VALUE ...``, read against one option
table (`_COMMANDS`) that gives each option's type, default, choices and
whether it is required.  An option is written ``--name VALUE`` or
``--name=VALUE``; the name may be cut to a prefix that no other option of the
command shares, and an exact name wins over a prefix (an option ``--lam``
beside ``--lambda`` is ``--lam``, an option ``--h`` is not ``--help``).  The
token after ``--name`` is its value whatever it begins with, except ``--``:
``--z -0.5+2j`` is a value.
The last occurrence of an option wins.  ``-h``, ``--help`` or a prefix of it
prints the help of the program or of the command on stdout, with exit code 0.
A parse error exits 2 with a usage line on stderr.

freeconv's analytic route reads each named law from its record in
`measures` (`measures.named_input`), with no grid cells: its atoms, support,
exact moments and closed-form G.  A law without a closed-form G enters as
its cell measure on --grid-size points (on 512 in ``flow``, which reads its
law the same way, and whose ``provenance`` says which: ``closed_form`` or
``quadrature``).  Two equal laws (equal tags and resolved parameters,
`measures.resolve_law`) take the power route mu^{boxplus 2}
(`freeconv.free_power_analytic`), one G evaluation per Newton round; other
pairs take the two-law solve (`freeconv.free_convolve_analytic`).
``moments_quadrature`` is the float free
moment-cumulant recursion run on the inputs' moments m_1..m_n, n the smaller
of --order and 6: a closed-form law's exact moments rounded to floats, and a
cell measure's quadrature moments.  An entry that the recursion cannot
determine (past the float range) is null.  The output is judged by
``output_moment_error`` (``moments_output`` against the exact moments,
relative to max(1, |m|)), ``mass_defect`` (1 minus the inverted mass before
normalising) and ``clipped_negative_mass`` (the mass that clipping the
inverted density at 0 removed, before normalising).  The moment route
convolves as many moments as each side gives: --order of them for a law, as
many as it lists for a moment list; two sides that give different numbers
are a usage error.

numpy loads on first use (see `freeprob._numpy`), so the subcommands that
compute in Fractions and ints never load it: ``kesten``, ``cumulants``,
``wick``, ``weingarten`` and ``freeconv --route moments`` on laws with exact
cumulants or on moment lists.  ``polya``, ``flow``, ``rmt``, the analytic
route and the moments of a law without exact ones, which come from its
cells, do.

Settings resolve in the order: built-in default < FREEPROB_SEED environment
variable (seed only) < --config key=value file < explicit flags.  The file is
named by ``--config FILE`` in any of the spellings above (``--config=FILE``,
``--conf FILE``); each of its ``key=value`` lines is read as ``--key=value``.
The required options, and the sources of freeconv's two sides (exactly one
each), are checked after the file and the flags are merged.
"""

from __future__ import annotations

import math
import os
import sys
import types
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
    if x - x == 0:  # finite
        return f"{x:.17g}"
    if x != x:
        return '"NaN"'
    return '"Infinity"' if x > 0 else '"-Infinity"'


def _fmt_complex(z: complex) -> str:
    return '{"re": ' + _fmt_float(z.real) + ', "im": ' + _fmt_float(z.imag) + "}"


def _quote(obj) -> str:
    s = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


# The leaves by exact type, looked up before the isinstance tests of `_jdump`
# (an isinstance test against Fraction walks the numbers ABCs); subclasses,
# such as numpy's float64, take those tests.
_LEAVES = {
    bool: lambda v: "true" if v else "false",
    int: str,
    float: _fmt_float,
    Fraction: lambda v: f'"{v}"',
    complex: _fmt_complex,
    type(None): lambda v: "null",
    str: _quote,
}


def _jdump(obj, indent: int = 0) -> str:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
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
        if all(type(v) is float for v in obj):  # a density's samples, a moment list
            # a sum of floats is finite only if every term is
            if math.isfinite(sum(obj)):
                return ("[\n" + inner + (",\n" + inner).join(map("{:.17g}".format, obj))
                        + "\n" + pad + "]")
            rows = [inner + _fmt_float(v) for v in obj]
        else:
            rows = [f"{inner}{_jdump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if isinstance(obj, complex):
        return _fmt_complex(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return _quote(obj)


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


class _Help(Exception):
    """-h/--help: the help text, printed on stdout with exit code 0."""


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
    """key=value lines -> ``--key=value`` tokens, scanned like flags."""
    tokens = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise _Usage(f"{path}:{line_no}: expected key=value, got {line!r}")
            tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


def _usage(command) -> str:
    return f"usage: freeprob {command or 'COMMAND'} [--option VALUE ...]\n"


def _fail(command, message: str) -> _Usage:
    """A parse error; ``command`` is None before the command is known."""
    return _Usage(f"{_usage(command)}error: {message}")


def _help(command=None) -> str:
    """The help of the option table: its commands, or one command's options."""
    if command is None:
        rows = [f"  {name:<11} {entry[1]}" for name, entry in _COMMANDS.items()]
        return (f"{_usage(None)}\n{__doc__.splitlines()[0]}\n\ncommands:\n"
                + "\n".join(rows) + "\n\nfreeprob COMMAND --help lists its options.\n")
    _, text, options = _COMMANDS[command]
    rows = []
    for name, kind, default, note, *group in options + _COMMON:
        kind = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__
        if group:
            need = "one of --" + " | --".join(o[0] for o in options if o[4:] == tuple(group))
        elif default is ...:
            need = "required"
        else:
            need = "optional" if default is None else f"default {default}"
        rows.append(f"  --{name} {kind}: {need}" + (f"; {note}" if note else ""))
    return f"{_usage(command)}\n{text}\n\noptions:\n" + "\n".join(rows) + "\n"


def _scan(command, options: dict, tokens: list) -> dict:
    """The values that ``--name value`` and ``--name=value`` tokens give, by
    option name, converted to the option's type; the last one wins.  A name is
    an option's, else a prefix of just one; the token after ``--name`` is its
    value unless it begins with ``--``."""
    values = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "-h":
            raise _Help(_help(command))
        key, eq, value = token.partition("=")
        names = [n for n in (*options, "help") if n.startswith(key[2:])] \
            if key.startswith("--") and key != "--" else []
        if key[2:] in names:
            names = [key[2:]]
        if not names:
            raise _fail(command, f"unrecognized argument {token!r}")
        if len(names) > 1:
            raise _fail(command, f"ambiguous option {key} could match --"
                        + ", --".join(names))
        name = names[0]
        if name == "help":
            raise _Help(_help(command))
        if not eq:
            i += 1
            if i == len(tokens) or tokens[i].startswith("--"):
                raise _fail(command, f"argument --{name}: expected one argument")
            value = tokens[i]
        kind = options[name][1]
        if isinstance(kind, tuple):
            if value not in kind:
                raise _fail(command, f"argument --{name}: invalid choice {value!r} "
                            f"(choose from {', '.join(kind)})")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise _fail(command, f"argument --{name}: invalid {kind.__name__} "
                            f"value {value!r}")
        values[name] = value
        i += 1
    return values


def _parse(argv: list):
    """The args namespace of argv: the command, then each of its options
    resolved as default < --config file < flags, with the required options and
    the groups of which exactly one option is given checked after the merge."""
    command = argv[0] if argv else ""
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        raise _Help(_help())
    if command not in _COMMANDS:
        raise _fail(None, f"expected a command, one of {', '.join(_COMMANDS)}"
                    + (f"; got {command!r}" if argv else ""))
    options = {o[0]: o for o in _COMMANDS[command][2] + _COMMON}
    given = _scan(command, options, argv[1:])
    if "config" in given:
        given = {**_scan(command, options, _load_config_file(given["config"])), **given}
    missing = [f"--{name}" for name, o in options.items() if o[2] is ... and name not in given]
    if missing:
        raise _fail(command, "the following options are required: " + ", ".join(missing))
    for group in dict.fromkeys(o[4:] for o in options.values() if o[4:]):
        names = [name for name, o in options.items() if o[4:] == group]
        if sum(name in given for name in names) != 1:
            raise _fail(command, "give exactly one of --" + ", --".join(names))
    return types.SimpleNamespace(command=command, **{
        name.replace("-", "_"): given.get(name, o[2]) for name, o in options.items()})


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
# the largest float, as the integer it is
_FLOAT_MAX = int(sys.float_info.max)


def _worst_error(got: list, exact: list) -> float:
    """max |a - b|/max(1, |b|) over floats a and exact values b (Fractions,
    ints or finite floats), in exact arithmetic, since b need not fit a float;
    inf if some a is not finite, or the result is at or past the float range.

    Each term is the ratio of integers n/d that the ``as_integer_ratio()``
    pairs of a and b give, the terms are compared by cross-multiplying, and
    the largest is divided once: int/int division rounds correctly, as
    float(Fraction) does.
    """
    if not all(math.isfinite(a) for a in got):
        return math.inf
    num, den = 0, 1
    for a, b in zip(got, exact):
        p, q = a.as_integer_ratio()
        r, s = b.as_integer_ratio()
        # |a - b| = |p s - r q|/(q s); over |b| = |r|/s where that exceeds 1
        n = abs(p * s - r * q)
        d = q * abs(r) if abs(r) > s else q * s
        if n * den > num * d:
            num, den = n, d
    return num / den if num < _FLOAT_MAX * den else math.inf


def _law_input(tag: str, params: dict, grid_size: int):
    """The analytic route's input of a named law: its record's closed form,
    else, for a law without a closed-form G, its cell measure on
    ``grid_size`` points."""
    return measures.named_input(tag, **params) or measures.make_named(tag, grid_size, **params)


def _solver_diagnostics(solver) -> dict:
    """The counters of a subordination solve (`freeconv.SolverCounters`)."""
    return {
        "continuation_residual": solver.residual,
        "iterations": solver.iterations,
        "median_iterations": solver.median_iterations,
        "safeguarded_steps": solver.safeguarded_steps,
        "worst_z": solver.worst_z,
    }


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
    inputs = None
    if analytic_wanted:
        # a law with a closed form enters as itself, one without as its cell
        # measure; mu boxplus mu: one input serves both sides
        first = _law_input(*laws[0], args.grid_size)
        inputs = [first, first if laws[1] == laws[0] else _law_input(*laws[1], args.grid_size)]

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
        mu = inputs[i] if inputs else measures.make_named(tag, args.grid_size, **params)
        return series.free_cumulants_from_moments(
            [float(v) for v in measures.moments(mu, order)])

    if args.route in ("moments", "both"):
        kappas = [cumulants(i, args.order) for i in (0, 1)]
        if len(kappas[0]) != len(kappas[1]):
            raise _Usage(f"the two sides give different numbers of moments: {len(kappas[0])} "
                         f"for x and {len(kappas[1])} for y (a law gives --order of them)")
        result["moments"] = freeconv.free_convolve_cumulants(*kappas)
        exact = all(isinstance(k, Fraction) for side in kappas for k in side)
        result["moments_provenance"] = "exact" if exact else "quadrature"

    if analytic_wanted:
        options = {"grid_size": args.grid_size, "eta": args.eta, "n_moments": min(args.order, 6)}
        # mu boxplus mu is the power mu^{boxplus 2}: one G evaluation per round
        conv = freeconv.free_power_analytic(first, 2.0, **options) if laws[1] == laws[0] else \
            freeconv.free_convolve_analytic(*inputs, **options)
        diagnostics.update(_solver_diagnostics(conv.solver))
        diagnostics["mass_defect"] = conv.mass_defect
        diagnostics["clipped_negative_mass"] = conv.measure.clipped_negative_mass
        if args.format == "csv":
            header = _csv_header(config)
            return header + measures.to_csv(conv.measure)
        output = [float(m) for m in measures.moments(conv.measure, _OUTPUT_MOMENTS)]
        kappas = [measures.named_cumulants(tag, _OUTPUT_MOMENTS, **params)
                  for tag, params in laws]
        diagnostics["output_moment_error"] = None if None in kappas else _worst_error(
            output, freeconv.free_convolve_cumulants(*kappas))
        # an entry the float recursion could not determine (NaN) is null
        result["moments_quadrature"] = [None if math.isnan(m) else m for m in conv.moments]
        result["moments_output"] = output
        result["density"] = _measure_payload(conv.measure)
        result["density_provenance"] = "quadrature"
    if args.format == "csv":
        raise _Usage("CSV needs the analytic route (it emits the density grid)")
    return _report(config, result, diagnostics)


def _measure_payload(mu) -> dict:
    payload = {"atoms": [[float(a), float(w)] for a, w in mu.atoms]}
    if mu.support is not None:
        lo, hi = mu.support
        payload["support"] = [float(lo), float(hi)]
        payload["samples"] = mu.samples.tolist()
        payload["edges"] = list(mu.edges)
    return payload


def _cmd_kesten(args) -> str:
    _require_json(args)
    config = _resolved_config(args, ["d", "nmax"])
    loops = walks.kesten_loops(args.d, args.nmax)
    diag: dict = {"degree": loops.degree}
    if args.d >= 2:
        diag["decay_base"] = walks.kesten_decay_base(args.d, loops)
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
    config = _resolved_config(args, ["law", "z", "r"])
    if not args.r > 0:
        raise _Usage(f"--r must be positive, got {args.r}")
    mu = _law_input(*_parse_law(args.law), 512)
    provenance = "quadrature" if isinstance(mu, measures.Measure) else "closed_form"
    z = _parse_complex(args.z)
    solver = freeconv.SolverCounters()
    s0 = args.r * args.r / 4.0
    rows = []
    # Im z_s is linear in s, so once the s0 row is in the upper half-plane
    # the other rows are too
    for s in (s0, s0 / 2, s0 / 4):
        point, residual = freeconv.semicircle_flow_residual(mu, s, z, solver)
        rows.append({"s": s, "point": point, "residual": residual})
    return _report(config, {"rows": rows, "provenance": provenance},
                   _solver_diagnostics(solver))


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


# The option table.  Each command maps to its function, its help line and its
# options; each option is (name, type, default, help[, group]).  The type is
# int, float or str, or the tuple of the values allowed; a default of ...
# marks a required option; of the options that name a group, exactly one
# must be given.  Every command also takes _COMMON.
_COMMON = (
    ("seed", int, None, "master seed (default: FREEPROB_SEED or 0)"),
    ("output", str, "-", "output path, - for stdout"),
    ("format", ("json", "csv"), "json", ""),
    ("config", str, None, "key=value file; flags win"),
)

_COMMANDS = {
    "cumulants": (_cmd_cumulants, "moments -> cumulants on both lattices", (
        ("moments", str, ..., "comma-separated rationals, or @file"),
        ("lattice", ("classical", "free", "both"), "both", ""),
    )),
    "freeconv": (_cmd_freeconv, "free additive convolution", (
        ("law-x", str, None, "named law, e.g. semicircle:r=2", "x"),
        ("moments-x", str, None, "rational list or @file", "x"),
        ("law-y", str, None, "named law, e.g. semicircle:r=2", "y"),
        ("moments-y", str, None, "rational list or @file", "y"),
        ("route", ("moments", "analytic", "both"), "both", ""),
        ("order", int, 8, "moment order for the exact route"),
        ("grid-size", int, 512, ""),
        ("eta", float, 1e-3, "the single height of the analytic route's Stieltjes inversion"),
    )),
    "kesten": (_cmd_kesten, "loop counts of the free-group walk", (
        ("d", int, ..., ""),
        ("nmax", int, ..., ""),
    )),
    "polya": (_cmd_polya, "return-probability decay diagnostics", (
        ("d", int, ..., ""),
        ("nmax", int, 2000, ""),
    )),
    "flow": (_cmd_flow, "semicircular-flow residual along the characteristic from z "
             "at s = r^2/4, s/2, s/4", (
        ("law", str, "point", "base measure (named law)"),
        ("z", str, "2j", "evaluation point, finite, Im z > 0"),
        ("r", float, 1.0, "flow radius: the rows are at variance s = r^2/4, s/2 and s/4"),
    )),
    "rmt": (_cmd_rmt, "asymptotic-freeness Monte Carlo experiment", (
        ("kind", rmt.FREENESS_KINDS, ..., ""),
        ("N", int, ..., ""),
        ("trials", int, ..., ""),
        ("degree", int, 4, ""),
        ("workers", int, 1, "threads for the gue_gue and gue_deterministic trials, "
                            "whose dense N x N products release the GIL; "
                            "rotated_diagonal's O(N) trials run as one batch in the "
                            "calling thread; the output does not depend on it"),
    )),
    "wick": (_cmd_wick, "exact GUE trace moment, genus by genus", (
        ("n", int, ..., ""),
        ("N", int, None, "evaluate at this dimension"),
    )),
    "weingarten": (_cmd_weingarten, "monotone-factorization expansion", (
        ("perm", str, ..., "one-line images, e.g. 2,1 for the transposition in S(2)"),
        ("N", int, None, ""),
        ("R", int, None, "truncation order"),
    )),
}


def run(argv) -> int:
    """Parse argv, execute, emit the report; returns the exit code."""
    argv = list(argv)
    try:
        args = _parse(argv)
        if args.seed is None:
            args.seed = _default_seed()
        _check_output(args.output)
        text = _COMMANDS[args.command][0](args)
        _emit(text, args.output)
        return 0
    except _Help as exc:
        sys.stdout.write(str(exc))
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
