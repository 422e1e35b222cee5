"""Command-line front end.

Subcommands
-----------
graph aghp|complete|spectrum   construct graphs, report expansion
verify <check>                 run one of the exact verification suites
code gen-base|encode|report    base-code search, encoding, bias report

Exit codes are exactly five: 0 all assertions pass, 1 a verified
violation (or a failed randomized search), 2 invalid input, 3 budget
exceeded or an allocation refused, 4 hypotheses unmet or no row
asserted, so no verdict was made.

Every run echoes its resolved configuration: as a "run" object in JSON
output, as a leading "# {...}" comment line in CSV output.  Outputs are
deterministic given (config, seed).  --workers is accepted and echoed in
the run header only: every computation is single-threaded, so it cannot
change any other output byte.

The program entry, run by the widewalk script and by python -m
widewalk.cli, freezes the objects that importing the package made
(gc.freeze) before main reads its arguments, so the collections at exit
do not traverse them; output bytes, exit codes and flushing are as main
gives them.  main(argv), called in-process, freezes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .amplify import (
    MomentReport,
    SignedFn,
    _check_induction_kmax,
    check_base_case,
    check_bias_reduction_lemma,
    check_induction_step,
    verify_induction_arithmetic,
)
from .code import (
    AmplifiedCode,
    BaseCodeSearchFailed,
    LinearCode,
    _check_shape,
    code_report,
    encode as encode_message,
    gen_base_code,
)
from .gf2core import parse_hex
from .graphs import (
    SPECTRUM_SCAN_LIMIT,
    CayleyGraph,
    _check_walk_length,
    _json_object,
    build_aghp,
    build_complete_selfloop,
    holds,
    json_field,
    spectrum,
)
from .hitting import check_hitting
from .walks import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ReplacementSystem,
    WalkParams,
    _check_uniform_level,
    check_first_coord_uniform,
    check_pseudorandomness,
)

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_HYPOTHESES = 4


def _exit_code(report) -> int:
    """The one exit rule of verify * and code report: 4 when the hypotheses
    are unmet or no row is asserted, 1 when an asserted row failed, else 0.
    report is a MomentReport (rows asserted unless vacuous) or a command's
    (met, asserted, passed).  The moment report's last line is its own:
    perfbench/test_gate.py rewrites it to fail the three verify jobs."""
    if not isinstance(report, MomentReport):
        met, asserted, passed = report
        if not met or not asserted:
            return EXIT_HYPOTHESES
        return EXIT_PASS if passed else EXIT_VIOLATION
    if not report.hypotheses_met or all(r.vacuous for r in report.rows):
        return EXIT_HYPOTHESES
    return EXIT_PASS if report.all_passed else EXIT_VIOLATION


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _csv_cell(value) -> str:
    """None as an empty cell, a number as its repr, and a string as it is,
    or quoted with its quotes doubled when it holds a comma, a quote, CR
    or LF (RFC 4180; the rule of csv.QUOTE_MINIMAL)."""
    if value is None:
        return ""
    if not isinstance(value, str):
        return repr(value)
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _emit(
    args,
    header: dict,
    payload: dict,
    columns: tuple[str, ...],
    rows: Optional[list[dict]] = None,
    flat: bool = False,
    graph: Optional[CayleyGraph] = None,
) -> None:
    """Write one run to --out or stdout, the only place that knows the formats.

    JSON: {"schema_version", "run": header} with the payload under "report",
    or merged in when flat, as one json.dumps string.  A graph's flat
    payload holds null for "generators", and graph.generators_json writes
    the list in its place, chunk by chunk.
    CSV: "# " + the header as one JSON line, the column names, then those
    columns of rows (default payload["rows"]), the same dicts the JSON
    prints, as one string.
    """
    if args.format == "csv":
        lines = ["# " + json.dumps(header, sort_keys=True, default=_json_default), ",".join(columns)]
        for row in payload["rows"] if rows is None else rows:
            lines.append(",".join(_csv_cell(row[c]) for c in columns))
        chunks = ["\n".join(lines) + "\n"]
    else:
        doc = {"schema_version": SCHEMA_VERSION, "run": header}
        if flat:
            doc.update(payload)
        else:
            doc["report"] = payload
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"
        chunks = [text] if graph is None else graph.generators_json(text)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(chunks)


def _decimal(kind, least=None):
    """The parser of every decimal input: what kind() accepts, less empty
    text, non-ASCII digits, "_" separators and, when given, values below
    least.  It is named after kind, so that argparse errors read "invalid
    int value"."""
    def parse(text: str):
        if not text or not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not an ASCII decimal {kind.__name__}")
        value = kind(text)
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = kind.__name__
    return parse


_int, _float = _decimal(int), _decimal(float)


def _header(args, system: Optional[dict] = None, **extra) -> dict:
    h = {
        "command": f"{args.command} {args.subcommand}",
        "format": args.format,
        "seed": args.seed,
        "budget": args.budget,
        "workers": args.workers,
    }
    if system is not None:
        h["system"] = system
    h.update(extra)
    return h


def _load_graph(path: str) -> CayleyGraph:
    return CayleyGraph.from_json(Path(path).read_text())


# The config file's keys, and no other, each with its JSON kind and default:
# None marks a required key, Ellipsis an optional one, echoed only when present.
_CONFIG_SCHEMA = {
    "m": (int, None), "s": (int, None), "ell": (int, None),
    "outer": (str, "complete"), "inner": (str, "aghp"),  # a builtin graph or a graph file
    "t": (int, ...), "support": (str, ...),  # the walk length and the f spec
}


def _read_config(path: str) -> dict:
    """The resolved fields of a config file, every one kind-checked before
    any graph is built; the run header echoes them."""
    cfg = _json_object(Path(path).read_text(), f"config {path}")
    unknown = sorted(cfg.keys() - _CONFIG_SCHEMA.keys())
    if unknown:
        raise ValueError(f"unknown config field {unknown[0]!r}")
    return {key: json_field(cfg, key, kind, default)
            for key, (kind, default) in _CONFIG_SCHEMA.items() if default is not ... or key in cfg}


def _walk_and_outer(cfg: dict) -> tuple[WalkParams, CayleyGraph]:
    """The walk parameters and the outer graph: a command checks its own
    flags against them before _system builds the inner graph, the costly one."""
    params = WalkParams(cfg["m"], cfg["s"], cfg["ell"])
    outer = cfg["outer"]
    return params, build_complete_selfloop(params.m) if outer == "complete" else _load_graph(outer)


def _system(cfg: dict, params: WalkParams, outer: CayleyGraph) -> ReplacementSystem:
    inner = build_aghp(params.r, params.ell) if cfg["inner"] == "aghp" else _load_graph(cfg["inner"])
    return ReplacementSystem(outer, inner, params)


def _split(spec: str, parse, *args) -> list:
    """The entries of every comma-separated list, each stripped and read by
    parse(entry, *args); every such parse refuses an empty entry."""
    return [parse(tok.strip(), *args) for tok in spec.split(",")]


def _resolve_f(spec: str, n: int) -> SignedFn:
    """f from a spec string: "balanced", "empty" (bias 1), or a
    comma-separated hex list of support vertices."""
    if spec == "balanced":
        return SignedFn.balanced(n)
    if spec == "empty":
        return SignedFn.zero(n)
    return SignedFn.from_support(n, _split(spec, parse_hex, "support vertex"))


def _parse_set(spec: str, n: int) -> list[int]:
    """Vertex subset: "first-K" shorthand or a comma-separated hex list."""
    if spec.startswith("first-"):
        count = _int(spec[len("first-"):])
        if not 1 <= count <= n:
            raise ValueError(f"first-{count} out of range for {n} vertices")
        return list(range(count))
    return _split(spec, parse_hex, "set vertex")


def _emit_graph(args, g: CayleyGraph, **extra) -> int:
    # the fields of CayleyGraph.to_json; _emit writes the generators
    payload = {"name": g.name, "dim": g.dim, "generators": None, "multigraph": g.multigraph}
    if g.dim <= SPECTRUM_SCAN_LIMIT:
        rep = spectrum(g)
        payload["lambda"] = rep.lam
        payload["lambda_exact"] = rep.lambda_exact
    row = {**payload, "degree": g.degree, "lambda": payload.get("lambda")}
    _emit(args, _header(args, **extra), payload, ("name", "dim", "degree", "lambda"), [row],
          flat=True, graph=g)
    return EXIT_PASS


def _cmd_graph_aghp(args) -> int:
    return _emit_graph(args, build_aghp(args.r, args.ell), r=args.r, ell=args.ell)


def _cmd_graph_complete(args) -> int:
    selfloop = not args.no_selfloop
    g = build_complete_selfloop(args.m, selfloop=selfloop)
    return _emit_graph(args, g, m=args.m, selfloop=selfloop)


def _cmd_graph_spectrum(args) -> int:
    g = _load_graph(args.path)
    rep = spectrum(g)
    payload = {
        "name": g.name,
        "dim": g.dim,
        "degree": g.degree,
        "lambda": rep.lam,
        "lambda_exact": rep.lambda_exact,
        "argmax_character": rep.argmax_character,
        "method": "character-sum",  # the one method; the field keeps the output's bytes
    }
    _emit(args, _header(args, path=args.path), payload, ("name", "lambda", "method"), [payload])
    return EXIT_PASS


def _cmd_verify_distribution(args) -> int:
    """verify pseudorandomness (k = 1..s+1 by default) and verify
    uniformity (k = 1..s, whose rows also carry max_deviation)."""
    uniformity = args.subcommand == "uniformity"
    check = check_first_coord_uniform if uniformity else check_pseudorandomness
    columns = ("k", "tv", "max_deviation", "pass") if uniformity else ("k", "tv", "pass")
    resolved = _read_config(args.config)
    params, outer = _walk_and_outer(resolved)
    kmax = args.kmax if args.kmax is not None else (params.s if uniformity else params.s + 1)
    if kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {kmax}")
    if uniformity:
        _check_uniform_level(kmax, params.s)
    system = _system(resolved, params, outer)
    rows = []
    for k in range(1, kmax + 1):
        chk = check(system, k, budget=args.budget)
        row = {"k": k, "tv": chk.tv_distance, "max_deviation": chk.max_deviation, "pass": chk.equal}
        rows.append({c: row[c] for c in columns})
    payload = {"check": args.subcommand, "rows": rows}
    _emit(args, _header(args, system=resolved, kmax=kmax), payload, columns)
    return _exit_code((True, bool(rows), all(row["pass"] for row in rows)))


def _emit_moment(args, resolved: dict, report: MomentReport, **extra) -> int:
    # LevelRow's fields, in order
    columns = ("k", "epsilon", "sigma", "bound_eps", "bound_sigma", "pass", "vacuous")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "lambda": report.lam,
        "bias": report.bias,
        "hypotheses_met": report.hypotheses_met,
        "hypothesis_detail": report.hypothesis_detail,
        "all_passed": report.all_passed,
        "rows": [dict(zip(columns, astuple(r))) for r in report.rows],
        "extra": report.extra,
    }
    _emit(args, _header(args, system=resolved, **extra), payload, columns)
    return _exit_code(report)


def _walk_length(args, resolved: dict) -> int:
    """--t, else the config's "t", checked."""
    t = args.t if args.t is not None else resolved.get("t")
    if t is None:
        raise ValueError("walk length required: pass --t or put \"t\" in the config")
    return _check_walk_length(t)


def _cmd_verify_moment(args) -> int:
    """verify base-case (k = 0..s), induction (k = s+1..kmax, 2s by
    default) and bias-lemma (one walk length t), for the f of --support,
    else of the config's "support", else balanced."""
    resolved = _read_config(args.config)
    spec = args.support if args.support is not None else resolved.get("support", "balanced")
    resolved["support"] = spec
    params, outer = _walk_and_outer(resolved)
    f = _resolve_f(spec, outer.num_vertices)
    level = {}  # the subcommand's level flag, if it has one, by name
    if args.subcommand == "induction":
        kmax = args.kmax if args.kmax is not None else 2 * params.s
        level["kmax"] = _check_induction_kmax(kmax, params.s)
    elif args.subcommand == "bias-lemma":
        level["t"] = _walk_length(args, resolved)
    system = _system(resolved, params, outer)
    check = {"base-case": check_base_case, "induction": check_induction_step,
             "bias-lemma": check_bias_reduction_lemma}[args.subcommand]
    return _emit_moment(args, resolved, check(system, f, *level.values()), **level)


def _cmd_verify_arithmetic(args) -> int:
    lambdas, s_values = _split(args.lambdas, _float), _split(args.s_values, _int)
    report = verify_induction_arithmetic(lambdas, s_values, args.kmax)
    # ArithmeticRow's fields, in order
    columns = ("lambda", "s", "valid_region", "pass", "max_log_violation")
    payload = {
        "check": "induction-arithmetic",
        "spot_checks_passed": report.spot_checks_passed,
        "all_passed": report.all_passed,
        "rows": [dict(zip(columns, astuple(r))) for r in report.rows],
    }
    header = _header(args, lambdas=lambdas, s_values=s_values, kmax=args.kmax)
    _emit(args, header, payload, columns)
    # rows outside the proof's validity region are not asserted
    return _exit_code((True, any(r.valid for r in report.rows), report.all_passed))


def _cmd_verify_hitting(args) -> int:
    g = _load_graph(args.graph)
    subset = _parse_set(args.set, g.num_vertices)
    report = check_hitting(g, subset, args.tmax)
    payload = {
        "check": "hitting",
        "rho": report.rho,
        "lambda": report.lam,
        "rows": [
            {
                "t": r.t,
                "exact": float(r.exact),
                "exact_fraction": r.exact,
                "bound": float(r.bound),
                "pass": r.passed,
            }
            for r in report.rows
        ],
    }
    _emit(
        args,
        _header(args, graph=args.graph, set=args.set, tmax=args.tmax),
        payload,
        ("t", "exact", "bound", "pass"),
    )
    return _exit_code((True, report.asserted, report.all_passed))


def _cmd_code_gen_base(args) -> int:
    _check_shape(args.k, args.n0)  # before 2^k is computed
    # each try scans 2^k - 1 codewords of n0 bits, which bounds its k * n0 drawn bits too
    scan = ((1 << args.k) - 1) * args.n0
    if scan > args.budget:
        raise BudgetExceeded(scan, args.budget)
    rng = np.random.default_rng(args.seed)
    base = gen_base_code(args.k, args.n0, args.target_bias, rng, max_tries=args.max_tries)
    payload = base.to_json_dict()
    _emit(
        args,
        _header(args, k=args.k, n0=args.n0, target_bias=args.target_bias),
        payload,
        ("k", "n0", "bias"),
        [payload],
        flat=True,
    )
    return EXIT_PASS


def _amplified_for(args) -> tuple[AmplifiedCode, dict]:
    """The code of --config, --base and --t; --t is checked before the inner graph is built."""
    resolved = _read_config(args.config)
    base = LinearCode.from_json(Path(args.base).read_text())
    params, outer = _walk_and_outer(resolved)
    resolved["t"] = t = _walk_length(args, resolved)
    return AmplifiedCode(base, _system(resolved, params, outer), t), resolved


def _cmd_code_encode(args) -> int:
    amp, resolved = _amplified_for(args)
    bits = encode_message(amp, parse_hex(args.message, "message"), budget=args.budget)
    length, ones = int(bits.size), int(bits.sum())
    packed = np.packbits(bits, bitorder="little")
    del bits  # one byte a bit: dropped before the hex and JSON copies
    payload = {
        "message": args.message,
        "k": amp.base.k,
        "length": length,
        "bits_hex": packed.tobytes().hex(),
        "ones": ones,
    }
    header = _header(args, system=resolved, base=args.base, message=args.message)
    _emit(args, header, payload, ("message", "length", "ones"), [payload])
    return EXIT_PASS


def _cmd_code_report(args) -> int:
    amp, resolved = _amplified_for(args)
    report = code_report(amp)
    fields = [
        "k", "n0", "base_bias", "t", "block_length", "rate",
        "bias", "bias_bound", "bias_bound_vacuous", "distance_lower_bound",
    ]
    rows = [{"key": k, "value": report[k]} for k in fields]
    _emit(args, _header(args, system=resolved, base=args.base), report, ("key", "value"), rows)
    passed = holds(report["bias"], report["bias_bound"])
    return _exit_code((report["hypotheses_met"], not report["bias_bound_vacuous"], passed))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one "error: ..." line and
    exit 2; --help is unchanged, and subparsers are of this class too."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {self.prog}: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_decimal(int, least=0), default=0, help="RNG seed (64-bit)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--workers", type=_decimal(int, least=1), default=None,
                   help="echoed in the run header only; computation is single-threaded")
    p.add_argument("--budget", type=_decimal(int, least=0), default=DEFAULT_BUDGET,
                   help="enumeration budget (items)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="widewalk",
        description="wide replacement-walk construction and verification toolkit",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def sub(family, name, func, help):
        """One subcommand of family, with its handler and the common options."""
        p = family.add_parser(name, help=help)
        p.set_defaults(func=func)
        _add_common(p)
        return p

    graph = top.add_parser("graph", help="construct graphs and report expansion")
    gsub = graph.add_subparsers(dest="subcommand", required=True)
    p = sub(gsub, "aghp", _cmd_graph_aghp, "small-bias Cayley graph over F_2^r")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--ell", type=_int, required=True)
    p = sub(gsub, "complete", _cmd_graph_complete, "complete graph over F_2^m")
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--no-selfloop", action="store_true")
    p = sub(gsub, "spectrum", _cmd_graph_spectrum, "expansion of a stored graph")
    p.add_argument("path")

    verify = top.add_parser("verify", help="run an exact verification suite")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    p = sub(vsub, "pseudorandomness", _cmd_verify_distribution,
            "wide walk vs pure walk, exact TV per k")
    p.add_argument("--config", required=True)
    p.add_argument("--kmax", type=_int, default=None, help="max vertex count (default s+1)")
    p = sub(vsub, "uniformity", _cmd_verify_distribution,
            "first-block tuple uniformity for k <= s")
    p.add_argument("--config", required=True)
    p.add_argument("--kmax", type=_int, default=None)
    p = sub(vsub, "base-case", _cmd_verify_moment, "moment bounds for k = 0..s")
    p.add_argument("--config", required=True)
    p.add_argument("--support", default=None,
                   help='f spec: "balanced", "empty", or hex vertex list')
    p = sub(vsub, "induction", _cmd_verify_moment, "moment recurrences for k > s")
    p.add_argument("--config", required=True)
    p.add_argument("--support", default=None)
    p.add_argument("--kmax", type=_int, default=None, help="default 2s")
    p = sub(vsub, "bias-lemma", _cmd_verify_moment, "end-to-end bias bound at walk length t")
    p.add_argument("--config", required=True)
    p.add_argument("--support", default=None)
    p.add_argument("--t", type=_int, default=None)
    p = sub(vsub, "arithmetic", _cmd_verify_arithmetic,
            "closed-form-into-recurrence substitutions on a grid")
    p.add_argument("--lambdas", default="0.01,0.05,0.1,0.2,0.25")
    p.add_argument("--s-values", dest="s_values", default="5,8,16,32")
    p.add_argument("--kmax", type=_int, default=200,
                   help="levels s+1..kmax: k cancels, so it changes no row; must exceed every s")
    p = sub(vsub, "hitting", _cmd_verify_hitting, "confined-walk survival vs closed-form bound")
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.add_argument("--set", required=True,
                   help='subset: "first-K" or comma-separated hex vertices')
    p.add_argument("--tmax", type=_int, default=12)

    code = top.add_parser("code", help="base-code search, encoding, bias report")
    csub = code.add_subparsers(dest="subcommand", required=True)
    p = sub(csub, "gen-base", _cmd_code_gen_base, "randomized search for a low-bias base code")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--n0", type=_int, required=True)
    p.add_argument("--target-bias", dest="target_bias", type=_float, required=True)
    p.add_argument("--max-tries", dest="max_tries", type=_int, default=1000)
    p = sub(csub, "encode", _cmd_code_encode, "encode one message as walk-XOR bits")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True, help="base code JSON path")
    p.add_argument("--message", required=True, help="message as hex")
    p.add_argument("--t", type=_int, default=None)
    p = sub(csub, "report", _cmd_code_report, "bias, rate, and distance bound")
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--t", type=_int, default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_PASS
    digits = sys.get_int_max_str_digits()  # lifted so exact ints print in full
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as e:  # numpy's message names the refused allocation
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except BaseCodeSearchFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        sys.set_int_max_str_digits(digits)


def _entry() -> int:
    """The program entry: main() on sys.argv, after gc.freeze() has moved
    what the import made, which lives until exit, out of every collection,
    the ones at exit included."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(_entry())
