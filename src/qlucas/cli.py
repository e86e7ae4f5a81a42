"""Command-line front end: computations and verification sweeps with JSON reports.

Every subcommand emits a single report, as readable text (default) or as a
JSON envelope {command, params, timestamp, report}. Reruns of the same
command produce byte-identical JSON apart from the timestamp. Exit status is
0 when the computation succeeded and any requested verification found no
failures, 1 when a verification reported failures or a negative verdict, and
2 on configuration errors.

main resolves the outside input before it calls the subcommand's handler:
--spec is loaded (a built-in name or a JSON file) and --jobs falls back to
the QLUCAS_JOBS environment variable, then to 1. A handler returns
(report, ok) and may write resolved defaults back to its arguments. params
then echoes every parsed argument except --format and --output, with specs
expanded to JSON, tuples as lists and rationals as strings.

Long values are elided in text mode only, with an explicit marker; JSON
output is always complete.

The argument parser is built on the first call to main, not at import, and
every later main call in the same process reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import catalog
from .congruence import (
    verify_apery,
    verify_inter2_identity,
    verify_plucas_at_one,
    verify_ratio_congruence,
)
from .intpoly import IntPolynomial, NotDivisible, cyclotomic, reduce_mod_cyclotomic
from .landau import DEFAULT_BUDGET, DimensionTooLarge, check_landau
from .qcombinatorics import NegativeExponent, RatioSpec, q_binomial, q_ratio, q_ratio_at_one, q_ratio_mod
from .relations import DEFAULT_MARGIN, find_relations, verify_relation
from .series import TruncatedSeries, build_F, extract_cofactor, specialize, verify_definition_Ld

_ELIDE_LIMIT = 120


# -- argument helpers ---------------------------------------------------------------


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _nonnegative_int(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 3 or 1/2, got {text!r}")


def _is_file(source: str) -> bool:
    """Whether a --spec or --series argument names a file, not a built-in."""
    return source.endswith(".json") or os.path.sep in source or os.path.exists(source)


def _read_json(source: str):
    return json.loads(Path(source).read_text(encoding="utf-8"))


def _load_spec(source: str) -> RatioSpec:
    if _is_file(source):
        return RatioSpec.from_json_dict(_read_json(source))
    return catalog.builtin_spec(source)


def _load_sequence(source: str, order: int, qval: Fraction) -> list:
    if _is_file(source):
        raw = _read_json(source)
        if not isinstance(raw, list) or any(isinstance(v, bool) for v in raw):
            raise ValueError(f"{source}: expected a JSON list of numbers")
        return [v if isinstance(v, int) else Fraction(str(v)) for v in raw]
    return catalog.builtin_sequence(source, order, qval)


def _load_series(source: str, order: int) -> TruncatedSeries:
    if _is_file(source):
        raw = _read_json(source)
        if not isinstance(raw, dict) or not {"num_vars", "cap", "coefficients"} <= raw.keys():
            raise ValueError(f"{source}: expected a JSON object with num_vars, cap and coefficients")
        return TruncatedSeries.from_json_list(raw["num_vars"], raw["cap"], raw["coefficients"])
    coeffs = catalog.builtin_sequence(source, order, 1)
    if any(not isinstance(c, int) for c in coeffs):
        raise ValueError("verify-ld needs an integer sequence")
    return TruncatedSeries.from_coefficients(coeffs)


def _jobs(flag: int | None) -> int:
    """The --jobs flag, else QLUCAS_JOBS, else 1."""
    if flag is not None:
        return flag
    raw = os.environ.get("QLUCAS_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QLUCAS_JOBS must be an integer, got {raw!r}") from None


def _poly_json(p: IntPolynomial) -> dict:
    return {
        "degree": None if p.is_zero() else p.degree,
        "coefficients": list(p.to_strings()),
        "polynomial": str(p),
    }


# -- output -------------------------------------------------------------------------


def _elide(text: str) -> str:
    if len(text) <= _ELIDE_LIMIT:
        return text
    omitted = len(text) - 80
    return f"{text[:60]} ... [{omitted} characters elided] ... {text[-20:]}"


def _render_lines(key: str, value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for sub, item in value.items():
            _render_lines(sub, item, indent + 1, lines)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            joined = ", ".join(str(v) for v in value)
            lines.append(f"{pad}{key}: [{_elide(joined)}]")
        else:
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                _render_lines(f"[{i}]", item, indent + 1, lines)
    else:
        lines.append(f"{pad}{key}: {_elide(str(value))}")


def _render_text(envelope: dict) -> str:
    lines: list[str] = []
    for key, value in envelope.items():
        _render_lines(key, value, 0, lines)
    return "\n".join(lines) + "\n"


def _emit(envelope: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(envelope)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _echo(value):
    """One parsed argument as it appears in params."""
    if isinstance(value, RatioSpec):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


# -- subcommand handlers --------------------------------------------------------------


def _verdict(report):
    return report.to_json_dict(), report.ok


def _cmd_cyclotomic(args):
    return {"b": args.b, **_poly_json(cyclotomic(args.b))}, True


def _cmd_qbinom(args):
    poly = q_binomial(args.n, args.k)
    if args.mod is not None:
        poly = reduce_mod_cyclotomic(poly, args.mod)
    return {"n": args.n, "k": args.k, "mod": args.mod, **_poly_json(poly)}, True


def _cmd_qratio(args):
    if args.at_one:
        try:
            value = q_ratio_at_one(args.spec, args.point)
        except NotDivisible as exc:
            return {"integral": False, "error": str(exc)}, False
        return {"integral": True, "value_at_one": value}, True
    try:
        if args.mod is not None:
            poly = q_ratio_mod(args.spec, args.point, args.mod)
            return {"mod": args.mod, **_poly_json(poly)}, True
        poly = q_ratio(args.spec, args.point)
    except (NotDivisible, NegativeExponent) as exc:
        return {"integral": False, "error": str(exc)}, False
    return {"integral": True, **_poly_json(poly)}, True


def _cmd_check_landau(args):
    return _verdict(check_landau(args.spec, budget=args.budget))


def _cmd_verify_congruence(args):
    return _verdict(verify_ratio_congruence(args.spec, args.b_max, args.n_box, jobs=args.jobs))


def _cmd_verify_plucas(args):
    return _verdict(verify_plucas_at_one(args.spec, args.p_max, args.n_box, jobs=args.jobs))


def _cmd_verify_inter2(args):
    return _verdict(verify_inter2_identity(args.spec, args.b, args.n_box))


def _cmd_build_series(args):
    series = build_F(args.spec, args.cap)
    report = {
        "num_vars": series.num_vars,
        "cap": list(series.cap),
        "coefficients": series.to_json_list(),
    }
    return report, True


def _specialized(args) -> TruncatedSeries:
    """The --spec series at x_j <- q^t_j x^m_j; writes the --t/--m defaults to args."""
    args.t = args.t or (0,) * args.spec.dim
    args.m = args.m or (1,) * args.spec.dim
    cap = tuple(args.order // mj if mj else 0 for mj in args.m)
    return specialize(build_F(args.spec, cap), args.t, args.m, args.order)


def _cmd_specialize(args):
    series = _specialized(args)
    return {"order": args.order, "coefficients": series.to_json_list()}, True


def _cmd_extract_cofactor(args):
    series = _specialized(args)
    residues, report = extract_cofactor(series, series.values_at_q(1), args.b, args.order)
    out = {
        "residues": [_poly_json(r) for r in residues],
        "check": report.to_json_dict(),
    }
    return out, report.ok


def _cmd_verify_apery(args):
    return _verdict(verify_apery(args.family, args.t, args.b_max, args.n_max))


def _cmd_verify_ld(args):
    series = _load_series(args.series, args.order)
    return _verdict(verify_definition_Ld(series, args.p, args.k, args.order))


def _cmd_find_relations(args):
    data = [_load_sequence(src, 2 * args.order, args.q) for src in args.series]
    found = find_relations(data, args.dx, args.dy, args.order, margin=args.margin)
    stability_order = min(2 * args.order, min(len(f) for f in data) - 1)
    candidates = []
    any_artifact = False
    for cand in found:
        if stability_order > args.order:
            stable = verify_relation(cand, data, stability_order)
            status = "verified" if stable else "truncation artifact"
            any_artifact = any_artifact or not stable
        else:
            status = "unchecked"
        candidates.append(
            {**cand.to_json_dict(), "pretty": str(cand), "stability": status}
        )
    report = {
        "count": len(candidates),
        "stability_order": stability_order,
        "candidates": candidates,
    }
    return report, not any_artifact


# -- parser -------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlucas",
        description="Exact q-factorial ratio computations and congruence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to a file instead of stdout")
        return p

    p = add("cyclotomic", _cmd_cyclotomic, "compute one cyclotomic polynomial")
    p.add_argument("b", type=int)

    p = add("qbinom", _cmd_qbinom, "compute a Gaussian binomial coefficient")
    p.add_argument("n", type=_nonnegative_int)
    p.add_argument("k", type=int)
    p.add_argument("--mod", type=int, help="reduce modulo this cyclotomic index")

    p = add("qratio", _cmd_qratio, "evaluate a q-factorial ratio at a lattice point")
    p.add_argument("--spec", required=True, help="JSON file or built-in spec name")
    p.add_argument("--point", type=_csv_ints, required=True)
    p.add_argument("--mod", type=int, help="reduce modulo this cyclotomic index")
    p.add_argument("--at-one", action="store_true", help="integer value at q = 1")

    p = add("check-landau", _cmd_check_landau, "decide the step-function hypotheses")
    p.add_argument("--spec", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p = add("verify-congruence", _cmd_verify_congruence, "sweep the ratio congruence")
    p.add_argument("--spec", required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--n-box", type=_csv_ints, required=True)
    p.add_argument("--jobs", type=int)

    p = add("verify-plucas", _cmd_verify_plucas, "sweep the prime case at q = 1")
    p.add_argument("--spec", required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--n-box", type=_csv_ints, required=True)
    p.add_argument("--jobs", type=int)

    p = add("verify-inter2", _cmd_verify_inter2, "sweep the multiple-point identity")
    p.add_argument("--spec", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n-box", type=_csv_ints, required=True)

    p = add("build-series", _cmd_build_series, "tabulate the generating series")
    p.add_argument("--spec", required=True)
    p.add_argument("--cap", type=_csv_ints, required=True)

    p = add("specialize", _cmd_specialize, "substitute x_j <- q^t_j x^m_j")
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=_csv_ints)
    p.add_argument("--m", type=_csv_ints)
    p.add_argument("--order", type=_nonnegative_int, required=True)

    p = add("extract-cofactor", _cmd_extract_cofactor, "cyclotomic residues of a specialized series")
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=_csv_ints)
    p.add_argument("--m", type=_csv_ints)
    p.add_argument("--order", type=_nonnegative_int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = add("verify-apery", _cmd_verify_apery, "sweep the Apery-type congruence")
    p.add_argument("--family", choices=("a", "b"), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, required=True)

    p = add("verify-ld", _cmd_verify_ld, "decide the mod-p functional equation class")
    p.add_argument("--series", required=True, help="JSON file or built-in sequence name")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--order", type=_nonnegative_int, required=True)

    p = add("find-relations", _cmd_find_relations, "search for algebraic relations")
    p.add_argument("--series", action="append", required=True,
                   help="JSON file or built-in sequence name; repeatable")
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--order", type=_nonnegative_int, required=True)
    p.add_argument("--margin", type=_nonnegative_int, default=DEFAULT_MARGIN)
    p.add_argument("--q", type=_rational, default=Fraction(1))

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "spec"):
            args.spec = _load_spec(args.spec)
        if hasattr(args, "jobs"):
            args.jobs = _jobs(args.jobs)
        report, ok = args.handler(args)
        envelope = {
            "command": args.command,
            "params": {
                key: _echo(value)
                for key, value in vars(args).items()
                if key not in ("command", "handler", "format", "output")
            },
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "report": report,
        }
        _emit(envelope, args.format, args.output)
    except (ValueError, ArithmeticError, OSError, KeyError, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
