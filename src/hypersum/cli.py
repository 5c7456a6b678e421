"""Command-line interface.

Inputs are JSON documents (file path or - for stdin); rationals are written
as integers or "p/q" strings, never floats.  Results go to stdout as JSON,
errors to stderr.  Exit codes: 0 success, 1 malformed or unsuitable input,
2 a resource cap was exceeded or memory ran out, 3 an internal invariant
failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .analysis import check_boolean, check_equal, count_sat
from .errors import CapExceeded, InvariantViolation
from .fppoly import DEFAULT_DENSE_CAP, count_roots, count_system
from .gates import _FAMILY_TYPES, Family, FpPolynomial, LinComb, as_fraction
from .oracle import (
    DEFAULT_ORACLE_CAP,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_count_sat,
    oracle_sumprod,
)
from .sumprod import DEFAULT_TUPLE_CAP, sumprod

# One row per resource cap: flag, attribute, environment variable, default,
# help.  Precedence: flag, then environment variable, then default.
_CAPS = (
    ("--cap-tuples", "tuple_cap", "HYPERSUM_CAP_TUPLES", DEFAULT_TUPLE_CAP,
     "max tuples in one product expansion"),
    ("--cap-dense-vars", "dense_cap", "HYPERSUM_CAP_DENSE", DEFAULT_DENSE_CAP,
     "max variables for dense polynomial tables"),
    ("--cap-oracle-n", "oracle_cap", "HYPERSUM_CAP_ORACLE_N", DEFAULT_ORACLE_CAP,
     "max variables for brute-force enumeration"),
)


class UsageError(ValueError):
    """A command line the parser rejects: malformed input, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so they raise too
    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _fail(message: str, code: int) -> int:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _format(value) -> object:
    """An int or a Fraction as JSON: an integer, or a "p/q" string."""
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def _load(path: str) -> dict:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise TypeError("the document must be a JSON object")
    return data


def _resolve_caps(args) -> None:
    """Give every cap attribute left unset by its flag its effective value."""
    for _, name, env, default, _ in _CAPS:
        if getattr(args, name) is None:
            raw = os.environ.get(env)
            setattr(args, name, int(raw) if raw else default)


def _int(x, field: str) -> int:
    """An integer field: an int or a decimal string, never a float or a
    boolean."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"field {field!r} takes integers, not {type(x).__name__} {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


def _n(data: dict) -> int:
    """The field ``n``.  Past ``sys.maxsize``, 2^n has more bits than any
    machine can address."""
    n = _int(data["n"], "n")
    if n > sys.maxsize:
        raise ValueError(f"field 'n': 2^n cannot be represented for n = {n}")
    return n


def _rational(x, field: str) -> Fraction:
    """A rational field: an int or an "a/b" string, never a float or a
    boolean."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"field {field!r} takes rationals, not {type(x).__name__} {x!r}")
    try:
        return as_fraction(x)
    except ValueError as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


_KINDS = {list: "a list", dict: "an object"}


def _field(data: dict, field: str, kind: type):
    """A field that holds a JSON list or object."""
    value = data[field]
    if not isinstance(value, kind):
        raise TypeError(f"field {field!r} must be {_KINDS[kind]}")
    return value


def _objects(data: dict, field: str) -> list:
    """A field that holds a list of JSON objects."""
    items = _field(data, field, list)
    if not all(isinstance(x, dict) for x in items):
        raise TypeError(f"field {field!r} must be a list of objects")
    return items


def _terms(obj: dict) -> list:
    terms = []
    for term in _field(obj, "monomials", list):
        if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)):
            raise TypeError(
                f"field 'monomials' holds [variables, coefficient] pairs, not {term!r}"
            )
        variables, coeff = term
        terms.append(([_int(v, "monomials") for v in variables], _int(coeff, "monomials")))
    return terms


def _parse_gate(family: Family, obj: dict, n: int, p: Optional[int]):
    if family is Family.FP_POLY:
        if p is None:
            raise ValueError('family "fp" requires a top-level "p"')
        return FpPolynomial.from_terms(_int(p, "p"), n, _terms(obj))
    weights = [_rational(w, "weights") for w in _field(obj, "weights", list)]
    if len(weights) != n:
        raise ValueError(f"gate has {len(weights)} weights, expected n={n}")
    # THR, ETHR and ReLU each name their constant's JSON field by its
    # dataclass field
    kind = _FAMILY_TYPES[family]
    return kind(tuple(weights), _rational(obj[kind._constant], kind._constant))


def _parse_gates(data: dict):
    family = Family(data["family"])
    n = _n(data)
    gates = [_parse_gate(family, g, n, data.get("p")) for g in _objects(data, "gates")]
    return family, n, gates


def _parse_comb(data: dict) -> LinComb:
    family, n, gates = _parse_gates(data)
    coefficients = [_rational(c, "coefficients") for c in _field(data, "coefficients", list)]
    return LinComb(family, coefficients, gates, n)


def _parse_poly(data: dict) -> FpPolynomial:
    return FpPolynomial.from_terms(_int(data["p"], "p"), _n(data), _terms(data))


def _parse_system(data: dict) -> tuple[list[FpPolynomial], list[int]]:
    p = _int(data["p"], "p")
    n = _n(data)
    polys = [FpPolynomial.from_terms(p, n, _terms(obj)) for obj in _objects(data, "polys")]
    targets = _field(data, "targets", list) if "targets" in data else [0] * len(polys)
    targets = [_int(t, "targets") for t in targets]
    return polys, targets


def _scaled(data: dict, value) -> dict:
    """A Sum-Product payload, times the document's optional coefficients."""
    for c in _field(data, "coefficients", list) if "coefficients" in data else []:
        value = _rational(c, "coefficients") * value
    return {"value": _format(value)}


def _sumprod(data: dict, args) -> dict:
    _, n, gates = _parse_gates(data)
    value = sumprod(gates, n, tuple_cap=args.tuple_cap, dense_cap=args.dense_cap)
    return _scaled(data, value)


def _count_roots(data: dict, args) -> dict:
    return {"count": count_roots(_parse_poly(data), dense_cap=args.dense_cap)}


def _count_system(data: dict, args) -> dict:
    polys, targets = _parse_system(data)
    return {"count": count_system(polys, targets, dense_cap=args.dense_cap)}


def _check_boolean(data: dict, args) -> dict:
    verdict = check_boolean(
        _parse_comb(data), tuple_cap=args.tuple_cap, dense_cap=args.dense_cap
    )
    return {"is_boolean": verdict.is_boolean, "deviation": _format(verdict.deviation)}


def _count_sat(data: dict, args) -> dict:
    comb = _parse_comb(data)
    try:
        count = count_sat(
            comb,
            unchecked=args.unchecked,
            tuple_cap=args.tuple_cap,
            dense_cap=args.dense_cap,
        )
    except InvariantViolation as exc:
        # counting satisfying assignments of a non-Boolean input is a usage
        # error, not a kernel failure
        raise ValueError(str(exc)) from exc
    return {"count": count}


def _check_equal(data: dict, args) -> dict:
    verdict = check_equal(
        _parse_comb(_field(data, "left", dict)),
        _parse_comb(_field(data, "right", dict)),
        tuple_cap=args.tuple_cap,
        dense_cap=args.dense_cap,
    )
    return {"equal": verdict.equal, "distance": _format(verdict.distance)}


def _oracle_sumprod(data: dict, args) -> dict:
    _, n, gates = _parse_gates(data)
    return _scaled(data, oracle_sumprod(gates, n, cap=args.oracle_cap))


def _oracle_check_boolean(data: dict, args) -> dict:
    verdict = oracle_check_boolean(_parse_comb(data), cap=args.oracle_cap)
    witness = None if verdict.witness is None else list(verdict.witness)
    value = None if verdict.value is None else _format(verdict.value)
    return {"is_boolean": verdict.is_boolean, "witness": witness, "value": value}


def _oracle_count_sat(data: dict, args) -> dict:
    return {"count": oracle_count_sat(_parse_comb(data), cap=args.oracle_cap)}


def _oracle_count_system(data: dict, args) -> dict:
    polys, targets = _parse_system(data)
    return {"count": oracle_count_fp_system(polys, targets, cap=args.oracle_cap)}


# Every command that answers one JSON document: name -> (help, function from
# the document and the parsed arguments, caps resolved, to the JSON payload).
# "oracle" takes one more word, which picks its function.
_COMMANDS = {
    "sumprod": ("sum over the cube of a product of gates", _sumprod),
    "count-roots": ("roots of one polynomial over F_p", _count_roots),
    "count-system": ("common solutions of an F_p system", _count_system),
    "check-boolean": ("is a combination {0,1}-valued?", _check_boolean),
    "count-sat": ("satisfying assignments of a combination", _count_sat),
    "check-equal": ("pointwise equality of two combinations", _check_equal),
    "oracle": (
        "brute-force reference implementations",
        {
            "sumprod": _oracle_sumprod,
            "check-boolean": _oracle_check_boolean,
            "count-sat": _oracle_count_sat,
            "count-system": _oracle_count_system,
        },
    ),
}


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    for flag, name, _, _, help_ in _CAPS:
        parser.add_argument(flag, dest=name, type=int, default=None, help=help_)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(
        prog="hypersum",
        description="Exact Sum-Products of gate products over the Boolean cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == "oracle":
            p.add_argument("oracle_command", choices=list(run))
        p.add_argument("input", help="JSON file or - for stdin")
        if name == "count-sat":
            p.add_argument(
                "--unchecked",
                action="store_true",
                help="skip the Boolean-valuedness check",
            )
        _add_cap_flags(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve_caps(args)
        run = _COMMANDS[args.command][1]
        if args.command == "oracle":
            run = run[args.oracle_command]
        json.dump(run(_load(args.input), args), sys.stdout)
        sys.stdout.write("\n")
        return 0
    except CapExceeded as exc:
        return _fail(str(exc), 2)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory", 2)
    except InvariantViolation as exc:
        return _fail(str(exc), 3)
    except KeyError as exc:
        return _fail(f"missing field {exc.args[0]!r}", 1)
    except (ValueError, TypeError, OSError, RecursionError, OverflowError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
