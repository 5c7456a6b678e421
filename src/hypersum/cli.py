"""Command-line interface.

Inputs are JSON documents (file path or - for stdin); rationals are written
as integers or "p/q" strings, never floats.  Results go to stdout as JSON,
errors to stderr.  Exit codes: 0 success, 1 malformed or unsuitable input,
2 a resource cap was exceeded, 3 an internal invariant failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Optional

from . import mitm
from .analysis import check_boolean, check_equal, count_sat
from .errors import CapExceeded, InvariantViolation
from .fppoly import DEFAULT_DENSE_CAP, count_roots, count_system
from .gates import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    LinComb,
    ReluGate,
    ThresholdGate,
    as_fraction,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_count_sat,
    oracle_sumprod,
)
from .randgen import (
    rand_ethr_instance,
    rand_fp_poly,
    rand_relu_instance,
    rand_thr_instance,
)
from .sumprod import DEFAULT_TUPLE_CAP, sumprod

_ENV_CAPS = {
    "tuple_cap": ("HYPERSUM_CAP_TUPLES", DEFAULT_TUPLE_CAP),
    "dense_cap": ("HYPERSUM_CAP_DENSE", DEFAULT_DENSE_CAP),
    "oracle_cap": ("HYPERSUM_CAP_ORACLE_N", DEFAULT_ORACLE_CAP),
}


def _fail(message: str, code: int) -> int:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _emit(payload: dict) -> int:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _format(value) -> object:
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def _load(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _caps(args) -> dict:
    out = {}
    for name, (env, default) in _ENV_CAPS.items():
        flag = getattr(args, name, None)
        if flag is not None:
            out[name] = flag
        else:
            raw = os.environ.get(env)
            out[name] = int(raw) if raw else default
    return out


def _int(x) -> int:
    """An integer field: an int or a decimal string, never a float."""
    if isinstance(x, float):
        raise TypeError(f"floats are not accepted for integer fields: {x!r}")
    return int(x)


def _terms(obj: dict) -> list:
    return [(vars_, _int(coeff)) for vars_, coeff in obj["monomials"]]


def _parse_gate(family: Family, obj: dict, n: int, p: Optional[int]):
    if family is Family.FP_POLY:
        if p is None:
            raise ValueError('family "fp" requires a top-level "p"')
        return FpPolynomial.from_terms(_int(p), n, _terms(obj))
    weights = [as_fraction(w) for w in obj["weights"]]
    if len(weights) != n:
        raise ValueError(f"gate has {len(weights)} weights, expected n={n}")
    if family is Family.THR:
        return ThresholdGate(tuple(weights), as_fraction(obj["threshold"]))
    if family is Family.ETHR:
        return ExactThresholdGate(tuple(weights), as_fraction(obj["target"]))
    if family is Family.RELU:
        return ReluGate(tuple(weights), as_fraction(obj["bias"]))
    raise ValueError(f"unknown family {family}")


def _parse_gates(data: dict):
    family = Family(data["family"])
    n = _int(data["n"])
    gates = [_parse_gate(family, g, n, data.get("p")) for g in data["gates"]]
    return family, n, gates


def _parse_comb(data: dict) -> LinComb:
    family, n, gates = _parse_gates(data)
    coefficients = tuple(as_fraction(c) for c in data["coefficients"])
    return LinComb(family, coefficients, tuple(gates), n)


def _parse_poly(data: dict) -> FpPolynomial:
    return FpPolynomial.from_terms(_int(data["p"]), _int(data["n"]), _terms(data))


def _parse_system(data: dict) -> tuple[list[FpPolynomial], list[int]]:
    p = _int(data["p"])
    n = _int(data["n"])
    polys = [FpPolynomial.from_terms(p, n, _terms(obj)) for obj in data["polys"]]
    targets = [_int(t) for t in data.get("targets", [0] * len(polys))]
    return polys, targets


def _cmd_sumprod(args) -> int:
    caps = _caps(args)
    data = _load(args.input)
    _, n, gates = _parse_gates(data)
    value = sumprod(
        gates,
        n,
        tuple_cap=caps["tuple_cap"],
        dense_cap=caps["dense_cap"],
    )
    for c in data.get("coefficients", []):
        value = as_fraction(c) * value
    return _emit({"value": _format(value)})


def _cmd_count_roots(args) -> int:
    caps = _caps(args)
    poly = _parse_poly(_load(args.input))
    return _emit({"count": count_roots(poly, dense_cap=caps["dense_cap"])})


def _cmd_count_system(args) -> int:
    caps = _caps(args)
    polys, targets = _parse_system(_load(args.input))
    count = count_system(polys, targets, dense_cap=caps["dense_cap"])
    return _emit({"count": count})


def _cmd_check_boolean(args) -> int:
    caps = _caps(args)
    comb = _parse_comb(_load(args.input))
    verdict = check_boolean(
        comb,
        tuple_cap=caps["tuple_cap"],
        dense_cap=caps["dense_cap"],
    )
    return _emit(
        {"is_boolean": verdict.is_boolean, "deviation": _format(verdict.deviation)}
    )


def _cmd_count_sat(args) -> int:
    caps = _caps(args)
    comb = _parse_comb(_load(args.input))
    try:
        count = count_sat(
            comb,
            unchecked=args.unchecked,
            tuple_cap=caps["tuple_cap"],
            dense_cap=caps["dense_cap"],
        )
    except InvariantViolation as exc:
        # counting satisfying assignments of a non-Boolean input is a usage
        # error, not a kernel failure
        return _fail(str(exc), 1)
    return _emit({"count": count})


def _cmd_check_equal(args) -> int:
    caps = _caps(args)
    data = _load(args.input)
    left = _parse_comb(data["left"])
    right = _parse_comb(data["right"])
    verdict = check_equal(
        left,
        right,
        tuple_cap=caps["tuple_cap"],
        dense_cap=caps["dense_cap"],
    )
    return _emit({"equal": verdict.equal, "distance": _format(verdict.distance)})


def _cmd_oracle(args) -> int:
    caps = _caps(args)
    data = _load(args.input)
    cap = caps["oracle_cap"]
    if args.oracle_command == "sumprod":
        _, n, gates = _parse_gates(data)
        value = oracle_sumprod(gates, n, cap=cap)
        for c in data.get("coefficients", []):
            value = as_fraction(c) * value
        return _emit({"value": _format(value)})
    if args.oracle_command == "check-boolean":
        verdict = oracle_check_boolean(_parse_comb(data), cap=cap)
        witness = None if verdict.witness is None else list(verdict.witness)
        value = None if verdict.value is None else _format(verdict.value)
        return _emit(
            {"is_boolean": verdict.is_boolean, "witness": witness, "value": value}
        )
    if args.oracle_command == "count-sat":
        try:
            count = oracle_count_sat(_parse_comb(data), cap=cap)
        except ValueError as exc:
            return _fail(str(exc), 1)
        return _emit({"count": count})
    if args.oracle_command == "count-system":
        polys, targets = _parse_system(data)
        return _emit({"count": oracle_count_fp_system(polys, targets, cap=cap)})
    raise ValueError(f"unknown oracle command {args.oracle_command}")


def _parse_range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _bench_instance(rng: random.Random, family: Family, n: int, k: int, args):
    if family is Family.THR:
        return rand_thr_instance(rng, n, k, weight_bound=args.weight_bound)
    if family is Family.ETHR:
        return rand_ethr_instance(rng, n, k, weight_bound=args.weight_bound)
    if family is Family.RELU:
        return rand_relu_instance(rng, n, k, num_bound=args.weight_bound)
    return [rand_fp_poly(rng, args.prime, n, args.degree) for _ in range(k)]


def _cmd_bench(args) -> int:
    caps = _caps(args)
    family = Family(args.family)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["family", "n", "k", "trial", "result", "partials_enumerated", "wall_ns"]
    )
    for n in _parse_range(args.n):
        for trial in range(args.trials):
            rng = random.Random(args.seed * 1_000_003 + n * 1_009 + trial)
            gates = _bench_instance(rng, family, n, args.k, args)
            before = mitm.partials.value
            start = time.perf_counter_ns()
            value = sumprod(
                gates,
                n,
                tuple_cap=caps["tuple_cap"],
                dense_cap=caps["dense_cap"],
            )
            wall = time.perf_counter_ns() - start
            enumerated = mitm.partials.value - before
            if args.oracle:
                expect = oracle_sumprod(gates, n, cap=caps["oracle_cap"])
                if expect != value:
                    raise InvariantViolation(
                        f"bench mismatch at family={family.value} n={n} "
                        f"trial={trial}: fast {value}, oracle {expect}"
                    )
            writer.writerow(
                [family.value, n, args.k, trial, _format(value), enumerated, wall]
            )
    return 0


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap-tuples",
        dest="tuple_cap",
        type=int,
        default=None,
        help="max tuples in one product expansion",
    )
    parser.add_argument(
        "--cap-dense-vars",
        dest="dense_cap",
        type=int,
        default=None,
        help="max variables for dense polynomial tables",
    )
    parser.add_argument(
        "--cap-oracle-n",
        dest="oracle_cap",
        type=int,
        default=None,
        help="max variables for brute-force enumeration",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersum",
        description="Exact Sum-Products of gate products over the Boolean cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumprod", help="sum over the cube of a product of gates")
    p.add_argument("input", help="JSON file or - for stdin")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_sumprod)

    p = sub.add_parser("count-roots", help="roots of one polynomial over F_p")
    p.add_argument("input")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_count_roots)

    p = sub.add_parser("count-system", help="common solutions of an F_p system")
    p.add_argument("input")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_count_system)

    p = sub.add_parser("check-boolean", help="is a combination {0,1}-valued?")
    p.add_argument("input")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_check_boolean)

    p = sub.add_parser("count-sat", help="satisfying assignments of a combination")
    p.add_argument("input")
    p.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the Boolean-valuedness check",
    )
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_count_sat)

    p = sub.add_parser("check-equal", help="pointwise equality of two combinations")
    p.add_argument("input")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_check_equal)

    p = sub.add_parser("oracle", help="brute-force reference implementations")
    p.add_argument(
        "oracle_command",
        choices=["sumprod", "check-boolean", "count-sat", "count-system"],
    )
    p.add_argument("input")
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="timing table as CSV on stdout")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", required=True, help="size or inclusive range lo:hi")
    p.add_argument("--k", type=int, default=2, help="gates per instance")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-bound", type=int, default=10)
    p.add_argument("--prime", type=int, default=3, help="fp family only")
    p.add_argument("--degree", type=int, default=2, help="fp family only")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="verify each result against brute force",
    )
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        return _fail(str(exc), 2)
    except InvariantViolation as exc:
        return _fail(str(exc), 3)
    except (ValueError, TypeError, KeyError, OSError, RecursionError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
