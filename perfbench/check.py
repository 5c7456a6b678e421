"""Expected answers for benchmark queries, computed outside the timed region.

Small instances are compared against ``hypersum.oracle`` (brute force over
all 2^n points).  Where brute force is too slow (n above ``ORACLE_N``), or
would leave the oracle's vectorized path (weights of 2^31 and more), a
threshold-style Sum-Product is checked through conditioning on the last
variable instead:

    SumProd(g) = SumProd(g | x_n = 0) + SumProd(g | x_n = 1),

with the restricted gates built here, so the two halves run on different
half tables than the original query.  The magnitudes the CLI reports for
check-boolean and check-equal (the deviation and the squared distance) have
no oracle; they come from an exact histogram of the combination's values at
every point.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

import hypersum as hs
from hypersum import oracle

from workloads import build_comb, build_gate, canonical

ORACLE_N = 18
_ORACLE_MAGNITUDE = 1 << 31


def _format(value: Fraction):
    """The CLI's JSON form of an exact rational."""
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _restrict(q: dict, bit: int) -> dict:
    """The query with x_n fixed to ``bit``, on n - 1 variables."""
    gates = []
    for g in q["gates"]:
        shift = g["weights"][-1] * bit
        r = {"weights": g["weights"][:-1]}
        if "target" in g:
            r["target"] = g["target"] - shift
        elif "threshold" in g:
            r["threshold"] = g["threshold"] - shift
        else:
            r["bias"] = g["bias"] + shift
        gates.append(r)
    return {**q, "n": q["n"] - 1, "gates": gates}


def _oracle_fits(q: dict) -> bool:
    if q["n"] > ORACLE_N:
        return False
    return all(abs(w) < _ORACLE_MAGNITUDE for g in q["gates"] for w in g.get("weights", ()))


def _sumprod_expected(q: dict) -> str:
    family, n = q["family"], q["n"]
    if family == "fp" or _oracle_fits(q):
        gates = [build_gate(family, g, n, q.get("p")) for g in q["gates"]]
        return canonical(oracle.oracle_sumprod(gates, n, cap=ORACLE_N))
    total = 0
    for bit in (0, 1):
        r = _restrict(q, bit)
        total += hs.sumprod([build_gate(family, g, r["n"]) for g in r["gates"]], r["n"])
    return canonical(total)


def _point_values(comb: dict) -> tuple[np.ndarray, int]:
    """(a, D) with comb(x) = a[x] / D at every point mask x; exact for the
    small integer inputs the analysis workload draws."""
    n = comb["n"]
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    coefficients = [Fraction(c) for c in comb["coefficients"]]
    denom = math.lcm(*(c.denominator for c in coefficients))
    acc = np.zeros(1 << n, dtype=np.int64)
    for c, g in zip(coefficients, comb["gates"]):
        if "monomials" in g:
            v = np.zeros(1 << n, dtype=np.int64)
            for variables, coeff in g["monomials"]:
                mono = sum(1 << (i - 1) for i in variables)
                v += coeff * ((masks & mono) == mono)
            v %= comb["p"]
        else:
            dot = bits @ np.array(g["weights"], dtype=np.int64)
            if "target" in g:
                v = (dot == g["target"]).astype(np.int64)
            elif "threshold" in g:
                v = (dot >= g["threshold"]).astype(np.int64)
            else:
                v = np.maximum(dot + g["bias"], 0)
        acc += int(c * denom) * v
    return acc, denom


def _histogram_sum(values: np.ndarray, term) -> int:
    uniq, counts = np.unique(values, return_counts=True)
    return sum(int(c) * term(int(v)) for v, c in zip(uniq, counts))


def _analysis_expected(q: dict) -> dict:
    op, doc = q["op"], q["doc"]
    if op == "count-sat":
        return {"count": oracle.oracle_count_sat(build_comb(doc), cap=ORACLE_N)}
    if op == "check-boolean":
        verdict = oracle.oracle_check_boolean(build_comb(doc), cap=ORACLE_N)
        a, d = _point_values(doc)
        deviation = Fraction(_histogram_sum(a, lambda v: v * v * (v - d) ** 2), d**4)
        return {"is_boolean": verdict.is_boolean, "deviation": _format(deviation)}
    a, da = _point_values(doc["left"])
    b, db = _point_values(doc["right"])
    distance = Fraction(_histogram_sum(a * db - b * da, lambda v: v * v), (da * db) ** 2)
    return {"equal": distance == 0, "distance": _format(distance)}


def expected(q: dict):
    """The correct answer to a query, in the form its callable returns."""
    op = q["op"]
    if op == "sumprod":
        return _sumprod_expected(q)
    if op == "count-roots":
        poly = build_gate("fp", q, q["n"], q["p"])
        return canonical(oracle.oracle_count_fp_system([poly], [0], cap=ORACLE_N))
    if op == "count-system":
        polys = [build_gate("fp", g, q["n"], q["p"]) for g in q["polys"]]
        return canonical(oracle.oracle_count_fp_system(polys, q["targets"], cap=ORACLE_N))
    return _analysis_expected(q)


def count_failures(answers: list, expected_answers: list) -> int:
    """Queries whose answer differs from the expected one; an answer recorded
    as an error (the query raised) never matches."""
    return sum(a != e for a, e in zip(answers, expected_answers, strict=True))


def digest(answers: list) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def error_answer(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)[:200]}


def tally(answers: list) -> Counter:
    """Error type name -> count, for the run record."""
    return Counter(a["error"] for a in answers if isinstance(a, dict) and "error" in a)
