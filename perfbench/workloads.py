"""Seeded workloads for the hypersum benchmark.

Every query is plain data (dicts, lists, ints and "p/q" strings) in the JSON
shape the ``hypersum`` command line reads, so the same query can feed the
library entry points or ``hypersum.cli.main``.  Inputs come from this file's
own generators, never from ``hypersum.randgen``: editing the library's
generators cannot change a workload.

A batch is a fixed list of query shapes (family, n, gate count, expansion
size); the seed and the batch index only draw the weights, targets and
monomials.  Batches of one workload therefore cost about the same, which is
what keeps per-batch medians steady from seed to seed.  Threshold and ReLU
gates are drawn so that each accepts exactly the requested number of
achievable sums ("terms"), which fixes the product expansion size exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import hypersum as hs
import hypersum.cli

BIG = 1 << 40

# (family, n, terms per gate, weight bound)
_ETHR_DEEP = [
    ("ethr", n, (None,) * k, 1000) for n in (32, 34, 36, 38, 40) for k in (1, 2, 3)
] + [
    ("thr", 32, (16,), 1000),
    ("thr", 36, (9,), 1000),
    ("thr", 40, (4,), 1000),
    ("thr", 32, (4, 4), 8),
    ("thr", 34, (2, 8), 8),
    ("thr", 36, (3, 5), 8),
]

_THR_WIDE = [
    ("thr", 18, (50, 50), 100),
    ("relu", 18, (100, 100), 100),
    ("thr", 18, (15, 15, 15), 100),
    ("relu", 18, (27, 27, 27), 100),
    ("thr", 18, (140, 140), 100),
    ("thr", 19, (30, 30), 100),
    ("relu", 19, (10, 10, 10), 100),
    ("relu", 20, (40, 40), 100),
    ("thr", 20, (12, 12, 12), 100),
    ("relu", 20, (70, 70), 100),
    ("thr", 20, (20, 20, 20), 100),
    ("thr", 21, (25, 25), 100),
    ("relu", 21, (60, 60), 100),
    ("thr", 22, (40, 40), 100),
    ("relu", 22, (13, 13, 13), 100),
    ("relu", 24, (35, 35), 100),
    ("thr", 26, (10, 10, 10), 100),
    # two more ~40 ms queries fill the gap at the middle of the latencies,
    # so query_p50_ms does not jump from seed to seed
    ("relu", 18, (100, 100), 100),
    ("relu", 20, (70, 70), 100),
    # weights of 2^40 and more push every kernel onto exact Python ints
    ("thr", 14, (6, 6), BIG),
    ("relu", 16, (4, 4, 4), BIG),
    ("thr", 18, (8, 8), BIG),
]

# sumprod_fp shapes (p, k, n, d) all have n < 6dp, so m = 0: the dense regime.
# The repeated (5, 2, 9, 2) here and (2, 18, 1) below put a cluster of ~10 ms
# queries at the middle of the batch's latencies, so query_p50_ms does not
# jump across a gap from seed to seed.
_FP_SUMPROD = [
    (2, 1, 11, 3), (2, 2, 10, 2), (2, 3, 11, 2), (2, 4, 9, 1), (2, 4, 11, 2),
    (3, 1, 12, 3), (3, 2, 10, 2), (3, 3, 12, 2), (3, 4, 8, 1), (3, 4, 11, 2),
    (5, 1, 12, 3), (5, 2, 9, 2), (5, 2, 12, 1), (5, 3, 7, 2), (5, 3, 10, 1),
    (5, 2, 9, 2),
]
# degree-1 root counts and systems (p, n, k) with m = n // (6p) >= 1: the suffix regime
_FP_SUFFIX = [
    (2, 14, 1), (2, 16, 1), (2, 18, 1), (3, 18, 1), (2, 17, 1), (2, 18, 1),
    (2, 14, 2), (2, 17, 2), (3, 18, 2), (2, 16, 3),
]

# (command, family, n, sparsity, variant); variant "bool" draws a combination
# that is Boolean-valued by construction, "any" one that usually is not,
# "same"/"other" an equal or a perturbed right-hand side for check-equal
_ANALYSIS_DOCS = [
    ("check-boolean", "ethr", 12, 3, "bool"),
    ("check-boolean", "ethr", 16, 5, "any"),
    ("check-boolean", "ethr", 10, 6, "bool"),
    ("check-boolean", "ethr", 8, 1, "any"),
    ("check-boolean", "ethr", 14, 2, "any"),
    ("check-boolean", "thr", 12, 2, "bool"),
    ("check-boolean", "thr", 14, 4, "bool"),
    ("check-boolean", "thr", 16, 1, "bool"),
    ("check-boolean", "thr", 10, 3, "any"),
    ("check-boolean", "relu", 10, 1, "bool"),
    ("check-boolean", "relu", 14, 2, "any"),
    ("check-boolean", "relu", 12, 3, "any"),
    ("check-boolean", "fp", 10, 1, "bool"),
    ("check-boolean", "fp", 12, 2, "any"),
    ("count-sat", "ethr", 14, 4, "bool"),
    ("count-sat", "ethr", 16, 1, "bool"),
    ("count-sat", "ethr", 9, 6, "bool"),
    ("count-sat", "thr", 16, 2, "bool"),
    ("count-sat", "thr", 10, 4, "bool"),
    ("count-sat", "relu", 13, 1, "bool"),
    ("count-sat", "fp", 12, 1, "bool"),
    ("check-equal", "ethr", 12, 2, "same"),
    ("check-equal", "ethr", 16, 3, "other"),
    ("check-equal", "ethr", 10, 4, "same"),
    ("check-equal", "thr", 14, 2, "same"),
    ("check-equal", "thr", 12, 2, "other"),
    ("check-equal", "relu", 12, 1, "same"),
    ("check-equal", "relu", 15, 2, "other"),
    ("check-equal", "fp", 11, 2, "same"),
    ("check-equal", "fp", 9, 2, "other"),
]


def _weights(rng: random.Random, n: int, bound: int) -> list[int]:
    if bound >= BIG:
        return [rng.choice((-1, 1)) * rng.randint(bound, 16 * bound) for _ in range(n)]
    return [rng.randint(-bound, bound) for _ in range(n)]


def _top(ws: list[int]) -> int:
    return sum(w for w in ws if w > 0)


def _gate(rng: random.Random, family: str, n: int, terms, bound: int) -> dict:
    """A gate whose expansion has exactly ``terms`` targets (ETHR: satisfiable)."""
    ws = _weights(rng, n, bound)
    if family == "ethr":
        x = [rng.randint(0, 1) for _ in range(n)]
        return {"weights": ws, "target": sum(w * b for w, b in zip(ws, x))}
    if family == "thr":
        return {"weights": ws, "threshold": _top(ws) - terms + 1}
    return {"weights": ws, "bias": terms - _top(ws)}


def _sumprod_query(rng, family, n, terms, bound) -> dict:
    gates = [_gate(rng, family, n, t, bound) for t in terms]
    return {"op": "sumprod", "family": family, "n": n, "gates": gates}


def _poly(rng: random.Random, p: int, n: int, d: int, size: int) -> dict:
    """{"monomials": [[vars, coeff], ...]} with ``size`` monomials of degree <= d."""
    monomials = [[sorted(rng.sample(range(1, n + 1), rng.randint(1, d))), rng.randint(1, p - 1)]
                 for _ in range(size)]
    monomials.append([[], rng.randint(0, p - 1)])
    return {"monomials": monomials}


def _ethr_deep(rng: random.Random) -> list[dict]:
    return [_sumprod_query(rng, *shape) for shape in _ETHR_DEEP]


def _thr_wide(rng: random.Random) -> list[dict]:
    return [_sumprod_query(rng, *shape) for shape in _THR_WIDE]


def _fp_sumprod(rng: random.Random) -> list[dict]:
    out = []
    for p, k, n, d in _FP_SUMPROD:
        polys = [_poly(rng, p, n, d, rng.randint(3, 6)) for _ in range(k)]
        out.append({"op": "sumprod", "family": "fp", "p": p, "n": n, "gates": polys})
    for p, n, k in _FP_SUFFIX:
        polys = [_poly(rng, p, n, 1, rng.randint(n // 2, n)) for _ in range(k)]
        if k == 1:
            out.append({"op": "count-roots", "p": p, "n": n, **polys[0]})
        else:
            targets = [rng.randint(0, p - 1) for _ in range(k)]
            out.append({"op": "count-system", "p": p, "n": n, "polys": polys, "targets": targets})
    return out


def _boolean_comb(rng: random.Random, family: str, n: int, s: int) -> dict:
    """A combination that is {0,1}-valued on the whole cube by construction."""
    if family == "fp":
        return {"family": "fp", "p": 2, "n": n, "coefficients": [1],
                "gates": [_poly(rng, 2, n, 2, rng.randint(2, 5))]}
    # nonzero weights give at least n + 1 distinct achievable sums
    ws = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(n)]
    top = _top(ws)
    if family == "relu":
        # value 1 exactly where <w, x> reaches its maximum, 0 elsewhere
        return {"family": "relu", "n": n, "coefficients": [1], "gates": [{"weights": ws, "bias": 1 - top}]}
    if family == "ethr":
        # indicators of distinct achievable sums of one weight vector are disjoint
        targets = []
        while len(targets) < s:
            x = [rng.randint(0, 1) for _ in range(n)]
            t = sum(w * b for w, b in zip(ws, x))
            if t not in targets:
                targets.append(t)
        return {"family": "ethr", "n": n, "coefficients": [1] * s,
                "gates": [{"weights": ws, "target": t} for t in targets]}
    # [<w,x> >= a1] - [<w,x> >= b1] + [<w,x> >= a2] - ...: a union of disjoint intervals
    thresholds = list(range(top - s + 1, top + 1))
    return {"family": "thr", "n": n, "coefficients": [(-1) ** i for i in range(s)],
            "gates": [{"weights": ws, "threshold": t} for t in thresholds]}


def _any_comb(rng: random.Random, family: str, n: int, s: int) -> dict:
    """A combination with independent gates and mixed coefficients."""
    coefficients = [rng.choice((1, 1, -1, 2, "1/2")) for _ in range(s)]
    if family == "fp":
        gates = [_poly(rng, 2, n, 2, rng.randint(2, 5)) for _ in range(s)]
        return {"family": "fp", "p": 2, "n": n, "coefficients": coefficients, "gates": gates}
    terms = {"ethr": None, "thr": 3, "relu": 2}[family]
    gates = [_gate(rng, family, n, terms, 5) for _ in range(s)]
    return {"family": family, "n": n, "coefficients": coefficients, "gates": gates}


def _rescaled(comb: dict) -> dict:
    """The same function written differently: every weight, target,
    threshold and bias doubled, or for fp the gates in reverse order."""
    family = comb["family"]
    if family == "fp":
        return {**comb, "gates": comb["gates"][::-1], "coefficients": comb["coefficients"][::-1]}
    gates = []
    for g in comb["gates"]:
        scaled = {"weights": [2 * w for w in g["weights"]]}
        for key in ("target", "threshold", "bias"):
            if key in g:
                scaled[key] = 2 * g[key]
        gates.append(scaled)
    coefficients = comb["coefficients"]
    if family == "relu":  # a doubled ReLU gate has doubled values
        coefficients = [str(Fraction(c) / 2) for c in coefficients]
    return {**comb, "gates": gates, "coefficients": coefficients}


def _perturbed(rng: random.Random, comb: dict) -> dict:
    out = json.loads(json.dumps(comb))
    g = out["gates"][rng.randrange(len(out["gates"]))]
    if "monomials" in g:
        g["monomials"][-1][1] = (g["monomials"][-1][1] + 1) % comb["p"]
    else:
        key = next(k for k in ("target", "threshold", "bias") if k in g)
        g[key] += 1
    return out


def _analysis_docs(rng: random.Random) -> list[dict]:
    out = []
    for command, family, n, s, variant in _ANALYSIS_DOCS:
        if command == "check-equal":
            left = _boolean_comb(rng, family, n, s) if family != "relu" else _any_comb(rng, family, n, s)
            right = _rescaled(left) if variant == "same" else _perturbed(rng, left)
            doc = {"left": left, "right": right}
        elif variant == "bool":
            doc = _boolean_comb(rng, family, n, s)
        else:
            doc = _any_comb(rng, family, n, s)
        out.append({"op": command, "doc": doc})
    return out


WORKLOADS = {
    "ethr-deep": (
        _ethr_deep,
        "ETHR conjunctions at n=32-40 plus narrow THR: half enumeration and unique/searchsorted dominate; control for expansion changes",
    ),
    "thr-wide": (
        _thr_wide,
        "THR and ReLU products with 1k-20k expansion tuples, 14% with weights >= 2^40: the sumprod expansion and matching loop dominates",
    ),
    "fp-sumprod": (
        _fp_sumprod,
        "sumprod_fp in the dense regime and root counts/systems in the suffix regime: many count_roots calls behind an lru cache",
    ),
    "analysis-docs": (
        _analysis_docs,
        "check-boolean, count-sat and check-equal JSON documents through cli.main: many tiny Sum-Products and per-call overhead",
    ),
}


def batch(workload: str, seed: int, index) -> list[dict]:
    """The queries of batch ``index`` ("warmup" for the warm-up batch) of a seed.

    String seeding is deterministic across processes and Python versions, and
    the warm-up stream never coincides with a timed batch.
    """
    generate, _ = WORKLOADS[workload]
    return generate(random.Random(f"{workload}/{seed}/{index}"))


# -- building library objects from plain data --------------------------------

def build_gate(family: str, g: dict, n: int, p=None):
    if family == "fp":
        return hs.FpPolynomial.from_terms(p, n, [(v, c) for v, c in g["monomials"]])
    ws = tuple(g["weights"])
    if family == "thr":
        return hs.ThresholdGate(ws, g["threshold"])
    if family == "ethr":
        return hs.ExactThresholdGate(ws, g["target"])
    return hs.ReluGate(ws, g["bias"])


def build_comb(doc: dict):
    family, n = doc["family"], doc["n"]
    gates = tuple(build_gate(family, g, n, doc.get("p")) for g in doc["gates"])
    return hs.LinComb(family, tuple(doc["coefficients"]), gates, n)


def _cli_call(command: str, text: str):
    stdin = sys.stdin
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hs.cli.main([command, "-"])
    finally:
        sys.stdin = stdin
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def build(q: dict):
    """A zero-argument callable that answers the query in canonical form.

    Everything derived from the plain data (gate objects, JSON text) is made
    here, before the query is timed.  The callable looks each entry point up
    on its module when it runs, so a tracer that rebinds module attributes
    sees the call.
    """
    op = q["op"]
    if op == "sumprod":
        gates = [build_gate(q["family"], g, q["n"], q.get("p")) for g in q["gates"]]
        return lambda: canonical(hs.sumprod(gates, q["n"]))
    if op == "count-roots":
        poly = build_gate("fp", q, q["n"], q["p"])
        return lambda: canonical(hs.count_roots(poly))
    if op == "count-system":
        polys = [build_gate("fp", g, q["n"], q["p"]) for g in q["polys"]]
        return lambda: canonical(hs.count_system(polys, q["targets"]))
    text = json.dumps(q["doc"])
    return lambda: _cli_call(op, text)


def canonical(value) -> str:
    """An exact int or Fraction as "num" or "num/den"."""
    return str(value)
