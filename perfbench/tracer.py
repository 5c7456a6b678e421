"""A tracer that wraps hypersum's public functions from outside the package.

``install`` replaces each traced function by a wrapper wherever a
``hypersum`` module binds it: on its own module, on the package, and in
every module that did ``from .x import y`` (``sumprod.half_sums``,
``analysis.sumprod``, ``cli.check_boolean``, ...).  Calls made through any
of those names then record a span: name, start, end, parent span and query
id.  Spans stay in memory until the run writes them out.

Very hot leaves (``count_roots`` runs 10^5 times and more in a run) are not
kept one by one: their calls, time and counters are summed per query and per
parent span.  Every wrapper, hot or not, still charges its duration to its
parent, so a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, function) -> layer-qualified span name
TRACED = {
    ("gates", "normalize_integer"): "gates.normalize_integer",
    ("transforms", "thr_to_ethrs"): "transforms.thr_to_ethrs",
    ("transforms", "collapse_ethr_conjunction"): "transforms.collapse_ethr_conjunction",
    ("mitm", "half_sums"): "mitm.half_sums",
    ("mitm", "count_subset_sum"): "mitm.count_subset_sum",
    ("sumprod", "sumprod"): "sumprod.sumprod",
    ("sumprod", "sumprod_thr"): "sumprod.thr",
    ("sumprod", "sumprod_relu"): "sumprod.relu",
    ("sumprod", "sumprod_ethr"): "sumprod.ethr",
    ("fppoly", "sumprod_fp"): "fppoly.sumprod_fp",
    ("fppoly", "count_system"): "fppoly.count_system",
    ("fppoly", "count_roots"): "fppoly.count_roots",
    ("fppoly", "suffix_count_poly"): "fppoly.suffix_count_poly",
    ("analysis", "check_boolean"): "analysis.check_boolean",
    ("analysis", "count_sat"): "analysis.count_sat",
    ("analysis", "check_equal"): "analysis.check_equal",
    ("cli", "main"): "cli.main",
}

HOT = {"gates.normalize_integer", "fppoly.count_roots", "fppoly.suffix_count_poly"}


def _terms(gate, relu: bool) -> int:
    """Targets in the expansion of one THR or ReLU gate, from its inputs alone:
    the integer sums of the rescaled weights from the first accepted one up to
    the largest achievable one."""
    const = gate.bias if relu else gate.threshold
    scale = math.lcm(*(w.denominator for w in gate.weights), const.denominator if relu else 1)
    ws = [w * scale for w in gate.weights]
    lo = sum(w for w in ws if w < 0)
    hi = sum(w for w in ws if w > 0)
    start = 1 - const * scale if relu else math.ceil(const * scale)
    return max(0, int(hi - max(lo, start)) + 1)


def _expansion_tuples(args, kwargs, relu: bool) -> int:
    gates = args[0] if args else kwargs["gates"]
    return math.prod(_terms(g, relu) for g in gates)


def _dense_entries(args, kwargs) -> int:
    """Table entries count_roots evaluates: 2^(n-m) on the suffix path, 2^n
    on the dense path (m = floor(n/(6dp)), d the degree); 0 for constants."""
    q = args[0] if args else kwargs["q"]
    d = max((mask.bit_count() for mask in q.monomials if mask), default=0)
    if d == 0:
        return 0
    m = q.n // (6 * d * q.p)
    return 1 << (q.n - m if m >= 1 else q.n)


# span name -> counter derived from the call's inputs or result
HOOKS = {
    "mitm.half_sums": lambda args, kwargs, result: int(isinstance(result, list)),
    "transforms.thr_to_ethrs": lambda args, kwargs, result: len(result),
    "sumprod.thr": lambda args, kwargs, result: _expansion_tuples(args, kwargs, False),
    "sumprod.relu": lambda args, kwargs, result: _expansion_tuples(args, kwargs, True),
    "fppoly.count_roots": lambda args, kwargs, result: _dense_entries(args, kwargs),
}


class Tracer:
    def __init__(self) -> None:
        self.query = None  # id of the query being answered; set by the runner
        # (sid, name, query, parent sid, start ns, end ns, child ns, counter)
        self.spans: list[tuple] = []
        # (query, parent sid, name) -> [calls, ns, counter]
        self.aggregates: dict = defaultdict(lambda: [0, 0, 0])
        self._stack: list[list] = []  # frames: [nearest recorded sid, child ns]
        self._next_sid = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, spans, aggregates = self._stack, self.spans, self.aggregates
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            anchor = parent[0] if parent else None
            if hot:
                frame = [anchor, 0]
            else:
                self._next_sid += 1
                frame = [self._next_sid, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counter = hook(args, kwargs, result) if hook and result is not None else 0
                if hot:
                    row = aggregates[(self.query, anchor, name)]
                    row[0] += 1
                    row[1] += end - start
                    row[2] += counter
                else:
                    spans.append((frame[0], name, self.query, anchor, start, end, frame[1], counter))
                if parent is not None:
                    # the hook's own cost stays out of the parent's self time
                    parent[1] += clock() - start

        return traced

    def install(self) -> None:
        """Rebind every traced function on every hypersum module that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hypersum" or key.startswith("hypersum."))]
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"hypersum.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def totals(self) -> dict:
        """name -> {"calls", "s", "self_s", "counter"} over everything traced."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counter": 0})
        for _, name, _, _, start, end, child, counter in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child) / 1e9
            row["counter"] += counter
        for (_, _, name), (calls, ns, counter) in self.aggregates.items():
            row = out[name]
            row["calls"] += calls
            row["s"] += ns / 1e9
            row["counter"] += counter
        return out

    def ancestors(self) -> dict:
        """sid -> (name, parent sid) for walking span chains."""
        return {sid: (name, parent) for sid, name, _, parent, *_ in self.spans}


def under(chains: dict, sid, name: str) -> bool:
    """Whether span ``sid`` or one of its ancestors is called ``name``."""
    while sid is not None:
        span_name, sid_parent = chains[sid]
        if span_name == name:
            return True
        sid = sid_parent
    return False

