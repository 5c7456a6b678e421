"""The two analysis paths against each other and against brute force.

Combinations of threshold, exact-threshold and ReLU gates are answered from
one joint histogram of the sums s_i = <w_i, x> of their gates' distinct
forms; lowering ``analysis._HISTOGRAM_CELLS`` to 0 sends them through the
Sum-Product expansion instead.  Both must agree with each other and with
``hypersum.oracle`` on every verdict, deviation, count and distance.  The
expansion merges equal gates and keys products of 0/1-valued gates by their
set of gates, so repeated, cancelling and disjoint gates are drawn on
purpose, and the number of Sum-Products it makes is pinned.
"""

import io
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersum.analysis as analysis
from hypersum import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    InvariantViolation,
    LinComb,
    ReluGate,
    ThresholdGate,
    check_boolean,
    check_equal,
    count_sat,
    oracle_check_boolean,
    oracle_count_sat,
)
from hypersum.cli import main
from hypersum.gates import _primitive_form, eval_lincomb

SETTINGS = settings(derandomize=True, deadline=None, max_examples=120)

FAMILIES = ("thr", "ethr", "relu")
HUGE = 2**70

ratios = st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "-3", "1/2", "-2/3", "5/4")])
coefficients = st.one_of(
    st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "1/2", "-1/3", "0")]),
    st.just(Fraction(HUGE)),
)


def _gate(family: str, weights, constant):
    weights = tuple(Fraction(w) for w in weights)
    if family == "thr":
        return ThresholdGate(weights, constant)
    if family == "ethr":
        return ExactThresholdGate(weights, constant)
    return ReluGate(weights, constant)


OFFSETS = [Fraction(x) for x in ("0", "0", "1", "-1", "1/2", "-5/3")]


@st.composite
def constants(draw, family: str, weights):
    """target, threshold or bias near the sums <weights, x>: an achievable
    sum shifted by a small rational, or far out of reach."""
    if draw(st.integers(0, 9)) == 0:
        return Fraction(draw(st.sampled_from((HUGE, -HUGE))))
    picks = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
    at = sum((w for w, b in zip(weights, picks) if b), Fraction(0))
    return (-at if family == "relu" else at) + draw(st.sampled_from(OFFSETS))


@st.composite
def combinations(draw, n=None, family=None):
    """(comb, one_form): gates are rational multiples of one integer vector
    (zero weights allowed), all-zero gates, or, when one_form is False, also
    independent weight vectors."""
    n = n or draw(st.integers(1, 8))
    family = family or draw(st.sampled_from(FAMILIES))
    base = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    one_form = True
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("copy", "copy", "copy", "zero", "other")))
        if kind == "copy":
            lam = draw(ratios)
            weights = [lam * b for b in base]
        elif kind == "zero":
            weights = [0] * n
        else:
            weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            one_form = False
        gates.append(_gate(family, weights, draw(constants(family, weights))))
    coeffs = draw(st.lists(coefficients, min_size=len(gates), max_size=len(gates)))
    return LinComb(Family(family), tuple(coeffs), tuple(gates), n), one_form


@st.composite
def boolean_combinations(draw):
    """One-form combinations that are {0,1}-valued by construction, some
    gates written with rescaled weights and constants."""
    n = draw(st.integers(1, 8))
    family = draw(st.sampled_from(FAMILIES))
    base = [Fraction(b) for b in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
    lam = draw(st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "-3")]))
    mu = draw(st.sampled_from([Fraction(x) for x in ("1", "2", "1/2", "3")]))
    low, high = sorted(draw(st.lists(st.integers(-8, 8), min_size=2, max_size=2)))
    if family == "thr":
        # [u >= low] - [u >= high], the second gate scaled by mu > 0
        gates = [
            ThresholdGate(tuple(lam * b for b in base), Fraction(low)),
            ThresholdGate(tuple(mu * lam * b for b in base), mu * high),
        ]
        coeffs = [Fraction(1), Fraction(-1)]
    elif family == "relu":
        # relu(u - low + 1) - relu(u - low) = [u >= low] for integer u
        gates = [
            ReluGate(tuple(lam * b for b in base), Fraction(1 - low)),
            ReluGate(tuple(mu * lam * b for b in base), -mu * low),
        ]
        coeffs = [Fraction(1), -1 / mu]
    else:
        # indicators of distinct values of u, one split 1/3 + 2/3
        targets = sorted({low, high, low + 1})
        gates = [ExactThresholdGate(tuple(lam * b for b in base), Fraction(t)) for t in targets]
        coeffs = [Fraction(1)] * len(gates)
        gates.append(ExactThresholdGate(tuple(mu * lam * b for b in base), mu * targets[0]))
        coeffs[0] = Fraction(1, 3)
        coeffs.append(Fraction(2, 3))
    return LinComb(Family(family), tuple(coeffs), tuple(gates), n)


def _points(n):
    return product((0, 1), repeat=n)


def _deviation(comb):
    values = (eval_lincomb(comb, x) for x in _points(comb.n))
    return sum((v * v * (v - 1) * (v - 1) for v in values), Fraction(0))


def _distance(left, right):
    return sum(
        ((eval_lincomb(left, x) - eval_lincomb(right, x)) ** 2 for x in _points(left.n)),
        Fraction(0),
    )


def _outcome(fn):
    try:
        return fn()
    except InvariantViolation:
        return InvariantViolation


def _both_paths(fn):
    """(answer from the default path, Sum-Product calls it made, answer with
    the histogram path switched off)."""
    calls = []
    real = analysis.sumprod
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "sumprod", lambda *a, **k: calls.append(1) or real(*a, **k))
        fast = _outcome(fn)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_HISTOGRAM_CELLS", 0)
        slow = _outcome(fn)
    return fast, len(calls), slow


@SETTINGS
@given(st.one_of(combinations(), boolean_combinations().map(lambda c: (c, True))))
def test_check_boolean_paths_agree(case):
    comb, one_form = case
    fast, calls, slow = _both_paths(lambda: check_boolean(comb))
    assert fast == slow
    assert fast.deviation == _deviation(comb)
    assert fast.is_boolean == oracle_check_boolean(comb).is_boolean
    if one_form:
        assert calls == 0


@SETTINGS
@given(st.one_of(combinations(), boolean_combinations().map(lambda c: (c, True))))
def test_count_sat_paths_agree(case):
    comb, one_form = case
    if oracle_check_boolean(comb).is_boolean:
        expected = oracle_count_sat(comb)
    else:
        expected = InvariantViolation
    fast, calls, slow = _both_paths(lambda: count_sat(comb))
    assert fast == slow == expected
    if one_form:
        assert calls == 0

    total = sum((eval_lincomb(comb, x) for x in _points(comb.n)), Fraction(0))
    if total.denominator == 1 and 0 <= total <= 2**comb.n:
        expected = int(total)
    else:
        expected = InvariantViolation
    fast, calls, slow = _both_paths(lambda: count_sat(comb, unchecked=True))
    assert fast == slow == expected
    if one_form:
        assert calls == 0


def _rescaled(comb, mu):
    """The same function with every weight and constant times mu > 0."""
    gates, coeffs = [], []
    for c, g in zip(comb.coefficients, comb.gates):
        weights = tuple(mu * w for w in g.weights)
        if isinstance(g, ThresholdGate):
            gates.append(ThresholdGate(weights, mu * g.threshold))
        elif isinstance(g, ExactThresholdGate):
            gates.append(ExactThresholdGate(weights, mu * g.target))
        else:
            gates.append(ReluGate(weights, mu * g.bias))
            c = c / mu
        coeffs.append(c)
    return LinComb(comb.family, tuple(coeffs), tuple(gates), comb.n)


@st.composite
def pairs(draw):
    left, one_form = draw(combinations())
    variant = draw(st.sampled_from(("same", "same", "other")))
    if variant == "same":
        mu = draw(st.sampled_from([Fraction(x) for x in ("2", "1/2", "3")]))
        right = _rescaled(left, mu)
    else:
        right, _ = draw(combinations(left.n, left.family.value))
        one_form = False
    return left, right, one_form


@SETTINGS
@given(pairs())
def test_check_equal_paths_agree(case):
    left, right, one_form = case
    fast, calls, slow = _both_paths(lambda: check_equal(left, right))
    assert fast == slow
    assert fast.distance == _distance(left, right)
    if one_form:
        assert calls == 0


# f = [x1 + ... + x60 >= 59] - [x1 + ... + x60 >= 60]: exactly 60 points
N60_DOC = {
    "family": "thr",
    "n": 60,
    "coefficients": [1, -1],
    "gates": [
        {"weights": [1] * 60, "threshold": 59},
        {"weights": [1] * 60, "threshold": 60},
    ],
}


def _no_sumprod(*args, **kwargs):
    raise AssertionError("a combination whose histogram fits reached sumprod")


def _run(args, doc, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(args + ["-"])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_form_count_sat_at_n60_needs_no_sumprod(capsys, monkeypatch):
    # the Sum-Product expansion would enumerate 2^30 half sums here
    monkeypatch.setattr(analysis, "sumprod", _no_sumprod)
    code, out, err = _run(["count-sat"], N60_DOC, capsys, monkeypatch)
    assert (code, json.loads(out)) == (0, {"count": 60}), err
    code, out, err = _run(["check-boolean"], N60_DOC, capsys, monkeypatch)
    assert code == 0, err
    assert json.loads(out)["is_boolean"] is True


def test_multi_form_combination_still_calls_sumprod(monkeypatch):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    calls = []
    real = analysis.sumprod
    monkeypatch.setattr(analysis, "sumprod", lambda *a, **k: calls.append(1) or real(*a, **k))
    comb = LinComb(
        Family.THR,
        (Fraction(1), Fraction(1), Fraction(-1)),
        (
            ThresholdGate((1, 1, 0), 2),
            ThresholdGate((0, 1, 1), 2),
            ThresholdGate((1, 1, 1), 3),
        ),
    )
    assert count_sat(comb) == oracle_count_sat(comb) == 3
    assert calls


@pytest.mark.parametrize("cells, built", [(analysis._HISTOGRAM_CELLS, 1), (0, 0)])
def test_one_histogram_per_call(monkeypatch, cells, built):
    # x1 XOR x2 on one form: [x1 + x2 >= 1] - [x1 + x2 >= 2]
    comb = LinComb(
        Family.THR, (Fraction(1), Fraction(-1)),
        (ThresholdGate((1, 1), 1), ThresholdGate((2, 2), 4)),
    )
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", cells)
    calls = []
    real = analysis.histogram
    monkeypatch.setattr(analysis, "histogram", lambda *a: calls.append(1) or real(*a))
    for answer, expected in (
        (lambda: count_sat(comb), 2),
        (lambda: check_boolean(comb).is_boolean, True),
        (lambda: check_equal(comb, comb).equal, True),
    ):
        calls.clear()
        assert answer() == expected
        assert len(calls) == built


def test_one_form_histogram_beyond_int64_counts(monkeypatch):
    # 2^64 points, so the histogram holds Python ints; 2 [s = 1] - [2s = 2] = [s = 1]
    monkeypatch.setattr(analysis, "sumprod", _no_sumprod)
    gate = ExactThresholdGate((1,) * 64, 1)
    doubled = ExactThresholdGate((2,) * 64, 2)
    comb = LinComb(Family.ETHR, (Fraction(2), Fraction(-1)), (gate, doubled))
    assert count_sat(comb) == 64
    assert check_boolean(LinComb(Family.ETHR, (Fraction(2),), (gate,))).deviation == 4 * 64


# -- several forms: one joint histogram of their sums -----------------------

MULTIPLES = [Fraction(x) for x in ("1", "-1", "2", "-3", "0", "1/2", "-2/3", "5/4")]


def _form(weights):
    return _primitive_form(ThresholdGate(weights, 0))[0]


@st.composite
def form_pools(draw):
    """One to four distinct forms with weights in [-2, 2] at n = 2..6, so the
    joint box always fits the histogram bound."""
    n = draw(st.integers(2, 6))
    form = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    size = draw(st.integers(1, 4))
    return draw(st.lists(form, min_size=size, max_size=size, unique_by=_form))


@st.composite
def multi_form_combinations(draw, family=None, pool=None):
    """A THR, ETHR or ReLU combination with one gate per form of the pool and
    up to two more.  Each gate is a multiple of its form (negative, zero or
    p/q) or, for the extra ones, possibly all-zero."""
    pool = pool or draw(form_pools())
    family = family or draw(st.sampled_from(FAMILIES))
    n = len(pool[0])
    rows = list(pool)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(draw(st.sampled_from(pool + [[0] * n])))
    gates = []
    for i in draw(st.permutations(range(len(rows)))):
        lam = draw(st.sampled_from(MULTIPLES))
        weights = [lam * w for w in rows[i]]
        gates.append(_gate(family, weights, draw(constants(family, weights))))
    coeffs = draw(st.lists(coefficients, min_size=len(gates), max_size=len(gates)))
    return LinComb(Family(family), tuple(coeffs), tuple(gates), n)


@st.composite
def multi_form_pairs(draw):
    """Two combinations of one family whose gates come from disjoint parts of
    one pool of forms whenever it holds more than one."""
    pool = draw(form_pools())
    split = draw(st.integers(1, len(pool) - 1)) if len(pool) > 1 else 1
    family = draw(st.sampled_from(FAMILIES))
    left = draw(multi_form_combinations(family, pool[:split]))
    right = draw(multi_form_combinations(family, pool[split:] or pool))
    return left, right


def _table_and_expansion(fn):
    """(joint-table answer, forced-expansion answer); the first call must
    make no Sum-Product."""
    fast, calls, slow = _both_paths(fn)
    assert calls == 0
    return fast, slow


@SETTINGS
@given(multi_form_combinations())
def test_multi_form_check_boolean_matches_expansion_and_oracle(comb):
    fast, slow = _table_and_expansion(lambda: check_boolean(comb))
    assert fast == slow
    assert fast.deviation == _deviation(comb)
    assert fast.is_boolean == oracle_check_boolean(comb).is_boolean


@SETTINGS
@given(multi_form_combinations())
def test_multi_form_unchecked_count_sat_matches_expansion_and_oracle(comb):
    total = sum((eval_lincomb(comb, x) for x in _points(comb.n)), Fraction(0))
    if total.denominator == 1 and 0 <= total <= 2**comb.n:
        expected = int(total)
    else:
        expected = InvariantViolation
    fast, slow = _table_and_expansion(lambda: count_sat(comb, unchecked=True))
    assert fast == slow == expected
    if oracle_check_boolean(comb).is_boolean:
        assert fast == oracle_count_sat(comb)


@SETTINGS
@given(multi_form_pairs())
def test_multi_form_check_equal_matches_expansion_and_oracle(pair):
    left, right = pair
    fast, slow = _table_and_expansion(lambda: check_equal(left, right))
    assert fast == slow
    assert fast.distance == _distance(left, right)


FORMS = ((1, 2, 0, 1, 1), (0, 1, -1, 2, 1), (2, 0, 1, -1, 1))


def _scaled(mu, form):
    return tuple(mu * Fraction(w) for w in form)


# combinations over the three forms with constants of +-2^70 and
# coefficients large enough that the power sums need Python ints
HUGE_COMBINATIONS = [
    # 2^40 [s0 >= -2^70] - 2^40 [2 s1 >= -2^70] + [s2 >= 2] + [-s1 >= 2^70]
    LinComb(
        Family.THR,
        (Fraction(2**40), Fraction(-(2**40)), Fraction(1), Fraction(1)),
        (
            ThresholdGate(FORMS[0], -HUGE),
            ThresholdGate(_scaled(2, FORMS[1]), -HUGE),
            ThresholdGate(FORMS[2], 2),
            ThresholdGate(_scaled(-1, FORMS[1]), HUGE),
        ),
    ),
    # 2^70 [s0 = 2^70] + 3 [s1 = 1] + 2^70 [-3 s2 = -2^70] + 2^40 [s2 / 2 = 1/2]
    LinComb(
        Family.ETHR,
        (Fraction(HUGE), Fraction(3), Fraction(HUGE), Fraction(2**40)),
        (
            ExactThresholdGate(FORMS[0], HUGE),
            ExactThresholdGate(FORMS[1], 1),
            ExactThresholdGate(_scaled(-3, FORMS[2]), -HUGE),
            ExactThresholdGate(_scaled(Fraction(1, 2), FORMS[2]), Fraction(1, 2)),
        ),
    ),
    # relu(s0 + 2^70) - relu(2 s0 + 2^71) / 2 + relu(s1 - 2^70) + 2^40 relu(s2 + 1)
    LinComb(
        Family.RELU,
        (Fraction(1), Fraction(-1, 2), Fraction(1), Fraction(2**40)),
        (
            ReluGate(FORMS[0], HUGE),
            ReluGate(_scaled(2, FORMS[0]), 2 * HUGE),
            ReluGate(FORMS[1], -HUGE),
            ReluGate(FORMS[2], 1),
        ),
    ),
    # [s0 >= 1] - [s1 >= -2^70] + [-s2 >= -2^70]: Boolean, with a huge target
    # on every form but the first
    LinComb(
        Family.THR,
        (Fraction(1), Fraction(-1), Fraction(1)),
        (
            ThresholdGate(FORMS[0], 1),
            ThresholdGate(FORMS[1], -HUGE),
            ThresholdGate(_scaled(-1, FORMS[2]), -HUGE),
        ),
    ),
]


@pytest.mark.parametrize("comb", HUGE_COMBINATIONS, ids=lambda c: c.family.value)
def test_multi_form_table_is_exact_at_huge_magnitudes(monkeypatch, comb):
    monkeypatch.setattr(analysis, "sumprod", _no_sumprod)
    _, _, _, scale, bound = analysis._form_table(comb.coefficients, comb.gates, comb.n)
    if max(map(abs, comb.coefficients)) > 1:
        # the deviation's Horner steps leave int64
        assert analysis.int_dtype((bound + scale) ** 4) is object
    assert check_boolean(comb).deviation == _deviation(comb)
    total = sum((eval_lincomb(comb, x) for x in _points(comb.n)), Fraction(0))
    if oracle_check_boolean(comb).is_boolean:
        assert count_sat(comb) == oracle_count_sat(comb) == total
    else:
        with pytest.raises(InvariantViolation):
            count_sat(comb)
    other = HUGE_COMBINATIONS[0]
    assert check_equal(comb, comb).equal
    if comb.family is other.family:
        assert check_equal(comb, other).distance == _distance(comb, other)


# -- the expansion: merged gates, products keyed by their set of gates ------

KINDS = ("thr", "ethr", "relu", "f2", "f3")
TOTALS = [Fraction(x) for x in ("0", "1", "1", "1", "-1", "2", "1/2")]
SPLITS = [Fraction(x) for x in ("1", "-1", "1/3", "2")]


@st.composite
def pools(draw, kind: str, n: int):
    """One to three gates of a kind; an ETHR gate may copy an earlier gate's
    weights with another target, so that their product is 0."""
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        if kind in ("f2", "f3"):
            p = 2 if kind == "f2" else 3
            masks = st.integers(0, (1 << n) - 1)
            monomials = draw(st.dictionaries(masks, st.integers(1, p - 1), max_size=4))
            gates.append(FpPolynomial(p, n, monomials))
        elif kind == "ethr" and gates and draw(st.booleans()):
            weights = draw(st.sampled_from(gates)).weights
            gates.append(ExactThresholdGate(weights, draw(constants(kind, weights))))
        else:
            weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            gates.append(_gate(kind, weights, draw(constants(kind, weights))))
    return gates


@st.composite
def repeated_terms(draw, kind: str, n: int, pool):
    """A combination over the pool in which each gate appears once or twice,
    its coefficients splitting a total that may be 0."""
    coeffs, gates = [], []
    for gate in pool:
        total = draw(st.sampled_from(TOTALS))
        parts = [draw(st.sampled_from(SPLITS)) for _ in range(draw(st.integers(0, 1)))]
        parts.append(total - sum(parts))
        coeffs += parts
        gates += [gate] * len(parts)
    order = draw(st.permutations(range(len(gates))))
    family = Family.FP_POLY if kind in ("f2", "f3") else Family(kind)
    return LinComb(family, tuple(coeffs[i] for i in order), tuple(gates[i] for i in order), n)


@st.composite
def repeated_combinations(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 10))
    return draw(repeated_terms(kind, n, draw(pools(kind, n))))


@st.composite
def repeated_pairs(draw):
    """Two combinations over one pool, so gates recur across the sides."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 10))
    pool = draw(pools(kind, n))
    return draw(repeated_terms(kind, n, pool)), draw(repeated_terms(kind, n, pool))


@SETTINGS
@given(repeated_combinations())
def test_merged_expansion_check_boolean(comb):
    fast, _, slow = _both_paths(lambda: check_boolean(comb))
    assert fast == slow
    assert fast.deviation == _deviation(comb)
    assert fast.is_boolean == oracle_check_boolean(comb).is_boolean


@SETTINGS
@given(repeated_combinations())
def test_merged_expansion_count_sat(comb):
    if oracle_check_boolean(comb).is_boolean:
        expected = oracle_count_sat(comb)
    else:
        expected = InvariantViolation
    fast, _, slow = _both_paths(lambda: count_sat(comb))
    assert fast == slow == expected

    total = sum((eval_lincomb(comb, x) for x in _points(comb.n)), Fraction(0))
    if total.denominator == 1 and 0 <= total <= 2**comb.n:
        expected = int(total)
    else:
        expected = InvariantViolation
    fast, _, slow = _both_paths(lambda: count_sat(comb, unchecked=True))
    assert fast == slow == expected


@SETTINGS
@given(repeated_pairs())
def test_merged_expansion_check_equal(pair):
    left, right = pair
    fast, _, slow = _both_paths(lambda: check_equal(left, right))
    assert fast == slow
    assert fast.distance == _distance(left, right)
    fast, _, slow = _both_paths(lambda: check_equal(left, left))
    assert fast == slow == analysis.EqualityVerdict(True, Fraction(0))


def _sumprod_sizes(monkeypatch) -> list:
    """The number of gates in each Sum-Product ``analysis`` asks for."""
    sizes = []
    real = analysis.sumprod
    monkeypatch.setattr(
        analysis, "sumprod", lambda gates, *a, **k: sizes.append(len(gates)) or real(gates, *a, **k)
    )
    return sizes


INDEPENDENT = ((1, 2, 0, 1), (0, 1, 3, 1), (2, 0, 1, 1))
COEFFICIENTS = (Fraction(2), Fraction(3), Fraction(5))


@pytest.mark.parametrize("family, gate", [
    (Family.ETHR, lambda w: ExactThresholdGate(w, 2)),
    (Family.THR, lambda w: ThresholdGate(w, 2)),
    (Family.FP_POLY, lambda w: FpPolynomial(2, 4, {1 << i: 1 for i, x in enumerate(w) if x})),
])
def test_indicator_products_are_keyed_by_their_gate_set(monkeypatch, family, gate):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    sizes = _sumprod_sizes(monkeypatch)
    comb = LinComb(family, COEFFICIENTS, tuple(gate(w) for w in INDEPENDENT))
    assert check_boolean(comb).deviation == _deviation(comb)
    # one Sum-Product per nonempty set of the three gates
    assert sorted(sizes) == [1, 1, 1, 2, 2, 2, 3]


def test_relu_products_keep_the_multiset_expansion(monkeypatch):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    sizes = _sumprod_sizes(monkeypatch)
    comb = LinComb(Family.RELU, COEFFICIENTS, tuple(ReluGate(w, -1) for w in INDEPENDENT))
    assert check_boolean(comb).deviation == _deviation(comb)
    # every multiset of 2, 3 and 4 of the three gates: 6 + 10 + 15
    assert sorted(sizes) == [2] * 6 + [3] * 10 + [4] * 15


@pytest.mark.parametrize("gate", [ReluGate((1, 2, 0), -1), FpPolynomial(3, 3, {3: 1, 4: 2})])
def test_equal_gates_merge_before_the_expansion(monkeypatch, gate):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    sizes = _sumprod_sizes(monkeypatch)
    family = Family.RELU if isinstance(gate, ReluGate) else Family.FP_POLY
    comb = LinComb(family, (Fraction(1), Fraction(1, 2)), (gate, gate))
    assert check_boolean(comb).deviation == _deviation(comb)
    assert sorted(sizes) == [2, 3, 4]
    sizes.clear()
    cancelled = LinComb(family, (Fraction(1), Fraction(-1)), (gate, gate))
    assert check_boolean(cancelled).deviation == 0
    assert check_equal(comb, comb).equal
    assert sizes == []


def test_checked_count_sat_reads_the_check_products(monkeypatch):
    # 2 [x1 + x2 >= 1] - [x1 >= 1] - [x2 >= 1] = x1 XOR x2, on three forms;
    # no coefficient is 0 or 1, so the check needs every single gate too
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    checked = []
    real_verdict = analysis._boolean_verdict
    monkeypatch.setattr(
        analysis, "_boolean_verdict", lambda d: checked.append(1) or real_verdict(d)
    )
    calls = []
    real = analysis.sumprod
    monkeypatch.setattr(
        analysis, "sumprod", lambda *a, **k: calls.append(bool(checked)) or real(*a, **k)
    )
    comb = LinComb(
        Family.THR,
        (Fraction(2), Fraction(-1), Fraction(-1)),
        (ThresholdGate((1, 1), 1), ThresholdGate((1, 0), 1), ThresholdGate((0, 1), 1)),
    )
    assert count_sat(comb) == oracle_count_sat(comb) == 2
    assert checked and calls
    assert not any(calls), "a Sum-Product ran after the Boolean check"


# the combinations of the expansion tests above, which span two or three forms
JOINT_CASES = {
    "thr-count": (
        LinComb(
            Family.THR,
            (Fraction(1), Fraction(1), Fraction(-1)),
            (
                ThresholdGate((1, 1, 0), 2),
                ThresholdGate((0, 1, 1), 2),
                ThresholdGate((1, 1, 1), 3),
            ),
        ),
        count_sat,
    ),
    "ethr-check": (
        LinComb(Family.ETHR, COEFFICIENTS, tuple(ExactThresholdGate(w, 2) for w in INDEPENDENT)),
        check_boolean,
    ),
    "thr-check": (
        LinComb(Family.THR, COEFFICIENTS, tuple(ThresholdGate(w, 2) for w in INDEPENDENT)),
        check_boolean,
    ),
    "relu-check": (
        LinComb(Family.RELU, COEFFICIENTS, tuple(ReluGate(w, -1) for w in INDEPENDENT)),
        check_boolean,
    ),
    "xor-count": (
        LinComb(
            Family.THR,
            (Fraction(2), Fraction(-1), Fraction(-1)),
            (ThresholdGate((1, 1), 1), ThresholdGate((1, 0), 1), ThresholdGate((0, 1), 1)),
        ),
        count_sat,
    ),
    # -3 relu(-2*10^20 x1 + 2) + 7 relu(x1/3 + x2 + 5/4) + relu(1 - x2) / 2
    # + 10^20 relu(0): the first gate has slope -10^20 on its primitive form
    # and accepts one sum, the last is 0 everywhere
    "relu-clipped-check": (
        LinComb(
            Family.RELU,
            (Fraction(-3), Fraction(7), Fraction(1, 2), Fraction(10**20)),
            (
                ReluGate((-2 * 10**20, 0), 2),
                ReluGate((Fraction(1, 3), 1), Fraction(5, 4)),
                ReluGate((0, -1), 1),
                ReluGate((0, 0), 0),
            ),
        ),
        check_boolean,
    ),
}


@pytest.mark.parametrize("name", JOINT_CASES)
def test_multi_form_combination_reads_one_joint_histogram(monkeypatch, name):
    comb, answer = JOINT_CASES[name]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_HISTOGRAM_CELLS", 0)
        expanded = answer(comb)
    if answer is count_sat:
        assert expanded == oracle_count_sat(comb)
    else:
        assert expanded.deviation == _deviation(comb)
    built = []
    real = analysis.histogram
    monkeypatch.setattr(analysis, "histogram", lambda *a: built.append(1) or real(*a))
    monkeypatch.setattr(analysis, "sumprod", _no_sumprod)
    assert answer(comb) == expanded
    assert len(built) == 1
    built.clear()
    assert check_equal(comb, comb).equal
    assert len(built) == 1


# -- the expansion on integer coefficients ----------------------------------

BIG = 10**30  # BIG - 1, BIG and BIG + 1 are pairwise coprime
ROWS6 = ((1, -2, 0, 3, 1, -1), (2, 1, 1, 0, -3, 1), (0, 1, -1, 2, 2, 1))


def _fp3(monomials):
    return FpPolynomial(3, 6, monomials)


def _fp5(monomials):
    return FpPolynomial(5, 6, monomials)


Q3 = {0b11: 1, 0b1100: 2, 0b100000: 1}  # x1 x2 + 2 x3 x4 + x6 over F_3
Q5 = {0b11: 3, 0b101000: 1, 0b10: 4, 0: 2}  # 3 x1 x2 + x4 x6 + 4 x2 + 2 over F_5

# name -> (combination, a second one of its family and n): the first is
# Boolean-valued in the "-boolean" cases
EXACT_CASES = {
    # [u >= 2] - [u >= 4] on one u, each gate g split as c g + (1 - c) g'
    # over two spellings of it, with c = 1/(BIG-1) and 1/BIG
    "huge-denominators-boolean": (
        LinComb(
            Family.THR,
            (Fraction(1, BIG - 1), Fraction(BIG - 2, BIG - 1),
             -Fraction(1, BIG), -Fraction(BIG - 1, BIG)),
            (ThresholdGate(ROWS6[0], 2), ThresholdGate(tuple(3 * w for w in ROWS6[0]), 6),
             ThresholdGate(ROWS6[0], 4), ThresholdGate(tuple(5 * w for w in ROWS6[0]), 20)),
        ),
        LinComb(
            Family.THR,
            (Fraction(7, BIG + 1), Fraction(-BIG, BIG - 1), Fraction(3, BIG)),
            tuple(ThresholdGate(w, 1) for w in ROWS6),
        ),
    ),
    "huge-denominators-ethr": (
        LinComb(
            Family.ETHR,
            (Fraction(BIG, BIG - 1), Fraction(-1, BIG + 1), Fraction(BIG + 3, BIG)),
            tuple(ExactThresholdGate(w, 1) for w in ROWS6),
        ),
        LinComb(
            Family.ETHR,
            (Fraction(1, BIG), Fraction(1, BIG + 1)),
            (ExactThresholdGate(ROWS6[0], 1), ExactThresholdGate(ROWS6[2], 2)),
        ),
    ),
    "huge-denominators-relu": (
        LinComb(
            Family.RELU,
            (Fraction(1, BIG - 1), Fraction(-2, BIG + 1), Fraction(BIG, 3)),
            tuple(ReluGate(w, -1) for w in ROWS6),
        ),
        LinComb(
            Family.RELU, (Fraction(5, BIG),), (ReluGate(ROWS6[1], Fraction(1, 2)),),
        ),
    ),
    # 2 relu(u/2 + 1/2) - 2 relu(u/2) = [u >= 0], and the same with
    # u = <ROWS6[1], x> - 1 written over thirds
    "relu-rational-weights-boolean": (
        LinComb(
            Family.RELU,
            (Fraction(2), Fraction(-2)),
            (ReluGate(tuple(Fraction(w, 2) for w in ROWS6[0]), Fraction(1, 2)),
             ReluGate(tuple(Fraction(w, 2) for w in ROWS6[0]), 0)),
        ),
        LinComb(
            Family.RELU,
            (Fraction(3), Fraction(-3)),
            (ReluGate(tuple(Fraction(w, 3) for w in ROWS6[1]), 0),
             ReluGate(tuple(Fraction(w, 3) for w in ROWS6[1]), Fraction(-1, 3))),
        ),
    ),
    "relu-rational-weights": (
        LinComb(
            Family.RELU,
            (Fraction(3, 4), Fraction(-1, 6), Fraction(2)),
            (ReluGate((Fraction(1, 2), Fraction(-2, 3), 1, Fraction(5, 4), 0, -1), Fraction(1, 3)),
             ReluGate((Fraction(-7, 5), 1, Fraction(1, 3), 0, 2, Fraction(1, 2)), 1),
             ReluGate((Fraction(1, 6), Fraction(1, 6), Fraction(-1, 6), 1, 1, 1), Fraction(-5, 6))),
        ),
        LinComb(
            Family.RELU,
            (Fraction(1, 7), Fraction(9, 2)),
            (ReluGate((Fraction(1, 2), Fraction(-2, 3), 1, Fraction(5, 4), 0, -1), Fraction(1, 3)),
             ReluGate(tuple(Fraction(w, 4) for w in ROWS6[2]), Fraction(1, 4))),
        ),
    ),
    # (q + 2q)/3 = [q != 0] over F_3, with 2q written as its own polynomial
    "f3-boolean": (
        LinComb(
            Family.FP_POLY,
            (Fraction(1, 3), Fraction(1, 3)),
            (_fp3(Q3), _fp3({m: 2 * c for m, c in Q3.items()})),
        ),
        LinComb(
            Family.FP_POLY,
            (Fraction(1, 2), Fraction(-2, 3), Fraction(BIG, 7)),
            (_fp3(Q3), _fp3({0b1010: 1, 0: 2}), _fp3({0b110001: 2})),
        ),
    ),
    # (q + 2q + 3q + 4q)/10 = [q != 0] over F_5: four gates, multiset keys
    "f5-boolean": (
        LinComb(
            Family.FP_POLY,
            (Fraction(1, 10),) * 4,
            tuple(_fp5({m: k * c for m, c in Q5.items()}) for k in range(1, 5)),
        ),
        LinComb(
            Family.FP_POLY,
            (Fraction(1, BIG + 1), Fraction(-3, 4), Fraction(2)),
            (_fp5(Q5), _fp5({0b111: 1, 0b1: 4}), _fp5({0b100100: 2, 0: 1})),
        ),
    ),
}


@pytest.mark.parametrize("name", EXACT_CASES)
def test_integer_expansion_matches_the_oracle(monkeypatch, name):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    comb, other = EXACT_CASES[name]
    for f, g in ((comb, other), (other, comb)):
        verdict = check_boolean(f)
        assert verdict.deviation == _deviation(f)
        assert verdict.is_boolean == oracle_check_boolean(f).is_boolean
        expected = oracle_count_sat(f) if verdict.is_boolean else InvariantViolation
        assert _outcome(lambda: count_sat(f)) == expected
        total = sum((eval_lincomb(f, x) for x in _points(f.n)), Fraction(0))
        if total.denominator == 1 and 0 <= total <= 2**f.n:
            expected = int(total)
        else:
            expected = InvariantViolation
        assert _outcome(lambda: count_sat(f, unchecked=True)) == expected
        distance = check_equal(f, g).distance
        assert distance == _distance(f, g) > 0
    assert check_boolean(comb).is_boolean == name.endswith("-boolean")


# the gate subsets, as indices into FIVE_ETHR's gates, that check_boolean hands
# to analysis.sumprod, in order: the sets of 2, 3 and 4 gates each follow the
# first combination that reaches them, and {0} is skipped because gate 0's
# coefficient 1 gives it 1 - 2 + 1 = 0
FIVE_ETHR_ROWS = [[(j * (i + 2) + i) % 7 + 1 for j in range(10)] for i in range(5)]
FIVE_ETHR = LinComb(
    Family.ETHR,
    tuple(Fraction(x) for x in ("1", "1/2", "-2/3", "3", "-5/7")),
    tuple(
        ExactThresholdGate(tuple(w), sum(w[j] for j in range(10) if (j + i) % 3 == 0))
        for i, w in enumerate(FIVE_ETHR_ROWS)
    ),
)
FIVE_ETHR_SETS = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1,), (1, 2), (1, 3), (1, 4), (2,), (2, 3),
    (2, 4), (3,), (3, 4), (4,), (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3),
    (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4),
]


def test_expansion_keys_keep_their_order(monkeypatch):
    monkeypatch.setattr(analysis, "_HISTOGRAM_CELLS", 0)
    seen = []
    real = analysis.sumprod
    gates = FIVE_ETHR.gates
    monkeypatch.setattr(
        analysis, "sumprod",
        lambda gs, *a, **k: seen.append(tuple(gates.index(g) for g in gs)) or real(gs, *a, **k),
    )
    assert check_boolean(FIVE_ETHR).deviation == _deviation(FIVE_ETHR)
    assert seen == FIVE_ETHR_SETS


# -- identities at n = 24-30, past the oracle -------------------------------
#
# Three to five independent gates with weights in +-7 put n * prod R_i far
# over ``_HISTOGRAM_CELLS``, so every combination here takes the expansion
# with the constant as it is.  Permuting the variables, or flipping
# x_j -> 1 - x_j on a set J (w_j -> -w_j on J, every sum shifted by
# sum_J w_j), must leave each answer unchanged.

WIDE_FAMILIES = (Family.THR, Family.ETHR, Family.RELU)
WIDE_COEFFICIENTS = [Fraction(x) for x in ("2", "-1/2", "2/3", "3", "-5/7")]


def _wide(family, coefficients, rows):
    """The combination of (weights, t) rows: [<w, x> >= t], [<w, x> = t] or
    relu(<w, x> + 1 - t), each nonzero from the sum t on."""
    if family is Family.RELU:
        gates = tuple(ReluGate(tuple(w), 1 - t) for w, t in rows)
    else:
        cls = ThresholdGate if family is Family.THR else ExactThresholdGate
        gates = tuple(cls(tuple(w), t) for w, t in rows)
    comb = LinComb(family, tuple(coefficients), gates)
    assert analysis._form_table(comb.coefficients, comb.gates, comb.n) is None
    return comb


def _wide_rows(rng, family, n, k):
    """k rows over n variables with weights in +-7: an ETHR target is the
    sum at a random point, and a THR or ReLU window holds the top 1-13 sums,
    so every gate is nonzero somewhere and every product stays narrow."""
    rows = []
    for _ in range(k):
        w = [rng.randint(-7, 7) for _ in range(n)]
        if family is Family.ETHR:
            t = sum(x for x in w if rng.random() < 0.5)
        else:
            t = sum(x for x in w if x > 0) - rng.randint(0, 12)
        rows.append((w, t))
    return rows


def _disjoint_rows(rng, family, n, k):
    """k rows whose gates are nonzero only at distinct values of (x1, x2):
    weights 1000 (2a - 1) and 400 (2b - 1) there make <w, x> fall 400 or
    more below 1000 a + 400 b unless x1 = a and x2 = b, and the other n - 2
    weights in +-7 span less than 400."""
    rows = []
    for a, b in rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], k):
        rest, t = _wide_rows(rng, family, n - 2, 1)[0]
        rows.append(([1000 * (2 * a - 1), 400 * (2 * b - 1)] + rest, 1000 * a + 400 * b + t))
    return rows


def _permuted(rows, order):
    return [([w[j] for j in order], t) for w, t in rows]


def _flipped(rows, flip):
    return [
        ([-x if f else x for x, f in zip(w, flip)], t - sum(x for x, f in zip(w, flip) if f))
        for w, t in rows
    ]


def _variants(rng, rows, n):
    """The rows, then permuted, then flipped on a random set J."""
    order = list(range(n))
    rng.shuffle(order)
    flip = [rng.random() < 0.5 for _ in range(n)]
    return [rows, _permuted(rows, order), _flipped(rows, flip)]


# weights come from random.Random(seed): a hypothesis-drawn random shrinks
# towards all-zero weights, whose combinations fit the histogram
WIDE = settings(derandomize=True, deadline=None, max_examples=10)


@pytest.mark.parametrize("family", WIDE_FAMILIES, ids=lambda f: f.value)
@WIDE
@given(st.integers(0, 2**32))
def test_wide_deviation_survives_permutations_and_flips(family, seed):
    rng = random.Random(seed)
    n, k = rng.randint(24, 30), rng.randint(3, 5)
    coefficients = [rng.choice(WIDE_COEFFICIENTS) for _ in range(k)]
    rows = _wide_rows(rng, family, n, k)
    answers = {check_boolean(_wide(family, coefficients, r)) for r in _variants(rng, rows, n)}
    assert len(answers) == 1
    assert answers.pop().deviation > 0


@pytest.mark.parametrize("family", WIDE_FAMILIES, ids=lambda f: f.value)
@WIDE
@given(st.integers(0, 2**32))
def test_wide_count_sat_survives_permutations_and_flips(family, seed):
    rng = random.Random(seed)
    # disjoint indicators sum to a Boolean function; a ReLU indicator is
    # relu(s + 1 - t) - relu(s - t) = [s >= t]
    n = rng.randint(24, 30)
    k = 2 if family is Family.RELU else rng.randint(3, 4)
    rows = _disjoint_rows(rng, family, n, k)
    counts = set()
    for r in _variants(rng, rows, n):
        if family is Family.RELU:
            r = [row for w, t in r for row in ((w, t), (w, t + 1))]
            comb = _wide(family, [1, -1] * k, r)
        else:
            comb = _wide(family, [1] * k, r)
        counts.add(count_sat(comb))
    assert len(counts) == 1
    assert counts.pop() > 0


@pytest.mark.parametrize("family", WIDE_FAMILIES, ids=lambda f: f.value)
@WIDE
@given(st.integers(0, 2**32))
def test_wide_distance_survives_permutations_and_flips(family, seed):
    rng = random.Random(seed)
    # the two sides share all but one gate, with other coefficients
    n, k = rng.randint(24, 30), rng.randint(3, 4)
    rows = _wide_rows(rng, family, n, k + 1)
    left = [rng.choice(WIDE_COEFFICIENTS) for _ in range(k)]
    right = [rng.choice(WIDE_COEFFICIENTS) for _ in range(k)]
    answers = set()
    for r in _variants(rng, rows, n):
        answers.add(check_equal(_wide(family, left, r[:k]), _wide(family, right, r[1:])))
    assert len(answers) == 1
    assert answers.pop().distance > 0
