"""Random JSON documents through ``cli.main``.

Every document, well formed or not, must end in exit code 0-3.  A nonzero
exit prints nothing on stdout and one JSON object with an "error" field on
stderr; exit 0 prints one JSON object on stdout and nothing on stderr.  The
documents have n <= 6, below every cap of the library and of the oracle, so
wherever a command and its oracle subcommand both apply, the command's
answer (exit 0) is the oracle's.  Fields are drawn mostly well formed, with
huge integers, rational strings and zero denominators, and one or two
fields may be replaced by junk, deleted, or joined by junk fields.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersum.cli import main

HUGE = [2**64, -(2**64), 10**20, -(10**20), 2**63 - 1]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(HUGE + [-3, 0, 4, "1/0", "2/-3", "x", ""]),
    # fresh containers, since a corruption may add to them
    st.sampled_from(['[]', '{}', '[1, [2]]', '{"a": 1}']).map(json.loads),
)
integers = st.one_of(st.integers(-4, 4), st.sampled_from(HUGE))
rationals = st.one_of(
    integers,
    integers.map(str),
    st.sampled_from(["1/2", "-5/3", "7/4", "-2/3"]),
)
primes = st.sampled_from([2, 3, 5, 7, 1000003, 2**61 - 1, "5"])
CONSTANT = {"thr": "threshold", "ethr": "target", "relu": "bias"}

# the library answer each oracle subcommand must reproduce
ORACLE_FIELD = {
    "sumprod": "value",
    "check-boolean": "is_boolean",
    "count-sat": "count",
    "count-system": "count",
}


@st.composite
def monomials(draw, n):
    variables = st.lists(st.one_of(st.integers(1, n), st.just(str(n))), max_size=3)
    return draw(st.lists(st.tuples(variables, integers).map(list), max_size=4))


@st.composite
def gate_lists(draw, n, family):
    """A well-formed document of a family's gates over n variables, with
    coefficients."""
    size = draw(st.integers(0, 3))
    doc = {"family": family, "n": n}
    if family == "fp":
        doc["p"] = draw(primes)
        doc["gates"] = [{"monomials": draw(monomials(n))} for _ in range(size)]
    else:
        doc["gates"] = [
            {"weights": draw(st.lists(rationals, min_size=n, max_size=n)),
             CONSTANT[family]: draw(rationals)}
            for _ in range(size)
        ]
    doc["coefficients"] = draw(st.lists(rationals, min_size=size, max_size=size))
    return doc


@st.composite
def documents(draw, command):
    n = draw(st.integers(1, 6))
    if command == "count-roots":
        doc = {"p": draw(primes), "n": n, "monomials": draw(monomials(n))}
    elif command == "count-system":
        size = draw(st.integers(1, 3))
        doc = {
            "p": draw(primes),
            "n": n,
            "polys": [{"monomials": draw(monomials(n))} for _ in range(size)],
            "targets": draw(st.lists(integers, min_size=size, max_size=size)),
        }
    else:
        family = draw(st.sampled_from(["thr", "ethr", "relu", "fp"]))
        doc = draw(gate_lists(n, family))
        if command == "check-equal":
            doc = {"left": doc, "right": draw(gate_lists(n, family))}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _corrupt(draw, doc)
    return doc


def _corrupt(draw, doc):
    """Replace, delete or add one field of one object or list in doc."""
    places = []
    stack = [doc]
    while stack:
        node = stack.pop()
        places.append(node)
        stack.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = draw(st.sampled_from(places))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add" or not keys:
        if isinstance(node, dict):
            node[draw(st.sampled_from(["junk", "n", "p", "gates", "weights"]))] = draw(JUNK)
        else:
            node.append(draw(JUNK))
        return
    key = draw(st.sampled_from(keys))
    if action == "delete":
        del node[key]
    else:
        node[key] = draw(JUNK)


def _run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--cap-tuples", "1000", "-"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (code, err)
    if code:
        assert out == ""
        assert isinstance(json.loads(err)["error"], str)
        return code, None
    assert err == ""
    return code, json.loads(out)


@st.composite
def cases(draw):
    command = draw(st.sampled_from(
        ["sumprod", "count-roots", "count-system", "check-boolean", "count-sat", "check-equal"]
    ))
    return command, draw(documents(command))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cases())
# 10^20 times a ReLU gate that is 0 everywhere: the combination is 0
@example(("check-boolean", {
    "family": "relu", "n": 2, "coefficients": [10**20],
    "gates": [{"weights": [0, 0], "bias": 0}],
}))
@example(("count-sat", {
    "family": "relu", "n": 2, "coefficients": [10**20],
    "gates": [{"weights": [0, 0], "bias": 0}],
}))
def test_every_document_gets_an_exit_code_and_json(case):
    command, doc = case
    code, answer = _run([command], doc)
    if command not in ORACLE_FIELD or code == 2:
        return
    oracle_code, oracle_answer = _run(["oracle", command], doc)
    assert oracle_code == code, (code, answer, oracle_code)
    if code == 0:
        field = ORACLE_FIELD[command]
        assert oracle_answer[field] == answer[field]
