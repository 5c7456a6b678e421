import io
import json

import pytest

from hypersum.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


THR_DOC = {
    "family": "thr",
    "n": 3,
    "gates": [
        {"weights": [1, 1, 0], "threshold": 2},
        {"weights": [0, 1, 1], "threshold": 2},
    ],
}


def test_sumprod_thr(tmp_path, capsys):
    code, out, _ = run(["sumprod", write(tmp_path, THR_DOC)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 1}


def test_sumprod_scales_by_coefficients(tmp_path, capsys):
    doc = dict(THR_DOC, coefficients=["1/2", 3])
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "3/2"}


def test_sumprod_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(THR_DOC)))
    code, out, _ = run(["sumprod", "-"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 1}


def test_sumprod_relu_fraction_output(tmp_path, capsys):
    doc = {
        "family": "relu",
        "n": 2,
        "gates": [{"weights": ["1/2", "1/2"], "bias": "-1/4"}],
    }
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "5/4"}


def test_count_roots(tmp_path, capsys):
    doc = {"p": 3, "n": 4, "monomials": [[[1, 2], 1], [[3], 2]]}
    code, out, _ = run(["count-roots", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 8}


def test_count_system_defaults_targets_to_zero(tmp_path, capsys):
    doc = {
        "p": 2,
        "n": 4,
        "polys": [{"monomials": [[[1], 1], [[2], 1]]}],
    }
    code, out, _ = run(["count-system", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 8}


def test_check_boolean_and_count_sat(tmp_path, capsys):
    doc = {
        "family": "ethr",
        "n": 3,
        "coefficients": [1, 1],
        "gates": [
            {"weights": [1, 1, 1], "target": 0},
            {"weights": [1, 1, 1], "target": 3},
        ],
    }
    path = write(tmp_path, doc)
    code, out, _ = run(["check-boolean", path], capsys)
    assert code == 0
    assert json.loads(out) == {"is_boolean": True, "deviation": 0}
    code, out, _ = run(["count-sat", path], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 2}


def test_count_sat_non_boolean_is_input_error(tmp_path, capsys):
    doc = {
        "family": "thr",
        "n": 1,
        "coefficients": ["1/2"],
        "gates": [{"weights": [1], "threshold": 1}],
    }
    code, out, err = run(["count-sat", write(tmp_path, doc)], capsys)
    assert code == 1
    assert "error" in json.loads(err)


def test_check_equal(tmp_path, capsys):
    gate = {"weights": [2, -1], "target": 1}
    doc = {
        "left": {"family": "ethr", "n": 2, "coefficients": [1], "gates": [gate]},
        "right": {
            "family": "ethr",
            "n": 2,
            "coefficients": ["1/4", "3/4"],
            "gates": [gate, gate],
        },
    }
    code, out, _ = run(["check-equal", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"equal": True, "distance": 0}


def test_oracle_subcommands(tmp_path, capsys):
    code, out, _ = run(["oracle", "sumprod", write(tmp_path, THR_DOC)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 1}
    doc = {
        "family": "thr",
        "n": 1,
        "coefficients": ["1/2"],
        "gates": [{"weights": [1], "threshold": 1}],
    }
    code, out, _ = run(["oracle", "check-boolean", write(tmp_path, doc)], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["is_boolean"] is False
    assert parsed["witness"] == [1]
    assert parsed["value"] == "1/2"
    code, _, err = run(["oracle", "count-sat", write(tmp_path, doc)], capsys)
    assert code == 1


def test_malformed_json_is_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(["sumprod", str(path)], capsys)
    assert code == 1
    assert "error" in json.loads(err)


def test_float_weight_rejected(tmp_path, capsys):
    doc = {"family": "thr", "n": 1, "gates": [{"weights": [0.5], "threshold": 1}]}
    code, _, err = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 1
    assert "float" in json.loads(err)["error"]


def test_missing_field_is_exit_1(tmp_path, capsys):
    code, _, err = run(["sumprod", write(tmp_path, {"family": "thr"})], capsys)
    assert code == 1


def test_cap_exceeded_is_exit_2(tmp_path, capsys):
    doc = {
        "family": "thr",
        "n": 10,
        "gates": [
            {"weights": [1] * 10, "threshold": -4},
            {"weights": [1] * 10, "threshold": -5},
            {"weights": [1] * 10, "threshold": -6},
            {"weights": [1] * 10, "threshold": -7},
        ],
    }
    code, _, err = run(["sumprod", write(tmp_path, doc), "--cap-tuples", "100"], capsys)
    assert code == 2


def test_cap_env_var_and_flag_precedence(tmp_path, capsys, monkeypatch):
    doc = {
        "family": "thr",
        "n": 10,
        "gates": [
            {"weights": [1] * 10, "threshold": -4},
            {"weights": [1] * 10, "threshold": -5},
            {"weights": [1] * 10, "threshold": -6},
            {"weights": [1] * 10, "threshold": -7},
        ],
    }
    path = write(tmp_path, doc)
    monkeypatch.setenv("HYPERSUM_CAP_TUPLES", "100")
    code, _, _ = run(["sumprod", path], capsys)
    assert code == 2
    # explicit flag wins over the environment
    code, _, _ = run(["sumprod", path, "--cap-tuples", "10000000"], capsys)
    assert code == 0


def test_sumprod_ethr_huge_target_is_zero(tmp_path, capsys):
    doc = {"family": "ethr", "n": 3, "gates": [{"weights": [1, 2, 3], "target": 2**70}]}
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 0}


def test_sumprod_ethr_mixed_width_halves(tmp_path, capsys):
    doc = {
        "family": "ethr",
        "n": 4,
        "gates": [{"weights": [3, 1, 2**64, 1], "target": 2**64 + 1}],
    }
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 2}


def test_sumprod_thr_wide_gate_has_no_term_cap(tmp_path, capsys):
    doc = {"family": "thr", "n": 3, "gates": [{"weights": [2**40, 1, 1], "threshold": 1}]}
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 7}


JUNK_NUMBERS = [
    ("sumprod", '{"family": "thr", "n": 2, "gates": [{"weights": ["1/0", 1], "threshold": 1}]}'),
    ("sumprod", '{"family": "thr", "n": 2, "coefficients": ["1/0"],'
                ' "gates": [{"weights": [1, 1], "threshold": 1}]}'),
    ("sumprod", '{"family": "thr", "n": 1e400, "gates": [{"weights": [1, 1], "threshold": 1}]}'),
    ("sumprod", '{"family": "fp", "p": 3, "n": 2, "gates": [{"monomials": [[[1], 1e400]]}]}'),
    ("count-roots", '{"p": 1e400, "n": 2, "monomials": [[[1], 1]]}'),
    ("count-system", '{"p": 3, "n": 2, "polys": [{"monomials": [[[1], 1]]}], "targets": [1e400]}'),
    ("sumprod", '{"family": "thr", "n": 1, "gates": [{"weights": [1], "threshold": [1]}]}'),
    ("sumprod", '{"family": "thr", "n": 2, "gates": [{"weights": ["abc", 1], "threshold": 1}]}'),
]


@pytest.mark.parametrize(
    "command, text", JUNK_NUMBERS,
    ids=["weight", "coefficient", "n", "fp-coefficient", "p", "target",
         "list-threshold", "junk-weight"],
)
def test_zero_denominator_and_infinite_numbers_are_exit_1(tmp_path, capsys, command, text):
    # 1e400 parses as an infinite float: it must be rejected, not converted
    path = tmp_path / "junk.json"
    path.write_text(text)
    code, out, err = run([command, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


RATIONAL_FIELDS = [
    ('{"family": "thr", "n": 1, "gates": [{"weights": [1], "threshold": [1]}]}', "threshold"),
    ('{"family": "ethr", "n": 2, "gates": [{"weights": ["abc", 1], "target": 1}]}', "weights"),
    ('{"family": "relu", "n": 1, "gates": [{"weights": [1], "bias": "1/0"}]}', "bias"),
    ('{"family": "thr", "n": 1, "coefficients": [0.5],'
     ' "gates": [{"weights": [1], "threshold": 1}]}', "coefficients"),
]


@pytest.mark.parametrize("text, field", RATIONAL_FIELDS, ids=[f for _, f in RATIONAL_FIELDS])
def test_rational_errors_name_their_field(tmp_path, capsys, text, field):
    path = tmp_path / "junk.json"
    path.write_text(text)
    code, out, err = run(["sumprod", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert f"field {field!r}" in json.loads(err)["error"]


def test_fp_value_tuples_count_against_the_tuple_cap(tmp_path, capsys, monkeypatch):
    # 2^2 = 4 nonzero value tuples over F_3; with the dense tables capped
    # below n = 18 and the degree-1 histogram off, the product takes the
    # tuple pass, refused before any tuple is built
    import hypersum.fppoly as fp

    monkeypatch.setattr(fp, "_linear_sum", lambda polys, lifts, dtype: None)
    odd = {"monomials": [[[j], 1] for j in range(1, 18, 2)] + [[[], 1]]}
    every_third = {"monomials": [[[j], 1] for j in range(2, 18, 3)]}
    doc = {"family": "fp", "p": 3, "n": 18, "gates": [odd, every_third]}
    path = write(tmp_path, doc)
    dense = ["--cap-dense-vars", "17"]
    code, _, err = run(["sumprod", path, *dense, "--cap-tuples", "3"], capsys)
    assert code == 2
    assert "error" in json.loads(err)
    code, out, _ = run(["sumprod", path, *dense, "--cap-tuples", "4"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 258240}
    code, out, _ = run(["oracle", "sumprod", path], capsys)
    assert json.loads(out) == {"value": 258240}


@pytest.mark.parametrize("command, doc", [
    ("count-roots", {"p": 2, "n": 5000, "monomials": [[[j], 1] for j in range(1, 5001)]}),
    ("count-system", {"p": 2, "n": 2000, "polys": [
        {"monomials": [[[j], 1] for j in range(1, 2001)]}] * 2, "targets": [0, 1]}),
])
def test_degree_one_questions_past_int64_counts_stop_on_the_dense_cap(
    command, doc, tmp_path, capsys, monkeypatch
):
    # 2^n points overflow int64 counts, so the degree-1 histogram is never
    # built (n passes of big-int cells would take minutes to hours); the
    # input falls through to the dense cap and exits at once
    import time

    import hypersum.mitm as mitm

    def refuse(rows, n, window=None):
        raise AssertionError("histogram built past int64 counts")

    monkeypatch.setattr(mitm, "histogram", refuse)
    start = time.monotonic()
    code, out, err = run([command, write(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert "cap is 26" in json.loads(err)["error"]
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("command, doc, expected", [
    # 999999^2 value tuples, but n = 4 reads the dense tables
    ("sumprod", {"family": "fp", "p": 1000003, "n": 4, "gates": [
        {"monomials": [[[1, 2], 1], [[3], 5], [[], 4]]},
        {"monomials": [[[2, 4], 7], [[], 1]]},
    ]}, {"value": 304}),
    # the deviation multiplies up to four copies of the gate: 58^4 tuples
    ("check-boolean", {"family": "fp", "p": 59, "n": 3, "coefficients": [1],
                       "gates": [{"monomials": [[[1, 2], 1]]}]},
     {"is_boolean": True, "deviation": 0}),
])
def test_fp_dense_tables_hold_no_value_tuples(tmp_path, capsys, command, doc, expected):
    code, out, err = run([command, write(tmp_path, doc)], capsys)
    assert code == 0, err
    assert json.loads(out) == expected


@pytest.mark.parametrize("doc", [
    {"family": "thr", "n": -1, "gates": []},
    {"family": "fp", "p": 3, "n": -2, "gates": []},
])
def test_negative_n_is_exit_1(tmp_path, capsys, doc):
    code, out, err = run(["sumprod", write(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert "n must be non-negative" in json.loads(err)["error"]


# 2^n has too many digits to exist; an n between about 2^30 and 2^60 would
# allocate before failing, so none is tried here
HUGE_N = "99999999999999999999"


@pytest.mark.parametrize("command,doc", [
    ("sumprod", {"family": "thr", "n": HUGE_N, "gates": []}),
    ("count-roots", {"p": 3, "n": HUGE_N, "monomials": []}),
    ("count-sat", {"family": "thr", "n": HUGE_N, "coefficients": [], "gates": []}),
    ("count-system", {"p": 3, "n": HUGE_N, "polys": [{"monomials": []}]}),
], ids=["sumprod", "count-roots", "count-sat", "count-system"])
def test_huge_n_is_exit_1(tmp_path, capsys, command, doc):
    code, out, err = run([command, write(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert "field 'n'" in json.loads(err)["error"]
    assert "Traceback" not in err


def test_deeply_nested_json_is_exit_1(tmp_path, capsys):
    # the JSON decoder gives up with a RecursionError, not a ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(["sumprod", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "recursion" in json.loads(err)["error"]


def test_fp_gate_over_a_large_prime(tmp_path, capsys):
    # x1*x2 + 2*x3*x4 + 3*x1 + 4*x4 + 4 over F_1000003: no value wraps, so
    # the sum is 4*1 + 4*2 + 8*3 + 8*4 + 16*4
    gate = {"monomials": [[[1, 2], 1], [[3, 4], 2], [[1], 3], [[4], 4], [[], 4]]}
    doc = {"family": "fp", "p": 1000003, "n": 4, "gates": [gate]}
    code, out, _ = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 132}


@pytest.mark.parametrize(
    "argv",
    [
        ["sumprod", "--bogus", "1", "-"],
        ["sumprod"],
        [],
        ["sumprod", "--cap-tuples", "abc", "-"],
        ["oracle", "bogus", "-"],
        ["bench", "--family", "thr", "--n", "4"],
    ],
    ids=["unknown-flag", "missing-input", "no-subcommand", "non-integer-cap",
         "unknown-oracle-command", "removed-bench-command"],
)
def test_usage_errors_are_exit_1_with_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sumprod", "--help"])
    assert info.value.code == 0
    assert "--cap-tuples" in capsys.readouterr().out


def test_repeated_calls_share_no_state(tmp_path, capsys):
    doc = {
        "family": "thr",
        "n": 1,
        "coefficients": ["1/2"],
        "gates": [{"weights": [1], "threshold": 1}],
    }
    path = write(tmp_path, doc)
    # unchecked, the count 1/2 fails the range check; checked again, the
    # Boolean check must run first
    code, _, err = run(["count-sat", "--unchecked", path], capsys)
    assert code == 1
    assert "Boolean" not in json.loads(err)["error"]
    code, out, err = run(["count-sat", path], capsys)
    assert code == 1
    assert out == ""
    assert "not Boolean-valued" in json.loads(err)["error"]


def test_oracle_count_system_matches_count_system(tmp_path, capsys):
    doc = {
        "p": 3,
        "n": 4,
        "polys": [
            {"monomials": [[[1], 1], [[2], 2]]},
            {"monomials": [[[3, 4], 1], [[], 2]]},
        ],
        "targets": [0, 2],
    }
    path = write(tmp_path, doc)
    code, out, _ = run(["oracle", "count-system", path], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 6}
    code, out, _ = run(["count-system", path], capsys)
    assert json.loads(out) == {"count": 6}
    code, out, err = run(["oracle", "count-system", path, "--cap-oracle-n", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


JSON_BOOLEANS = [
    ("sumprod", '{"family": "thr", "n": true, "gates": [{"weights": [1], "threshold": 1}]}'),
    ("sumprod", '{"family": "thr", "n": 1, "gates": [{"weights": [true], "threshold": 1}]}'),
    ("sumprod", '{"family": "thr", "n": 1, "gates": [{"weights": [1], "threshold": false}]}'),
    ("check-boolean", '{"family": "thr", "n": 1, "coefficients": [true],'
                      ' "gates": [{"weights": [1], "threshold": 1}]}'),
    ("count-roots", '{"p": true, "n": 2, "monomials": [[[1], 1]]}'),
    ("sumprod", '{"family": "ethr", "n": 1, "gates": [{"weights": [1], "target": true}]}'),
    ("count-system", '{"p": 3, "n": 2, "polys": [{"monomials": [[[1], 1]]}], "targets": [true]}'),
]


@pytest.mark.parametrize(
    "command, text", JSON_BOOLEANS,
    ids=["n", "weight", "threshold", "coefficient", "p", "target", "system-target"],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, command, text):
    # bool is an int subclass in Python: true must not be read as 1
    path = tmp_path / "bool.json"
    path.write_text(text)
    code, out, err = run([command, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "bool" in json.loads(err)["error"]


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB"])
def test_memory_error_is_exit_2_with_json(tmp_path, capsys, monkeypatch, message):
    # a document such as {"family": "thr", "n": 10**12, "gates": []} asks for
    # 2^n; the command is stubbed so that nothing is allocated here
    import hypersum.cli as cli

    def exhausted(doc, args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "sumprod", ("stub", exhausted))
    code, out, err = run(["sumprod", write(tmp_path, THR_DOC)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == (message or "out of memory")


@pytest.mark.parametrize("family, field", [
    ("thr", "threshold"), ("ethr", "target"), ("relu", "bias"),
])
def test_missing_constant_is_exit_1(tmp_path, capsys, family, field):
    doc = {"family": family, "n": 2, "gates": [{"weights": [1, 2]}]}
    code, out, err = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 1 and out == ""
    assert field in json.loads(err)["error"]


def _two_gates(family, field, constants):
    rows = ([1, 1, 1, 1], [1, 2, 0, 0])
    gates = [{"weights": w, field: c} for w, c in zip(rows, constants)]
    return {"family": family, "n": 4, "gates": gates}


def test_tuple_cap_never_limits_ethr(tmp_path, capsys):
    # an exact-threshold product expands into one tuple whatever the cap
    doc = _two_gates("ethr", "target", (2, 1))
    code, out, _ = run(["sumprod", write(tmp_path, doc), "--cap-tuples", "0"], capsys)
    assert code == 0
    assert out.strip() == '{"value": 2}'
    doc = _two_gates("thr", "threshold", (2, 3))
    code, _, err = run(["sumprod", write(tmp_path, doc), "--cap-tuples", "0"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("doc, field", [
    ({"family": "relu", "n": 2, "gates": [{"weights": [1, 1]}]}, "bias"),
    ({"family": "thr"}, "n"),
])
def test_missing_field_is_named(tmp_path, capsys, doc, field):
    code, out, err = run(["sumprod", write(tmp_path, doc)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": f"missing field '{field}'"}


@pytest.mark.parametrize("command, doc, field", [
    ("sumprod", {"family": "thr", "n": 2, "gates": {"weights": [1, 1], "threshold": 1}},
     "gates"),
    ("sumprod", {"family": "fp", "p": 2, "n": 2, "gates": [{"monomials": [[[1.5], 1]]}]},
     "monomials"),
    ("count-system", {"p": 3, "n": 2, "polys": ["x"]}, "polys"),
    ("count-roots", {"p": 3, "n": 2, "monomials": [[1, 1]]}, "monomials"),
    ("sumprod", {"family": "thr", "n": 2, "gates": [{"weights": 5, "threshold": 1}]},
     "weights"),
    ("check-boolean", {"family": "thr", "n": 1, "coefficients": 3,
                       "gates": [{"weights": [1], "threshold": 1}]}, "coefficients"),
    ("count-system", {"p": 3, "n": 2, "polys": [{"monomials": [[[1], 1]]}], "targets": 7},
     "targets"),
    ("check-equal", {"left": "x", "right": "y"}, "left"),
])
def test_badly_typed_fields_are_named(tmp_path, capsys, command, doc, field):
    code, out, err = run([command, write(tmp_path, doc)], capsys)
    assert code == 1 and out == ""
    assert f"field '{field}'" in json.loads(err)["error"]


def test_a_document_that_is_not_an_object_is_exit_1(tmp_path, capsys):
    code, out, err = run(["sumprod", write(tmp_path, [1, 2])], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "the document must be a JSON object"}


def _analysis_docs(bad):
    """check-boolean, count-sat and check-equal documents with one bad
    rational, as (command, document, field named in the error)."""
    comb = {"family": "thr", "n": 2, "coefficients": [bad],
            "gates": [{"weights": [1, 1], "threshold": 1}]}
    relu = {"family": "relu", "n": 2, "coefficients": [1],
            "gates": [{"weights": [1, bad], "bias": 1}]}
    ethr = {"family": "ethr", "n": 1, "coefficients": [1],
            "gates": [{"weights": [1], "target": 1}]}
    bad_ethr = {**ethr, "gates": [{"weights": [1], "target": bad}]}
    return [
        ("check-boolean", comb, "coefficients"),
        ("check-boolean", relu, "weights"),
        ("count-sat", comb, "coefficients"),
        ("count-sat", relu, "weights"),
        ("check-equal", {"left": bad_ethr, "right": ethr}, "target"),
    ]


@pytest.mark.parametrize("bad, reason", [
    (0.5, " takes rationals, not float 0.5"),
    (True, " takes rationals, not bool True"),
    ("1/0", ": zero denominator in '1/0'"),
])
def test_bad_rationals_in_analysis_documents_keep_their_errors(tmp_path, capsys, bad, reason):
    for command, doc, field in _analysis_docs(bad):
        code, out, err = run([command, write(tmp_path, doc)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"field {field!r}{reason}"}
