"""The package's public surface: the 25 exported names, the modules a bare
``import hypersum`` loads, and the README's library example."""

import ast
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import hypersum

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BooleanVerdict",
    "CapExceeded",
    "DEFAULT_DENSE_CAP",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_TUPLE_CAP",
    "EqualityVerdict",
    "ExactThresholdGate",
    "Family",
    "FpPolynomial",
    "Gate",
    "InvariantViolation",
    "LinComb",
    "ReluGate",
    "ThresholdGate",
    "check_boolean",
    "check_equal",
    "count_roots",
    "count_sat",
    "count_system",
    "oracle_check_boolean",
    "oracle_count_fp_system",
    "oracle_count_sat",
    "oracle_sumprod",
    "sumprod",
    "sumprod_fp",
]


def test_all_is_the_public_list_and_every_name_resolves():
    assert sorted(hypersum.__all__) == PUBLIC
    assert all(hasattr(hypersum, name) for name in PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from hypersum import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_bare_import_loads_every_traced_module():
    """perfbench's tracer reads each traced function from
    ``sys.modules["hypersum.<module>"]`` after ``import hypersum`` and
    ``import hypersum.cli``; a module the package stops importing is a
    KeyError there."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = sorted(tracer.TRACED)
    script = (
        "import json, sys\n"
        "import hypersum\n"
        "loaded = sorted(k for k in sys.modules if k.startswith('hypersum.'))\n"
        "import hypersum.cli\n"
        "for module, attr in json.loads(sys.argv[1]):\n"
        "    getattr(sys.modules['hypersum.' + module], attr)\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(pairs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert {f"hypersum.{module}" for module, _ in pairs if module != "cli"} <= loaded


def test_readme_quick_start_runs_and_its_comments_are_reprs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert len(blocks) == 1
    source = blocks[0]
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "hypersum":
            assert {alias.name for alias in stmt.names} <= set(PUBLIC)
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert comments[stmt.end_lineno].startswith(repr(value)), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked >= 3
