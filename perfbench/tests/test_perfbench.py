"""Self-checks of the benchmark: manifest, seeding, checker, tracer, and a
small end-to-end run.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hypersum as hs
import run
from check import count_failures, expected
from speed import SpeedProbe
from tracer import TRACED, Tracer
from workloads import WORKLOADS, batch, build

ROOT = Path(run.__file__).resolve().parent.parent


def _size(q: dict) -> int:
    doc = q.get("doc", q)
    return doc.get("n") or doc["left"]["n"]


def test_manifest_matches_the_code():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()
    assert [w["name"] for w in on_disk["workloads"]] == [
        "ethr-deep", "thr-wide", "fp-sumprod", "analysis-docs"]


def test_batches_depend_only_on_workload_seed_and_index():
    assert batch("thr-wide", 3, 1) == batch("thr-wide", 3, 1)
    assert batch("thr-wide", 3, 1) != batch("thr-wide", 3, 2)
    assert batch("thr-wide", 3, 1) != batch("thr-wide", 4, 1)
    assert batch("thr-wide", 3, 0) != batch("thr-wide", 3, "warmup")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smallest_queries_of_each_workload_check_out(workload):
    queries = sorted(batch(workload, 7, 0), key=_size)[:3]
    answers, *_ = run.answer_all([build(q) for q in queries], SpeedProbe())
    assert count_failures(answers, [expected(q) for q in queries]) == 0


def test_wrong_expected_answer_and_raising_query_count_as_failed():
    queries = sorted(batch("analysis-docs", 7, 0), key=_size)[:4]
    answers, *_ = run.answer_all([build(q) for q in queries], SpeedProbe())
    truth = [expected(q) for q in queries]
    wrong = truth[:1] + [{"count": -1}] + truth[2:]
    assert count_failures(answers, wrong) == 1

    def over_cap():
        raise hs.CapExceeded("product expansion needs > 1 tuples")

    raised, *_ = run.answer_all([over_cap], SpeedProbe())
    assert raised[0]["error"] == "CapExceeded"
    assert count_failures(answers + raised, truth + ["0"]) == 1


def test_tracer_records_nested_spans_and_restores_every_binding():
    originals = {key: getattr(sys.modules[f"hypersum.{key[0]}"], key[1]) for key in TRACED}
    gates = [hs.ThresholdGate((1, 2, 3, -1), 3), hs.ThresholdGate((2, 1, 1, 1), 2)]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.query = 0
        value = hs.sumprod(gates, 4)
    finally:
        tracer.uninstall()
    assert value == hs.oracle_sumprod(gates, 4)
    for key, fn in originals.items():
        assert getattr(sys.modules[f"hypersum.{key[0]}"], key[1]) is fn
    assert hs.sumprod is originals[("sumprod", "sumprod")]

    chains = tracer.ancestors()
    thr = [s for s in tracer.spans if s[1] == "sumprod.thr"]
    assert len(thr) == 1 and chains[thr[0][3]][0] == "sumprod.sumprod"
    totals = tracer.totals()
    # the gates accept the integer sums 3..6 and 2..5: 4 * 4 expansion tuples
    assert totals["sumprod.thr"]["counter"] == 16
    assert totals["transforms.thr_to_ethrs"]["calls"] == 2
    assert totals["gates.normalize_integer"]["calls"] == 2
    assert totals["mitm.half_sums"]["calls"] == 2
    for row in totals.values():
        assert 0 <= row["self_s"] <= row["s"]


def test_run_refuses_without_library_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-src")
    assert run.main(["--workload", "thr-wide", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_a_correct_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis-docs", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 90
    names = [m["name"] for m in run.manifest()["end_to_end" if trace == 0 else "per_layer"]]
    assert list(result["metrics"]) == names
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
