"""The hypersum benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this (fresh, single-threaded) process against the
library under ``src/`` of the checkout, checks every answer, prints every
metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
the outside tracer.  A record of the run (environment, per-batch answer
digests, metrics) goes to ``.perfbench_out/`` in the checkout, with the
spans of a traced run beside it.

    python3 perfbench/run.py                   # every workload, traced and not, one process each
    python3 perfbench/run.py --write-manifest  # regenerate BENCHMARK.json

See perfbench/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S, SpeedProbe, adjusted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 10
SETUP_PROBES = 9
MIN_BATCHES = 3  # the answer digest covers batches 0..MIN_BATCHES-1 of a seed
WARMUP_QUERIES = 4

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("batch_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# name, unit, better; every per-layer figure is per traced batch unless it is a ratio
PER_LAYER = [
    ("gates.normalize_integer.calls", "count", "lower"),
    ("gates.normalize_integer.s", "s", "lower"),
    ("transforms.thr_to_ethrs.calls", "count", "lower"),
    ("transforms.thr_to_ethrs.terms", "count", "lower"),
    ("transforms.thr_to_ethrs.s", "s", "lower"),
    ("transforms.collapse_ethr_conjunction.s", "s", "lower"),
    ("mitm.partials", "count", "lower"),
    ("mitm.half_sums.calls", "count", "lower"),
    ("mitm.half_sums.s", "s", "lower"),
    ("mitm.half_sums.exact_share", "ratio", "lower"),
    ("mitm.count_subset_sum.self_s", "s", "lower"),
    ("sumprod.thr.calls", "count", "lower"),
    ("sumprod.thr.self_s", "s", "lower"),
    ("sumprod.relu.calls", "count", "lower"),
    ("sumprod.relu.self_s", "s", "lower"),
    ("sumprod.ethr.calls", "count", "lower"),
    ("sumprod.ethr.self_s", "s", "lower"),
    ("sumprod.expansion_tuples", "count", "lower"),
    ("fppoly.sumprod_fp.calls", "count", "lower"),
    ("fppoly.count_system.calls", "count", "lower"),
    ("fppoly.count_system.self_s", "s", "lower"),
    ("fppoly.count_roots.calls", "count", "lower"),
    ("fppoly.count_roots.s", "s", "lower"),
    ("fppoly.count_roots.per_sumprod_fp", "count", "lower"),
    ("fppoly.count_roots.dense_entries", "count", "lower"),
    ("fppoly.suffix_count_poly.calls", "count", "lower"),
    ("fppoly.suffix_count_poly.s", "s", "lower"),
    ("fppoly.value_cache.hit_ratio", "ratio", "higher"),
    ("analysis.check_boolean.calls", "count", "lower"),
    ("analysis.count_sat.calls", "count", "lower"),
    ("analysis.check_equal.calls", "count", "lower"),
    ("analysis.sumprod_calls", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
# computed from the call's inputs by the benchmark, not counted by the library
COMPUTED = {"sumprod.expansion_tuples", "fppoly.count_roots.dense_entries"}

NOISE = ("shared machine; no CPU pinning, no frequency-governor change and no "
         "cache dropping; numpy/BLAS limited to one thread")


def manifest() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- environment ---------------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "hypersum").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "noise": NOISE,
    }


# -- measurement -------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(speed-adjusted, raw) cold set-up times from SETUP_PROBES fresh
    interpreters, in order."""
    adjusted_s, raw_s = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw_s.append(probe["import_s"] + probe["build_s"])
        adjusted_s.append(raw_s[-1] * NOMINAL_S / probe["probe_s"])
    return adjusted_s, raw_s


def answer_all(calls, probe, tracer=None, first_id=0):
    """(answers, latencies, probes) for the built queries, in order.

    ``probe`` runs before the first query and after each one (untimed), so
    ``probes`` has one entry more than ``latencies``; see speed.py.
    """
    from check import error_answer

    answers, latencies, probes = [], [], [probe()]
    clock = time.perf_counter
    for j, call in enumerate(calls):
        if tracer is not None:
            tracer.query = first_id + j
        start = clock()
        try:
            answer = call()
        except Exception as exc:  # a raising query is a failed query, not a crash
            answer = error_answer(exc)
        latencies.append(clock() - start)
        answers.append(answer)
        probes.append(probe())
    return answers, latencies, probes


def _value_cache():
    """fppoly's lru-cached value histogram, or None once the cache is gone."""
    from hypersum import fppoly

    cached = getattr(fppoly, "_value_histogram", None)
    return cached if hasattr(cached, "cache_info") else None


def _library_counts() -> tuple:
    """(mitm.partials, value-cache hits, value-cache misses)."""
    from hypersum import mitm

    cache = _value_cache()
    info = cache.cache_info() if cache else None
    return mitm.partials.value, info.hits if info else 0, info.misses if info else 0


def measure(workload: str, seed: int, budget: float, probe, tracer=None) -> list[dict]:
    """Answer batches 0, 1, 2, ... until ``budget`` seconds have passed and at
    least MIN_BATCHES ran.  With a tracer, odd batches run traced, so traced
    and untraced batches share the machine's fast and slow spells.  A batch's
    queries are generated and built before any of them is timed."""
    from workloads import batch, build

    batches = []
    began = time.perf_counter()
    while len(batches) < MIN_BATCHES + (tracer is not None) or time.perf_counter() - began < budget:
        index = len(batches)
        queries = batch(workload, seed, index)
        calls = [build(q) for q in queries]
        traced = tracer is not None and index % 2 == 1
        if traced:
            before = _library_counts()
            tracer.install()
        try:
            answers, latencies, probes = answer_all(calls, probe, tracer if traced else None, index * 1000)
        finally:
            if traced:
                tracer.uninstall()
        counts = [a - b for a, b in zip(_library_counts(), before)] if traced else None
        batches.append({"index": index, "queries": queries, "answers": answers, "traced": traced,
                        "latencies": latencies, "adjusted": adjusted(latencies, probes),
                        "probes": probes, "counts": counts})
    return batches


def check_batches(batches) -> int:
    from check import count_failures, digest, expected

    failed = 0
    for b in batches:
        failed += count_failures(b["answers"], [expected(q) for q in b["queries"]])
        b["digest"] = digest(b["answers"])
    return failed


def _timings(batches, key: str) -> tuple[float, float, float]:
    """(median batch seconds, p50 ms, p90 ms) of the per-query times in ``key``."""
    latencies = [x * 1e3 for b in batches for x in b[key]]
    return (statistics.median(sum(b[key]) for b in batches),
            statistics.median(latencies), statistics.quantiles(latencies, n=10)[8])


def end_to_end_metrics(batches, setup: list[float], peak_rss_mb: float) -> dict:
    """Times are speed-adjusted (speed.py)."""
    batch_s, p50, _ = _timings(batches, "adjusted")
    return {"batch_s": batch_s, "query_p50_ms": p50,
            "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}


def side_figures(batches) -> dict:
    """Printed and recorded, but not in BENCHMARK.json (see README.md)."""
    p90 = _timings(batches, "adjusted")[2]
    batch_wall, p50_wall, p90_wall = _timings(batches, "latencies")
    return {"query_p90_ms": (p90, "ms"), "batch_wall_s": (batch_wall, "s"),
            "query_wall_p50_ms": (p50_wall, "ms"), "query_wall_p90_ms": (p90_wall, "ms"),
            "probe_s": (statistics.median(p for b in batches for p in b["probes"]), "s")}


def per_layer_metrics(tracer, batches: list[dict]) -> dict:
    from tracer import under

    traced = [b for b in batches if b["traced"]]
    n_batches = len(traced)
    partials, hits, misses = (sum(col) for col in zip(*(b["counts"] for b in traced)))
    overhead = (statistics.median(sum(b["adjusted"]) for b in traced)
                / statistics.median(sum(b["adjusted"]) for b in batches if not b["traced"]) - 1)
    totals = tracer.totals()
    chains = tracer.ancestors()

    def get(name, field):
        return totals[name][field] / n_batches if name in totals else 0.0

    half_calls = get("mitm.half_sums", "calls")
    fp_calls = get("fppoly.sumprod_fp", "calls")
    roots_in_fp = sum(calls for (_, anchor, name), (calls, _, _) in tracer.aggregates.items()
                      if name == "fppoly.count_roots" and under(chains, anchor, "fppoly.sumprod_fp"))
    analysis = {"analysis.check_boolean", "analysis.count_sat", "analysis.check_equal"}
    out = {
        "gates.normalize_integer.calls": get("gates.normalize_integer", "calls"),
        "gates.normalize_integer.s": get("gates.normalize_integer", "s"),
        "transforms.thr_to_ethrs.calls": get("transforms.thr_to_ethrs", "calls"),
        "transforms.thr_to_ethrs.terms": get("transforms.thr_to_ethrs", "counter"),
        "transforms.thr_to_ethrs.s": get("transforms.thr_to_ethrs", "s"),
        "transforms.collapse_ethr_conjunction.s": get("transforms.collapse_ethr_conjunction", "s"),
        "mitm.partials": partials / n_batches,
        "mitm.half_sums.calls": get("mitm.half_sums", "calls"),
        "mitm.half_sums.s": get("mitm.half_sums", "s"),
        "mitm.half_sums.exact_share": get("mitm.half_sums", "counter") / half_calls if half_calls else 0.0,
        "mitm.count_subset_sum.self_s": get("mitm.count_subset_sum", "self_s"),
        "sumprod.thr.calls": get("sumprod.thr", "calls"),
        "sumprod.thr.self_s": get("sumprod.thr", "self_s"),
        "sumprod.relu.calls": get("sumprod.relu", "calls"),
        "sumprod.relu.self_s": get("sumprod.relu", "self_s"),
        "sumprod.ethr.calls": get("sumprod.ethr", "calls"),
        "sumprod.ethr.self_s": get("sumprod.ethr", "self_s"),
        "sumprod.expansion_tuples": get("sumprod.thr", "counter") + get("sumprod.relu", "counter"),
        "fppoly.sumprod_fp.calls": get("fppoly.sumprod_fp", "calls"),
        "fppoly.count_system.calls": get("fppoly.count_system", "calls"),
        "fppoly.count_system.self_s": get("fppoly.count_system", "self_s"),
        "fppoly.count_roots.calls": get("fppoly.count_roots", "calls"),
        "fppoly.count_roots.s": get("fppoly.count_roots", "s"),
        "fppoly.count_roots.per_sumprod_fp": roots_in_fp / n_batches / fp_calls if fp_calls else 0.0,
        "fppoly.count_roots.dense_entries": get("fppoly.count_roots", "counter"),
        "fppoly.suffix_count_poly.calls": get("fppoly.suffix_count_poly", "calls"),
        "fppoly.suffix_count_poly.s": get("fppoly.suffix_count_poly", "s"),
        "analysis.check_boolean.calls": get("analysis.check_boolean", "calls"),
        "analysis.count_sat.calls": get("analysis.count_sat", "calls"),
        "analysis.check_equal.calls": get("analysis.check_equal", "calls"),
        "analysis.sumprod_calls": sum(
            1 for _, name, _, parent, *_ in tracer.spans
            if name == "sumprod.sumprod" and parent is not None and chains[parent][0] in analysis
        ) / n_batches,
        "analysis.self_s": sum(get(name, "self_s") for name in analysis),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.overhead_frac": overhead,
    }
    if _value_cache() is not None:  # omitted once the cache is gone: nothing to read
        out["fppoly.value_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return {name: out[name] for name, *_ in PER_LAYER if name in out}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup, setup_raw = ([], []) if trace else setup_seconds(workload, seed)

    import hypersum
    from tracer import Tracer
    from workloads import batch, build

    if Path(hypersum.__file__).resolve().parent != SRC / "hypersum":
        raise SystemExit(f"hypersum imported from {hypersum.__file__}, not from {SRC}")
    probe = SpeedProbe()
    answer_all([build(q) for q in batch(workload, seed, "warmup")[:WARMUP_QUERIES]], probe)

    tracer = Tracer() if trace else None
    batches = measure(workload, seed, seconds, probe, tracer)
    if trace:
        metrics = per_layer_metrics(tracer, batches)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(batches, setup, peak_rss_mb)

    failed = check_batches(batches)
    attempted = sum(len(b["answers"]) for b in batches)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    samples = sum(len(b["latencies"]) for b in batches)
    side = {**side_figures(batches), "failed_frac": (failed / attempted, "ratio")}
    if setup_raw:
        side["setup_wall_s"] = (statistics.median(setup_raw), "s")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"batches {len(batches)}  queries {attempted}")
    for name, (value, unit) in [*((n, (v, units[n])) for n, v in metrics.items()), *side.items()]:
        note = ""
        if name.startswith("query_"):
            note = f"  ({samples} samples)"
        elif name in COMPUTED:
            note = "  (computed from inputs)"
        if name in side:
            note += "  (not in BENCHMARK.json)"
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    print(f"  {'answer_digest':42s} {_answer_digest(batches)}")

    from check import tally

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "computed_metrics": sorted(COMPUTED & metrics.keys()),
        "side_figures": {n: {"value": v, "unit": u} for n, (v, u) in side.items()},
        "query_samples": samples,
        "attempted": attempted, "failed": failed,
        "errors": tally(a for b in batches for a in b["answers"]),
        "setup_s_probes": setup,
        "setup_wall_s_probes": setup_raw,
        "answer_digest": _answer_digest(batches),
        "batches": [{"index": b["index"], "wall_s": sum(b["latencies"]),
                     "adjusted_s": sum(b["adjusted"]), "queries": len(b["queries"]),
                     "digest": b["digest"], "traced": b["traced"]} for b in batches],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.write("# sid name query parent start_ns end_ns child_ns counter\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write("# aggregated: query parent name calls ns counter\n")
            for key, row in tracer.aggregates.items():
                fh.write(json.dumps([*key, *row]) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def _answer_digest(batches) -> str:
    from check import digest

    return digest([b["digest"] for b in batches[:MIN_BATCHES]])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)

    if not (SRC / "hypersum" / "__init__.py").is_file():
        print(f"perfbench: no hypersum sources under {SRC}", file=sys.stderr)
        return 2
    # one thread for numpy and any BLAS it loads, before anything imports numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
