"""Time one cold set-up in a fresh interpreter: ``import hypersum`` (with its
command line module) plus building batch 0's library objects from plain data.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"import_s", "build_s", "probe_s"} as one JSON line, where probe_s is
the mean of a pure-interpreter speed probe run just before and just after
(see speed.py).  ``run.py`` starts several of these and reports the median
speed-adjusted sum as ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

from speed import python_probe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

before = python_probe()
start = time.perf_counter()
import hypersum  # noqa: E402,F401
import hypersum.cli  # noqa: E402,F401

import_s = time.perf_counter() - start

import workloads  # noqa: E402

queries = workloads.batch(sys.argv[1], int(sys.argv[2]), 0)
start = time.perf_counter()
calls = [workloads.build(q) for q in queries]
build_s = time.perf_counter() - start
after = python_probe()
print(json.dumps({"import_s": import_s, "build_s": build_s, "probe_s": (before + after) / 2}))
