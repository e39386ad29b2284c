"""The benchmark's workloads, through the reads the benchmark makes of the library.

``perfbench/perf_workloads.py`` keeps each quantum player's ``theta.values``
and prepares its state with ``apply_ansatz(spec, theta).amplitudes``.  Round
0 of seed 1 of each workload is built, solved, summarized and checked as
``perfbench/run.py`` does it, so a library change that breaks those reads,
or a solve's check, fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import perf_workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_zero_passes_every_check(workload):
    for solve in wl.build_round(workload, seed=1, round_index=0):
        before = wl.operator_digest(solve.operator)
        result = solve.run()
        outcome = wl.summarize(solve, result, 0.0, wl.operator_digest(solve.operator) == before)
        wl.check(solve, outcome)
        assert outcome.passed, f"{workload} {solve.label}: {outcome.reason}"
