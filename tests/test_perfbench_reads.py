"""The benchmark's workloads, through the reads the benchmark makes of the library.

``perfbench/perf_workloads.py`` keeps each quantum player's ``theta.values``
and prepares its state with ``apply_ansatz(spec, theta).amplitudes``.  Round
0 of each workload is built, solved, summarized and checked as
``perfbench/run.py`` does it, so a library change that breaks those reads,
or a solve's check, fails here and not only in a benchmark run.  ``classical``
runs at seeds 1-5, since its solves draw a new eigenbasis and start per seed.

The library's size rules each pick between two forms of one job, and each is
kept only while a benchmark workload takes each side of it; the last test
holds the constants between the round-0 inputs.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import perf_workloads as wl  # noqa: E402

from eigengames import hamiltonian, quantum_sim  # noqa: E402

ROUNDS = [pytest.param(workload, 1, id=workload) for workload in wl.WORKLOADS] + [
    pytest.param("classical", seed, id=f"classical-seed{seed}") for seed in range(2, 6)
]


@pytest.mark.parametrize("workload, seed", ROUNDS)
def test_round_zero_passes_every_check(workload, seed):
    for solve in wl.build_round(workload, seed=seed, round_index=0):
        before = wl.operator_digest(solve.operator)
        result = solve.run()
        outcome = wl.summarize(solve, result, 0.0, wl.operator_digest(solve.operator) == before)
        wl.check(solve, outcome)
        assert outcome.passed, f"{workload} seed {seed} {solve.label}: {outcome.reason}"


def round_zero_sizes(workload):
    """(m parameters, K x-masks, q qubits), shared by every round-0 solve of a quantum workload."""
    (sizes,) = {
        (solve.spec.num_parameters, len(solve.operator.compiled[0]), solve.spec.num_qubits)
        for solve in wl.build_round(workload, seed=1, round_index=0)
    }
    return sizes


def test_every_size_rule_has_a_workload_on_each_side():
    (hm, hk, hq), (wm, wk, wq) = round_zero_sizes("h2"), round_zero_sizes("wide")
    # sweep_reads builds the 2m + 1 shift rows when m*K*2**q is at most the constant.
    assert hm * hk * 2**hq == 72 <= quantum_sim.EXPLICIT_SHIFT_ROWS_WORK < wm * wk * 2**wq == 253_952
    # A layout sums its sweep plan when its branch table, 2**m * 2**q, is at most the constant.
    assert 2 ** (hm + hq) == 2048 <= quantum_sim.BRANCH_TABLE_ENTRIES < 2 ** (wm + wq) == 2**40
    # PauliSum.apply stacks a batch of rows x K x 2**q gathered entries up to the constant:
    # h2's 2m + 1 built shift rows and wide's single state stack, wide's m + 1 sweep rows loop.
    shot_block, single_state, sweep = (2 * hm + 1) * hk * 2**hq, wk * 2**wq, (wm + 1) * wk * 2**wq
    assert (shot_block, single_state, sweep) == (152, 7936, 261_888)
    assert max(shot_block, single_state) <= hamiltonian.STACKED_APPLY_ENTRIES < sweep
