"""The benchmark's workloads, through the reads the benchmark makes of the library.

``perfbench/perf_workloads.py`` keeps each quantum player's ``theta.values``
and prepares its state with ``apply_ansatz(spec, theta).amplitudes``.  Round
0 of each workload is built, solved, summarized and checked as
``perfbench/run.py`` does it, so a library change that breaks those reads,
or a solve's check, fails here and not only in a benchmark run.  ``classical``
runs at seeds 1-10, since its solves draw a new eigenbasis and start per seed.
At seed 1 every player of every solve is also compared with the round-0
digest in ``tests/data/round0_digest.json`` (``tools/round0_digest.py``):
counters exactly, eigenvalue and residual to 1e-9.  A change that moves a
player re-pins the file, with the old and new numbers, in the same change.

The library's size rules each pick between two forms of one job, and each is
kept only while a benchmark workload takes each side of it; the size-rule
test holds the constants between the round-0 inputs, and the last test
checks, on the same inputs, that ``tools/shot_read_crossover.py`` times each
form through the library's own dispatch and reads its pick from it.
"""

import json
import sys
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "tools"))

import numpy as np  # noqa: E402
import perf_workloads as wl  # noqa: E402
import round0_digest  # noqa: E402
import shot_read_crossover as crossover  # noqa: E402

from eigengames import hamiltonian, quantum_sim  # noqa: E402
from eigengames.quantum_sim import parameter_shift_states  # noqa: E402

ROUNDS = [pytest.param(workload, 1, id=workload) for workload in wl.WORKLOADS] + [
    pytest.param("classical", seed, id=f"classical-seed{seed}") for seed in range(2, 11)
]
PINNED = json.loads((ROOT / "tests" / "data" / "round0_digest.json").read_text())


def check_against_digest(workload, label, result):
    """Every player of a seed-1 round-0 solve against its pinned record."""
    expected = PINNED["1"][workload][label]
    got = round0_digest.result_records(result)
    assert len(got) == len(expected), f"{workload} {label}: {len(got)} players, pinned {len(expected)}"
    for index, (player, pinned) in enumerate(zip(got, expected), start=1):
        for name in round0_digest.COUNTERS:
            assert player[name] == pinned[name], f"{workload} {label} player {index}: {name}"
        for name in round0_digest.VALUES:
            assert player[name] == pytest.approx(pinned[name], rel=0, abs=1e-9), (
                f"{workload} {label} player {index}: {name}"
            )


@pytest.mark.parametrize("workload, seed", ROUNDS)
def test_round_zero_passes_every_check(workload, seed):
    for solve in wl.build_round(workload, seed=seed, round_index=0):
        before = wl.operator_digest(solve.operator)
        result = solve.run()
        outcome = wl.summarize(solve, result, 0.0, wl.operator_digest(solve.operator) == before)
        wl.check(solve, outcome)
        assert outcome.passed, f"{workload} seed {seed} {solve.label}: {outcome.reason}"
        if seed == 1:
            check_against_digest(workload, solve.label, result)


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


@pytest.mark.parametrize("workload", ["h2", "wide"])
def test_the_crossover_tool_times_the_dispatch_it_picks(workload):
    solve = wl.build_round(workload, seed=1, round_index=0)[0]
    h, spec = solve.operator, solve.spec
    m = spec.num_parameters
    base = parameter_shift_states(spec, np.random.default_rng(0).uniform(-np.pi, np.pi, m))
    kets = base[-1:]
    inputs = [
        (crossover.READ_RULE, partial(crossover.read_form, h, base, kets), ["(a) products", "(b) explicit"]),
        # wide's branch table, 2**40 amplitudes, is never built.
        (crossover.PREPARATION_RULE, partial(crossover.preparation_form, spec),
         ["loop", "plan"] if workload == "h2" else ["loop"]),
        (crossover.APPLY_RULE, partial(crossover.apply_form, h, base), ["stacked", "loop"]),
    ]
    # Each forced value drives its form: M on 2m + 1 or m + 1 rows, the plan built or not,
    # the block gathered whole or mask by mask; the constant is restored afterwards.
    for rule, form_of, forms in inputs:
        module, name, _ = rule
        saved = getattr(module, name)
        for form in forms:
            with crossover.forced(rule, form):
                assert form_of() == form, (name, form)
            assert getattr(module, name) == saved
    # The pick is the unforced dispatch: h2 builds its shift rows, sums its plan and
    # stacks its sweep's rows; wide reads products, runs the loop and loops over masks.
    picks = [form_of() for _, form_of, _ in inputs]
    assert picks == (["(b) explicit", "plan", "stacked"] if workload == "h2" else ["(a) products", "loop", "loop"])
    assert crossover.apply_form(h, base[-1]) == "stacked"  # a single state stacks on both
