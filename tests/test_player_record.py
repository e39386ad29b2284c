"""The one player record, as every runner fills it.

``run_sequential`` (both gradient modes), ``run_quantumgame`` and ``run_vqd``
(exact, and at 10k shots) all return ``PlayerResult``s.  Each field that
every runner fills is recomputed here from the returned vectors and the
operator, so a runner that drifts from the shared meaning fails the same
test as the others.
"""

import math

import numpy as np
import pytest

from eigengames.eigengame_classical import GameConfig, PlayerResult, run_sequential
from eigengames.hamiltonian import build_powerlaw_hamiltonian, bundled_h2_path, load_pauli_sum, pauli_sum_to_matrix
from eigengames.quantum_sim import ParameterTensor, ShotModel, random_layers_ansatz
from eigengames.quantumgame import SolverConfig, run_quantumgame, run_vqd

SHOTS = 10_000
ANSATZ = random_layers_ansatz(2, 3, 3, seed=11)


def _classical(mode):
    def run():
        matrix, _ = build_powerlaw_hamiltonian(12, seed=0)
        cfg = GameConfig(sigma=1e-4, grad_tolerance=1e-4, max_iterations_per_player=400, num_players=3)
        return run_sequential(matrix, cfg, seed=1, mode=mode), matrix.entries, None
    return run


def _quantum(runner, shots, **extra):
    def run():
        h2 = load_pauli_sum(bundled_h2_path())
        cfg = SolverConfig(max_iterations=40, direction="minimize", shots=ShotModel(shots), **extra)
        return runner(h2, ANSATZ, cfg, 3, seed=2), pauli_sum_to_matrix(h2), shots
    return run


RUNS = {
    "classical-exact": _classical("exact"),
    "classical-zeroth-order": _classical("zeroth_order"),
    "game-exact": _quantum(run_quantumgame, None),
    "game-shots": _quantum(run_quantumgame, SHOTS),
    "vqd-exact": _quantum(run_vqd, None, beta=2.0),
    "vqd-shots": _quantum(run_vqd, SHOTS, beta=2.0),
}


@pytest.fixture(scope="module", params=list(RUNS))
def run(request):
    result, dense, shots = RUNS[request.param]()
    return request.param, result, dense, shots


def test_every_player_is_the_one_record(run):
    _, result, _, _ = run
    assert [type(p) for p in result.players] == [PlayerResult] * 3
    assert [p.index for p in result.players] == [1, 2, 3]
    assert sum(p.iterations_used for p in result.players) == result.total_iterations
    assert result.eigenvalues == [p.eigenvalue for p in result.players]
    assert result.all_converged == all(p.converged for p in result.players)


def test_parents_are_the_earlier_vectors_bit_for_bit(run):
    _, result, _, _ = run
    for i, player in enumerate(result.players):
        earlier = np.array([p.vector for p in result.players[:i]], dtype=player.vector.dtype)
        earlier = earlier.reshape(i, len(player.vector))
        assert player.parents.shape == earlier.shape and player.parents.dtype == earlier.dtype
        assert player.parents.tobytes() == earlier.tobytes()
        assert not player.parents.flags.writeable


def test_residual_and_parent_overlap_recomputed(run):
    _, result, dense, shots = run
    for player in result.players:
        v = player.vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        mv = dense @ v
        rayleigh = np.vdot(v, mv).real
        assert abs(player.residual - np.linalg.norm(mv - rayleigh * v)) <= 1e-12
        if shots is None:
            assert abs(player.eigenvalue - rayleigh) <= 1e-12
        overlap = max((abs(np.vdot(v, parent)) ** 2 for parent in player.parents), default=0.0)
        assert abs(player.max_parent_overlap - overlap) <= 1e-12


def test_counters_and_runner_fields(run):
    name, result, _, shots = run
    for player in result.players:
        counters = (player.readouts, player.shots, player.prepared_rows, player.operator_rows)
        if name.startswith("classical"):
            assert counters == (0, 0, 0, 0)
            assert player.theta is None and player.max_imag_residue == 0.0
            assert player.energy_history == player.utility_history == player.grad_norm_history == []
            assert math.isfinite(player.final_riemannian_norm)
            continue
        if shots is None:
            assert player.readouts == player.shots == 0
        else:
            assert player.readouts > 0 and player.shots == player.readouts * shots
        assert player.prepared_rows > 0 and player.operator_rows > 0
        assert isinstance(player.theta, ParameterTensor) and player.theta.values.shape == (ANSATZ.num_parameters,)
        # One history entry per sweep: the steps taken, and the sweep that passed the stop test.
        sweeps = player.iterations_used + player.stopped
        assert len(player.energy_history) == len(player.utility_history) == len(player.grad_norm_history) == sweeps
        assert math.isnan(player.final_riemannian_norm)


# Both shot runs above spend their budget without a stop; at a loose tolerance
# every player of these two stops, so both values of the field are checked.
STOPPING_SHOT_RUNS = {
    "game-shots-stopping": _quantum(run_quantumgame, SHOTS, grad_tolerance=0.3),
    "vqd-shots-stopping": _quantum(run_vqd, SHOTS, beta=2.0, grad_tolerance=0.3),
}


@pytest.mark.parametrize("name", [*RUNS, *STOPPING_SHOT_RUNS])
def test_stopped_equals_converged(name):
    # ``stopped`` is the loops' stop test; until a certificate gates ``converged``
    # the two are set together, so every runner reports them equal.
    result, _, _ = {**RUNS, **STOPPING_SHOT_RUNS}[name]()
    stopped = [p.stopped for p in result.players]
    assert stopped == [p.converged for p in result.players]
    if name in STOPPING_SHOT_RUNS:
        assert all(stopped)
