"""Parameterized players, the overlap-penalized baseline, and explicit deflation."""

import json
from pathlib import Path

import numpy as np
import pytest

from eigengames import quantumgame
from eigengames.errors import DegenerateParentError
from eigengames.hamiltonian import (
    HermitianMatrix,
    PauliSum,
    bundled_h2_path,
    exact_eigendecomposition,
    load_pauli_sum,
    pauli_sum_to_matrix,
)
from eigengames.quantum_sim import (
    ShotModel,
    apply_ansatz,
    expectation,
    layered_ansatz,
    random_layers_ansatz,
    zero_state,
)
from eigengames.quantumgame import (
    QuantumParent,
    SolverConfig,
    deflation_vqe,
    exact_top_eigenvector_solver,
    pauli_sum_hash,
    quantumgame_player,
    run_quantumgame,
    run_vqd,
    vqd_player,
)

from oracles import power_iteration_solver, quantum_utility

DIAG_3210 = PauliSum(2, ((1.5, "II"), (1.0, "ZI"), (0.5, "IZ")))  # diag(3, 2, 1, 0)
DIAG_3120 = PauliSum(2, ((1.5, "II"), (0.5, "ZI"), (1.0, "IZ")))  # diag(3, 1, 2, 0)
Z1 = PauliSum(1, ((1.0, "Z"),))


def make_parent(h, spec, theta_values):
    theta = spec.bind(theta_values)
    state = apply_ansatz(spec, theta)
    return QuantumParent(theta, expectation(h, state), state)


@pytest.fixture(scope="module")
def h2():
    return load_pauli_sum(bundled_h2_path())


@pytest.fixture(scope="module")
def h2_oracle(h2):
    return np.sort(exact_eigendecomposition(pauli_sum_to_matrix(h2)).eigenvalues)


class TestQuantumUtility:
    def test_no_parents_is_plain_expectation(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
        value = quantum_utility(h2, spec, theta, (), ShotModel())
        assert value == pytest.approx(expectation(h2, apply_ansatz(spec, theta)), abs=1e-12)

    def test_orthogonal_basis_states_have_zero_penalty(self):
        # Player at |00>, parent at a different basis state of the diagonal
        # operator: the cross term vanishes.  RY(pi) on both qubits followed by
        # the ring CNOT leaves the register at |10>.
        spec = layered_ansatz(2, 1, initial_state="zero")
        child = spec.bind(np.zeros(spec.num_parameters))
        parent_values = np.zeros(spec.num_parameters)
        parent_values[0] = np.pi  # RY(pi) on qubit 0
        parent_values[2] = np.pi  # RY(pi) on qubit 1
        parent = make_parent(DIAG_3210, spec, parent_values)
        assert abs(abs(parent.statevector.amplitudes[2]) - 1.0) < 1e-12
        value = quantum_utility(DIAG_3210, spec, child, (parent,), ShotModel())
        assert value == pytest.approx(expectation(DIAG_3210, apply_ansatz(spec, child)), abs=1e-10)

    def test_self_penalty_annihilates(self):
        spec = layered_ansatz(1, 1, initial_state="zero")
        theta = np.zeros(spec.num_parameters)  # stays at |0>, eigenvalue 1 of Z
        parent = make_parent(Z1, spec, theta)
        value = quantum_utility(Z1, spec, spec.bind(theta), (parent,), ShotModel())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_parent_rejected(self):
        spec = layered_ansatz(1, 1, initial_state="zero")
        theta = spec.bind(np.array([np.pi / 2.0, 0.0]))  # RY(pi/2)|0> = |+>, <Z> = 0
        parent = QuantumParent(theta, 0.0, apply_ansatz(spec, theta))
        with pytest.raises(DegenerateParentError):
            quantum_utility(Z1, spec, theta, (parent,), ShotModel())


class TestQuantumGamePlayer:
    def test_ground_state_of_diagonal_operator(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3, max_iterations=3000)
        state = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(0.0, abs=1e-2)

    def test_second_player_reaches_first_excited(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3, max_iterations=4000)
        first = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), cfg)
        parent = QuantumParent(first.theta, first.eigenvalue, apply_ansatz(spec, first.theta))
        rng = np.random.default_rng(3)
        second = quantumgame_player(
            DIAG_3210, spec, spec.bind(rng.uniform(-np.pi, np.pi, 8)), (parent,), cfg, index=2
        )
        assert second.converged
        assert second.eigenvalue == pytest.approx(1.0, abs=1e-2)

    def test_maximize_direction_finds_top(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-3, max_iterations=3000)
        state = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.4)), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(3.0, abs=1e-2)

    def test_monotone_utility_noiseless(self, h2):
        # Ascent with eta <= 1/(2||M||) must not decrease the utility.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-4, max_iterations=400)
        rng = np.random.default_rng(1)
        first = quantumgame_player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), (), cfg)
        parent = QuantumParent(first.theta, first.eigenvalue, apply_ansatz(spec, first.theta))
        second = quantumgame_player(
            h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), (parent,), cfg, index=2
        )
        for history in (first.utility_history, second.utility_history):
            diffs = np.diff(np.asarray(history))
            assert diffs.min() >= -1e-9


class TestRunQuantumGame:
    def test_h2_four_levels_noiseless(self, h2, h2_oracle):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=3000)
        result = run_quantumgame(h2, spec, cfg, 4, seed=0)
        assert result.all_converged
        assert np.max(np.abs(np.sort(result.eigenvalues) - h2_oracle)) <= 2e-2

    def test_h2_four_levels_maximize(self, h2, h2_oracle):
        # Every H2 level is negative, so each parent penalty divides by a
        # negative eigenvalue unless the ascent runs on a shifted operator.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-2, max_iterations=3000)
        result = run_quantumgame(h2, spec, cfg, 4, seed=0)
        assert np.max(np.abs(np.sort(result.eigenvalues) - h2_oracle)) <= 2e-2

    def test_operator_never_mutates(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-1, max_iterations=50)
        before = pauli_sum_hash(h2)
        result = run_quantumgame(h2, spec, cfg, 2, seed=0)
        assert result.operator_hash_before == before
        assert result.operator_hash_after == before
        assert pauli_sum_hash(h2) == before

    def test_noiseless_determinism_bit_for_bit(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=200)
        a = run_quantumgame(h2, spec, cfg, 2, seed=3)
        b = run_quantumgame(h2, spec, cfg, 2, seed=3)
        assert a.eigenvalues == b.eigenvalues
        for pa, pb in zip(a.players, b.players):
            assert pa.energy_history == pb.energy_history
            assert np.array_equal(pa.theta.values, pb.theta.values)

    def test_penalty_annihilation_for_converged_players(self, h2):
        # At a converged parent's own parameters the j-penalty equals its eigenvalue.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=2000)
        result = run_quantumgame(h2, spec, cfg, 2, seed=0)
        parent_state = apply_ansatz(spec, result.players[0].theta)
        lam = expectation(h2, parent_state)
        from oracles import mixed_expectation_states

        cross = mixed_expectation_states(h2, parent_state, parent_state)
        penalty = (cross.real**2 + cross.imag**2) / lam
        assert penalty == pytest.approx(lam, abs=1e-9)

    def test_single_player_run_is_plain_vqe(self, h2):
        # k=1 leaves the parent set empty: the run is ordinary single-component
        # minimization with the same seeded initialization.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=1500)
        result = run_quantumgame(h2, spec, cfg, 1, seed=4)
        assert result.players[0].parents == ()
        assert result.all_converged
        oracle_ground = np.sort(
            exact_eigendecomposition(pauli_sum_to_matrix(h2)).eigenvalues
        )[0]
        assert result.eigenvalues[0] == pytest.approx(oracle_ground, abs=1e-2)

    def test_parent_cache_matches_reevaluation(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        # Noiseless: the cached broadcast eigenvalue equals a fresh measurement.
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=1500)
        result = run_quantumgame(h2, spec, cfg, 2, seed=0)
        for player in result.players:
            psi = apply_ansatz(spec, player.theta)
            assert player.eigenvalue == pytest.approx(expectation(h2, psi), abs=1e-12)
        # Finite shots: cached value within the 5-sigma estimator band.
        noisy_cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-2, max_iterations=200,
            shots=ShotModel(10_000, rng_seed=9),
        )
        noisy = run_quantumgame(h2, spec, noisy_cfg, 2, seed=0)
        from eigengames.quantum_sim import expectation_and_variance

        for player in noisy.players:
            psi = apply_ansatz(spec, player.theta)
            mean, var = expectation_and_variance(h2, psi)
            assert abs(player.eigenvalue - mean) <= 5.0 * np.sqrt(var / 10_000) + 1e-12

    def test_shot_noise_band(self, h2, h2_oracle):
        # Energies land within 10 * sqrt(Var/N) of the oracle levels, with the
        # variance taken at each converged state.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-2, max_iterations=400,
            shots=ShotModel(10_000, rng_seed=2),
        )
        result = run_quantumgame(h2, spec, cfg, 4, seed=0)
        from eigengames.quantum_sim import expectation_and_variance

        order = np.argsort(result.eigenvalues)
        for rank, idx in enumerate(order):
            player = result.players[idx]
            psi = apply_ansatz(spec, player.theta)
            mean, var = expectation_and_variance(h2, psi)
            band = 10.0 * np.sqrt(var / 10_000) + 5e-4  # floor guards a hard zero variance
            assert abs(result.eigenvalues[idx] - h2_oracle[rank]) <= abs(mean - h2_oracle[rank]) + band
            assert abs(mean - h2_oracle[rank]) <= band + 2e-2


class TestVqd:
    def test_plain_vqe_ground_state(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3,
                           max_iterations=3000, beta=5.0)
        state = vqd_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(0.0, abs=1e-2)

    def test_beta_five_reaches_first_excited(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3,
                           max_iterations=4000, beta=5.0)
        first = vqd_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), cfg)
        parent = QuantumParent(first.theta, first.eigenvalue, apply_ansatz(spec, first.theta))
        rng = np.random.default_rng(5)
        second = vqd_player(
            DIAG_3210, spec, spec.bind(rng.uniform(-np.pi, np.pi, 8)), (parent,), cfg, index=2
        )
        assert second.eigenvalue == pytest.approx(1.0, abs=5e-2)

    def test_negative_beta_rejected(self):
        # A negative weight rewards overlap with the parents and turns the
        # 1/(2(||M|| + sum beta)) step negative.
        with pytest.raises(ValueError):
            SolverConfig(direction="minimize", beta=-1.0)

    def test_beta_with_adaptive_regularization_rejected(self):
        # Adaptive mode sets its own weights, so a fixed beta would be dropped.
        with pytest.raises(ValueError):
            SolverConfig(beta=5.0, adaptive_regularization=True)

    def test_beta_required(self):
        spec = layered_ansatz(2, 1)
        cfg = SolverConfig(direction="minimize")
        with pytest.raises(ValueError):
            vqd_player(DIAG_3210, spec, spec.bind(np.zeros(4)), (), cfg)

    @pytest.mark.parametrize("weights", [{"beta": 5.0}, {"adaptive_regularization": True}],
                             ids=["fixed", "adaptive"])
    def test_maximize_finds_top_levels(self, weights):
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-3, max_iterations=3000, **weights)
        result = run_vqd(DIAG_3120, layered_ansatz(2, 2), cfg, 2, seed=0)
        assert result.all_converged
        assert np.allclose(result.eigenvalues, [3.0, 2.0], atol=1e-2)

    def test_adaptive_regularization_recovers_levels(self, h2, h2_oracle):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2,
                           max_iterations=4000, adaptive_regularization=True)
        result = run_vqd(h2, spec, cfg, 4, seed=0)
        assert np.max(np.abs(np.sort(result.eigenvalues) - h2_oracle)) <= 5e-2


class TestNoEigenvectorOracle:
    """The solvers read the operator only: no eigenvector, no angle against one."""

    def test_solvers_never_call_eigh_or_angular_error(self, monkeypatch, h2):
        from eigengames import eigengame_classical
        from eigengames.eigengame_classical import GameConfig, run_sequential
        from eigengames.hamiltonian import build_powerlaw_hamiltonian

        calls = {"eigh": 0, "angular_error": 0}
        eigh, angle = np.linalg.eigh, eigengame_classical.angular_error

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_angle(*args, **kwargs):
            calls["angular_error"] += 1
            return angle(*args, **kwargs)

        matrix, _ = build_powerlaw_hamiltonian(6, seed=2)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", max_iterations=5, beta=1.0)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(eigengame_classical, "angular_error", counting_angle)
        run_sequential(matrix, GameConfig(num_players=2, max_iterations_per_player=5), seed=0)
        run_quantumgame(h2, spec, cfg, 2, seed=0)
        run_vqd(h2, spec, cfg, 2, seed=0)
        assert calls == {"eigh": 0, "angular_error": 0}


class TestStatePreparations:
    """Each player prepares one state per iteration, plus its final state at most once."""

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    @pytest.mark.parametrize("budget, tolerance, shots", [(3, 1e-9, 1000), (3000, 1e-2, None)],
                             ids=["budget", "converged"])
    def test_one_final_state_per_player(self, monkeypatch, runner, extra, budget, tolerance, shots):
        # The final state used to be prepared twice: at the end of the ascent
        # and again for the broadcast parent.
        calls = []
        original = quantumgame.apply_ansatz

        def counting(spec, theta):
            calls.append(1)
            return original(spec, theta)

        monkeypatch.setattr(quantumgame, "apply_ansatz", counting)
        cfg = SolverConfig(direction="maximize", grad_tolerance=tolerance, max_iterations=budget,
                           shots=ShotModel(shots, rng_seed=2), **extra)
        result = runner(DIAG_3120, layered_ansatz(2, 2), cfg, 2, seed=0)
        assert result.all_converged == (shots is None)
        assert len(calls) == result.total_iterations + 2
        for player in result.players:
            prepared = original(layered_ansatz(2, 2), player.theta).amplitudes
            assert np.allclose(player.statevector.amplitudes, prepared, rtol=0.0, atol=1e-12)


class TestShotDraws:
    """Every finite-shot read-out is one ShotModel.perturb call, in circuit order."""

    @staticmethod
    def count_perturb_calls(monkeypatch, player, cfg, num_parents):
        spec = random_layers_ansatz(2, 2, 3, seed=3)
        h2 = load_pauli_sum(bundled_h2_path())
        rng = np.random.default_rng(num_parents)
        parents = tuple(
            make_parent(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            for _ in range(num_parents)
        )
        calls = []
        original = ShotModel.perturb

        def counting(model, mean, variance, rng=None):
            if not model.is_exact:
                calls.append(mean)
            return original(model, mean, variance, rng)

        monkeypatch.setattr(ShotModel, "perturb", counting)
        state = player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 6)), parents, cfg)
        return len(calls), len(state.energy_history), spec.num_parameters

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("player, per_parent", [(quantumgame_player, 2), (vqd_player, 1)])
    def test_readout_budget(self, monkeypatch, player, per_parent, num_parents, iterations):
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-9, max_iterations=iterations, beta=5.0,
            shots=ShotModel(1000, rng_seed=4),
        )
        calls, loops, m = self.count_perturb_calls(monkeypatch, player, cfg, num_parents)
        assert loops == iterations
        assert calls == loops * ((2 * m + 1) * (1 + per_parent * num_parents) + 1) + 1

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})])
    def test_trajectory_pinned_at_ten_thousand_shots(self, h2, runner, extra):
        # The reference values were recorded with the earlier loop that
        # simulated every ancilla circuit (see the note in the data file);
        # a change in the draw order moves them far beyond 1e-9.
        pinned = json.loads((Path(__file__).parent / "data" / "h2_10k_shots_pinned.json").read_text())
        expected = pinned["game" if runner is run_quantumgame else "vqd"]
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-2, max_iterations=20,
            shots=ShotModel(10_000, rng_seed=21), **extra,
        )
        result = runner(h2, spec, cfg, 3, seed=5)
        assert np.max(np.abs(np.subtract(result.eigenvalues, expected["eigenvalues"]))) <= 1e-9
        for player, history in zip(result.players, expected["energy_history"]):
            assert len(player.energy_history) == len(history)
            assert np.max(np.abs(np.subtract(player.energy_history, history))) <= 1e-9


class TestDeflation:
    def test_first_level_deflates_top_eigenvalue(self):
        m = HermitianMatrix(np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex))
        result = deflation_vqe(m, 2)
        assert result.pairs[0][0] == pytest.approx(3.0, abs=1e-12)
        # The top of the deflated diag(0, 2, 1, 0).
        assert result.pairs[1][0] == pytest.approx(2.0, abs=1e-12)

    def test_full_spectrum_with_exact_solver(self):
        from eigengames.hamiltonian import build_powerlaw_hamiltonian

        matrix, spectrum = build_powerlaw_hamiltonian(6, seed=4)
        result = deflation_vqe(matrix, 6, exact_top_eigenvector_solver)
        got = np.array([lam for lam, _ in result.pairs])
        assert np.max(np.abs(got - spectrum.eigenvalues)) <= 1e-6

    def test_single_level_is_plain_vqe(self):
        m = HermitianMatrix(np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex))
        result = deflation_vqe(m, 1)
        assert len(result.pairs) == 1
        assert result.pairs[0][0] == pytest.approx(3.0, abs=1e-12)

    def test_power_iteration_solver_agrees(self):
        from eigengames.hamiltonian import build_powerlaw_hamiltonian

        matrix, spectrum = build_powerlaw_hamiltonian(6, seed=4)
        result = deflation_vqe(matrix, 2, power_iteration_solver, t=20_000)
        got = np.array([lam for lam, _ in result.pairs])
        assert np.max(np.abs(got - spectrum.eigenvalues[:2])) <= 1e-6

    def test_input_matrix_untouched(self):
        entries = np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex)
        m = HermitianMatrix(entries.copy())
        deflation_vqe(m, 4)
        assert np.array_equal(m.entries, entries)

    def test_too_many_levels_rejected(self):
        m = HermitianMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            deflation_vqe(m, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_rejected(self, k):
        # k = 0 used to return an empty result flagged complete.
        m = HermitianMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="at least one level"):
            deflation_vqe(m, k)

    def test_solver_failure_yields_partial_result(self):
        from eigengames.hamiltonian import build_powerlaw_hamiltonian

        matrix, spectrum = build_powerlaw_hamiltonian(6, seed=4)
        # A one-step budget cannot converge, so the run stops at level 1.
        result = deflation_vqe(matrix, 3, power_iteration_solver, t=1)
        assert not result.complete
        assert result.failed_level == 1
        assert result.pairs == []


class TestInputValidation:
    @pytest.mark.parametrize("direction", ["maximise", "min", ""])
    def test_misspelled_direction_rejected(self, direction):
        # Any value but "maximize" used to take the minimize branch silently.
        with pytest.raises(ValueError, match="direction"):
            SolverConfig(direction=direction)

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_no_players_rejected(self, runner, extra, k):
        # An empty run used to return all_converged=True with no levels.
        cfg = SolverConfig(direction="minimize", **extra)
        with pytest.raises(ValueError, match="at least one player"):
            runner(DIAG_3120, layered_ansatz(2, 2), cfg, k, seed=0)
