"""Parameterized players, the overlap-penalized baseline, and explicit deflation."""

import json
from functools import cached_property
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
    pauli_sum_apply,
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
from test_hamiltonian import random_pauli_sum

DIAG_3210 = PauliSum(2, ((1.5, "II"), (1.0, "ZI"), (0.5, "IZ")))  # diag(3, 2, 1, 0)
DIAG_3120 = PauliSum(2, ((1.5, "II"), (0.5, "ZI"), (1.0, "IZ")))  # diag(3, 1, 2, 0)
Z1 = PauliSum(1, ((1.0, "Z"),))


def make_parent(h, spec, theta_values):
    theta = spec.bind(theta_values)
    state = apply_ansatz(spec, theta)
    return QuantumParent(theta, expectation(h, state), state)


def dense_game_operator(h, direction):
    """Dense A = sign*M + offset*I, the operator the game ascends, with its sign and offset."""
    sign = 1.0 if direction == "maximize" else -1.0
    offset = h.one_norm + quantumgame.MIN_MODE_SHIFT_MARGIN
    dense = pauli_sum_to_matrix(h).entries
    return sign * dense + offset * np.eye(dense.shape[0]), sign, offset


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
        # Plain ascent with eta <= 1/(2||M||) must not decrease the utility, so
        # the warm-up is monotone; heavy-ball after it may dip, but must end
        # converged and above everything the warm-up reached.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-4, max_iterations=400)
        rng = np.random.default_rng(1)
        first = quantumgame_player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), (), cfg)
        parent = QuantumParent(first.theta, first.eigenvalue, apply_ansatz(spec, first.theta))
        second = quantumgame_player(
            h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), (parent,), cfg, index=2
        )
        for player in (first, second):
            warmup = np.asarray(player.utility_history[: quantumgame.ASCENT_WARMUP + 1])
            assert np.diff(warmup).min() >= -1e-9
            assert player.converged
            assert player.utility_history[-1] >= warmup.max()


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


class TestStepSize:
    """Both players step 1/(2L), L in closed form from the operator's Lanczos range."""

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player])
    def test_eta_matches_dense_norm(self, monkeypatch, player, direction):
        h = random_pauli_sum(np.random.default_rng(4), 3, 8, identity=True)
        spec = layered_ansatz(3, 1)
        parents = (make_parent(h, spec, np.full(spec.num_parameters, 0.3)),)
        cfg = SolverConfig(direction=direction, max_iterations=1, beta=2.0)
        etas = []
        ascend = quantumgame._ascend

        def recording_ascend(*args):
            etas.append(args[7])  # (m, spec, theta, parents, cfg, index, evaluate, eta, ...)
            return ascend(*args)

        monkeypatch.setattr(quantumgame, "_ascend", recording_ascend)
        player(h, spec, np.zeros(spec.num_parameters), parents, cfg)
        if player is quantumgame_player:
            norm = np.abs(np.linalg.eigvalsh(dense_game_operator(h, direction)[0])).max()
        else:
            norm = np.abs(np.linalg.eigvalsh(pauli_sum_to_matrix(h).entries)).max() + 2.0
        assert etas == [pytest.approx(1.0 / (2.0 * norm), rel=1e-12, abs=0.0)]

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 1.0})],
                             ids=["game", "vqd"])
    def test_no_dense_operator_and_one_lanczos_run(self, monkeypatch, runner, extra):
        from eigengames import quantum_sim

        h = random_pauli_sum(np.random.default_rng(8), 8, 24, identity=False)
        dense_shape = (2**8, 2**8)
        shapes = []
        lanczos_runs = []
        eigvalsh, apply = np.linalg.eigvalsh, quantum_sim.pauli_sum_apply
        spectral_range = PauliSum.spectral_range.func

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def recording_apply(op, amps):
            shapes.append(np.shape(amps))
            return apply(op, amps)

        def counted_range(op):
            lanczos_runs.append(op)
            return spectral_range(op)

        counted = cached_property(counted_range)
        counted.__set_name__(PauliSum, "spectral_range")
        monkeypatch.setattr(PauliSum, "spectral_range", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", recording_apply)
        monkeypatch.setattr(quantumgame, "pauli_sum_apply", recording_apply)
        cfg = SolverConfig(direction="minimize", max_iterations=2, **extra)
        result = runner(h, layered_ansatz(8, 1), cfg, 3, seed=0)
        assert len(result.players) == 3
        assert shapes and dense_shape not in shapes
        assert lanczos_runs == [h]


class TestShiftedObjective:
    """The players' objectives against a dense reference, with the sign and offset as algebra on M."""

    @staticmethod
    def captured_evaluator(monkeypatch, player, direction, num_parents):
        h = random_pauli_sum(np.random.default_rng(6), 3, 10, identity=True)
        spec = random_layers_ansatz(3, 2, 5, seed=2)
        rng = np.random.default_rng(num_parents)
        parents = tuple(
            make_parent(h, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            for _ in range(num_parents)
        )
        captured = []
        ascend = quantumgame._ascend

        def capturing_ascend(*args):
            captured.append(args[6])  # (m, spec, theta, parents, cfg, index, evaluate, ...)
            return ascend(*args)

        monkeypatch.setattr(quantumgame, "_ascend", capturing_ascend)
        cfg = SolverConfig(direction=direction, max_iterations=1, beta=2.0)
        player(h, spec, np.zeros(spec.num_parameters), parents, cfg)
        psi = apply_ansatz(spec, rng.uniform(-np.pi, np.pi, (5, spec.num_parameters)))
        return h, parents, captured[0](psi, pauli_sum_apply(h, psi)), psi

    @staticmethod
    def check_energy_moments(h, psi, mean, var):
        dense = pauli_sum_to_matrix(h).entries
        m_psi = psi @ dense.T
        dense_mean = np.einsum("bi,bi->b", psi.conj(), m_psi).real
        dense_var = np.einsum("bi,bi->b", m_psi.conj(), m_psi).real - dense_mean**2
        assert np.allclose(mean, dense_mean, rtol=0.0, atol=1e-12)
        assert np.allclose(var, dense_var, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_game_rows_match_dense_shifted_operator(self, monkeypatch, direction, num_parents):
        h, parents, (value, _, mean, var, _), psi = self.captured_evaluator(
            monkeypatch, quantumgame_player, direction, num_parents)
        a, sign, offset = dense_game_operator(h, direction)
        a_psi = psi @ a.T
        expected = np.einsum("bi,bi->b", psi.conj(), a_psi).real
        for p in parents:
            cross = a_psi.conj() @ p.statevector.amplitudes
            expected -= np.abs(cross) ** 2 / (sign * p.eigenvalue + offset)
        assert np.allclose(value, expected, rtol=0.0, atol=1e-11)
        self.check_energy_moments(h, psi, mean, var)

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_vqd_rows_match_dense_penalized_energy(self, monkeypatch, direction, num_parents):
        h, parents, (value, _, mean, var, _), psi = self.captured_evaluator(
            monkeypatch, vqd_player, direction, num_parents)
        sign = -1.0 if direction == "maximize" else 1.0
        dense = pauli_sum_to_matrix(h).entries
        expected = sign * np.einsum("bi,bi->b", psi.conj(), psi @ dense.T).real
        for p in parents:
            expected += 2.0 * np.abs(psi.conj() @ p.statevector.amplitudes) ** 2
        assert np.allclose(value, expected, rtol=0.0, atol=1e-11)
        self.check_energy_moments(h, psi, mean, var)

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_one_pauli_application_per_batch(self, monkeypatch, player, num_parents, shots):
        # M is the only operator: one application per evaluated batch, one for
        # the final read and, for the game, one for its parent block.  No
        # PauliSum is built during the solve.
        from eigengames import quantum_sim

        h2 = load_pauli_sum(bundled_h2_path())
        assert h2.spectral_range  # cached before counting
        spec = random_layers_ansatz(2, 2, 3, seed=3)
        rng = np.random.default_rng(num_parents)
        parents = tuple(
            make_parent(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            for _ in range(num_parents)
        )
        applied, built = [], []
        apply, post_init = quantum_sim.pauli_sum_apply, PauliSum.__post_init__

        def counting_apply(op, amps):
            applied.append(op)
            return apply(op, amps)

        def counting_post_init(op):
            built.append(op)
            post_init(op)

        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", counting_apply)
        monkeypatch.setattr(quantumgame, "pauli_sum_apply", counting_apply)
        monkeypatch.setattr(PauliSum, "__post_init__", counting_post_init)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-9, max_iterations=4, beta=5.0,
                           shots=ShotModel(shots, rng_seed=4))
        state = player(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters), parents, cfg)
        parent_block = 1 if player is quantumgame_player and parents else 0
        assert len(applied) == len(state.energy_history) + 1 + parent_block
        assert all(op is h2 for op in applied)
        assert built == []

    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_sweep_prepares_and_applies_m_plus_one_rows(self, monkeypatch, player, num_parents):
        # Each iteration prepares theta + pi e_k (k < m) and theta, and applies
        # M to those m + 1 rows only; the 2m + 1 shift rows are rebuilt from them.
        from eigengames import quantum_sim

        h2 = load_pauli_sum(bundled_h2_path())
        spec = random_layers_ansatz(2, 2, 3, seed=3)
        rng = np.random.default_rng(num_parents)
        parents = tuple(
            make_parent(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            for _ in range(num_parents)
        )
        prepared, applied = [], []
        prepare, apply = quantum_sim.apply_ansatz, quantum_sim.pauli_sum_apply

        def recording_prepare(spec, theta):
            prepared.append(np.shape(theta))
            return prepare(spec, theta)

        def recording_apply(op, amps):
            applied.append(np.shape(amps))
            return apply(op, amps)

        monkeypatch.setattr(quantum_sim, "apply_ansatz", recording_prepare)
        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", recording_apply)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-9, max_iterations=3, beta=5.0)
        state = player(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters), parents, cfg)
        m, dim = spec.num_parameters, 2**spec.num_qubits
        iterations = len(state.energy_history)
        assert iterations == 3
        # The final read applies M to one row after the loop.
        assert prepared == [(m + 1, m)] * iterations
        assert applied == [(m + 1, dim)] * iterations + [(1, dim)]


class TestStatePreparations:
    """Each player prepares one state per iteration, plus its final state at most once."""

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    @pytest.mark.parametrize("budget, tolerance, shots", [(3, 1e-9, 1000), (3000, 1e-2, None)],
                             ids=["budget", "converged"])
    def test_one_final_state_per_player(self, monkeypatch, runner, extra, budget, tolerance, shots):
        # The final state used to be prepared twice: at the end of the ascent
        # and again for the broadcast parent.
        from eigengames import quantum_sim

        calls = []
        original = quantum_sim.apply_ansatz

        def counting(spec, theta):
            calls.append(1)
            return original(spec, theta)

        # The sweep prepares in quantum_sim; a spent budget prepares its final state here.
        monkeypatch.setattr(quantum_sim, "apply_ansatz", counting)
        monkeypatch.setattr(quantumgame, "apply_ansatz", counting)
        cfg = SolverConfig(direction="maximize", grad_tolerance=tolerance, max_iterations=budget,
                           shots=ShotModel(shots, rng_seed=2), **extra)
        result = runner(DIAG_3120, layered_ansatz(2, 2), cfg, 2, seed=0)
        assert result.all_converged == (shots is None)
        assert len(calls) == result.total_iterations + 2
        for player in result.players:
            prepared = original(layered_ansatz(2, 2), player.theta).amplitudes
            assert np.allclose(player.statevector.amplitudes, prepared, rtol=0.0, atol=1e-12)


class TestHeavyBallAscent:
    """The shared loop's momentum: fewer iterations to tolerance, plain ascent within the warm-up."""

    # total_iterations of noiseless H2 runs, k = 4, seeds 0-2, with the plain
    # parameter-shift loop this one replaced.
    PLAIN_ASCENT_TOTALS = {
        ("game", "minimize"): 1486,
        ("game", "maximize"): 844,
        ("vqd", "minimize"): 2353,
        ("vqd", "maximize"): 2414,
    }

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_fewer_iterations_than_plain_ascent(self, h2, h2_oracle, runner, extra, direction):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction=direction, grad_tolerance=1e-2, max_iterations=4000, **extra)
        total = restarts = 0
        for seed in range(3):
            result = runner(h2, spec, cfg, 4, seed=seed)
            assert result.all_converged
            assert np.max(np.abs(np.sort(result.eigenvalues) - h2_oracle)) <= 2e-2
            total += result.total_iterations
            restarts += sum(p.momentum_restarts for p in result.players)
        name = "game" if runner is run_quantumgame else "vqd"
        assert total <= 0.6 * self.PLAIN_ASCENT_TOTALS[name, direction]
        assert restarts > 0

    @pytest.mark.parametrize("budget", [1, quantumgame.ASCENT_WARMUP])
    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_no_restart_within_the_warm_up(self, h2, runner, extra, budget):
        # Shot noise flips the gradient often; within the warm-up none of it restarts.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-9, max_iterations=budget,
                           shots=ShotModel(100, rng_seed=7), **extra)
        result = runner(h2, spec, cfg, 3, seed=1)
        assert [p.iterations_used for p in result.players] == [budget] * 3
        assert [p.momentum_restarts for p in result.players] == [0, 0, 0]


class TestShotDraws:
    """Every finite-shot read-out a player draws is counted in its ``readouts`` and ``shots``."""

    @staticmethod
    def play(player, cfg, num_parents):
        spec = random_layers_ansatz(2, 2, 3, seed=3)
        h2 = load_pauli_sum(bundled_h2_path())
        rng = np.random.default_rng(num_parents)
        parents = tuple(
            make_parent(h2, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            for _ in range(num_parents)
        )
        state = player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 6)), parents, cfg)
        return state, spec.num_parameters

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("player, per_parent", [(quantumgame_player, 2), (vqd_player, 1)])
    def test_readout_budget(self, player, per_parent, num_parents, iterations):
        # Per iteration: 2m + 1 rows of 1 + per_parent * P read-outs, then the
        # energy read; after the loop, the eigenvalue read.
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-9, max_iterations=iterations, beta=5.0,
            shots=ShotModel(1000, rng_seed=4),
        )
        state, m = self.play(player, cfg, num_parents)
        loops = len(state.energy_history)
        assert loops == iterations
        assert state.readouts == loops * ((2 * m + 1) * (1 + per_parent * num_parents) + 1) + 1
        assert state.shots == state.readouts * cfg.shots.num_shots

    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_exact_model_counts_nothing(self, player, num_parents):
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-9, max_iterations=3, beta=5.0)
        state, _ = self.play(player, cfg, num_parents)
        assert (state.readouts, state.shots) == (0, 0)

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


    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_maximize_trajectory_pinned_at_ten_thousand_shots(self, h2, runner, extra):
        # Recorded while both players still built a separate operator (see the
        # data file); a shot draw whose mean flipped sign moves them far beyond 1e-9.
        pinned = json.loads((Path(__file__).parent / "data" / "h2_10k_shots_pinned.json").read_text())
        expected = pinned["game_maximize" if runner is run_quantumgame else "vqd_maximize"]
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(
            direction="maximize", grad_tolerance=1e-2, max_iterations=20,
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

    @pytest.mark.parametrize("runner", [run_quantumgame, run_vqd], ids=["game", "vqd"])
    @pytest.mark.parametrize("terms", [((0.0, "Z"),), ((1.0, "Z"), (-1.0, "Z")), ()],
                             ids=["zero-coefficient", "cancelling-terms", "empty-sum"])
    def test_zero_operator_rejected(self, runner, terms):
        # VQD used to divide by a zero step bound; the game returned [0.0].
        cfg = SolverConfig(direction="minimize", beta=1.0)
        with pytest.raises(ValueError, match="zero operator"):
            runner(PauliSum(1, terms), layered_ansatz(1, 1), cfg, 1, seed=0)
