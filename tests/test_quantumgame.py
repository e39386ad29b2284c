"""Parameterized players, the overlap-penalized baseline, and the dense deflation oracle."""

import inspect
import json
import math
import re
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from eigengames import eigengame_classical, quantum_sim, quantumgame
from eigengames.bench_cli import build_run_config
from eigengames.eigengame_classical import (
    ASCENT_WARMUP,
    UNIT_NORM_ATOL,
    GameConfig,
    HeavyBall,
    angular_error,
    eigengame_player,
    run_sequential,
    utility,
)
from eigengames.errors import (
    BindingError,
    DegenerateParentError,
    ConfigError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidShotCountError,
    NormalizationError,
)
from eigengames.hamiltonian import (
    PauliSum,
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    load_pauli_sum,
    pauli_sum_to_matrix,
    random_orthonormal,
)
from eigengames.quantum_sim import (
    NORM_ATOL,
    AnsatzSpec,
    ParameterTensor,
    ShotModel,
    StateVector,
    apply_ansatz,
    check_sweep,
    layered_ansatz,
    parameter_shift_states,
    pauli_sum_apply,
    random_layers_ansatz,
    shift_rule_gradient,
    sweep_reads,
)
from eigengames.quantumgame import (
    SolverConfig,
    pauli_sum_hash,
    quantumgame_player,
    run_quantumgame,
    run_vqd,
    vqd_player,
)
from eigengames.theory_diagnostics import (
    BoundParams,
    iteration_bound_classical,
    iteration_bound_quantum,
    measure_error_accumulation_classical,
    measure_error_accumulation_quantum,
    sampled_lipschitz_check,
)

from oracles import (
    hotelling_levels,
    parameter_shift_points,
    quantum_utility,
    rebuild_shift_rows,
    row_moments,
)
from test_hamiltonian import LATE_EXTREME, random_pauli_sum

DIAG_3210 = PauliSum(2, ((1.5, "II"), (1.0, "ZI"), (0.5, "IZ")))  # diag(3, 2, 1, 0)
DIAG_3120 = PauliSum(2, ((1.5, "II"), (0.5, "ZI"), (1.0, "IZ")))  # diag(3, 1, 2, 0)
Z1 = PauliSum(1, ((1.0, "Z"),))


def make_parents(h, spec, thetas):
    """(P, 2**q) parent states prepared from each theta in turn, and their (P,) eigenvalues on h."""
    states = [apply_ansatz(spec, spec.bind(theta)).amplitudes for theta in thetas]
    block = np.array(states).reshape(len(states), 2**spec.num_qubits)
    return block, np.array([exact_moments(h, state)[0] for state in block])


def arguments(fn, args, kwargs):
    """One call ``fn(*args, **kwargs)``'s arguments by name, passed by position or by keyword."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def exact_moments(h, psi):
    """(<M>, Var(M)) of one state's amplitudes, from ``sweep_reads`` on it."""
    (mean, var, _, _), _, _ = sweep_reads(h, psi[None, :], None)
    return float(mean[0]), float(var[0])


def force_read_form(monkeypatch, explicit):
    """Send every ``sweep_reads`` call to the explicit form (True) or the products form (False)."""
    monkeypatch.setattr(quantum_sim, "EXPLICIT_SHIFT_ROWS_WORK", math.inf if explicit else -1)


def dense_game_operator(h, direction):
    """Dense A = sign*M + offset*I, the operator the game ascends, with its sign and offset.

    The offset shifts A's lowest eigenvalue to the margin; it comes from the
    dense eigenvalues, not from ``spectral_range``.
    """
    sign = 1.0 if direction == "maximize" else -1.0
    dense = pauli_sum_to_matrix(h)
    lo, hi = np.linalg.eigvalsh(dense)[[0, -1]]
    offset = (-lo if sign > 0 else hi) + quantumgame.MIN_MODE_SHIFT_MARGIN
    return sign * dense + offset * np.eye(dense.shape[0]), sign, offset


@pytest.fixture(scope="module")
def h2():
    return load_pauli_sum(bundled_h2_path())


@pytest.fixture(scope="module")
def h2_oracle(h2):
    return np.linalg.eigvalsh(pauli_sum_to_matrix(h2))


class TestQuantumUtility:
    """The oracle is the maximizing game's objective, on A = M + offset*I."""

    def test_no_parents_is_plain_expectation(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
        value = quantum_utility(h2, spec, theta, (), (), ShotModel())
        _, _, offset = dense_game_operator(h2, "maximize")
        assert value == pytest.approx(exact_moments(h2, apply_ansatz(spec, theta).amplitudes)[0] + offset, abs=1e-12)

    def test_orthogonal_basis_states_have_zero_penalty(self):
        # Player at |00>, parent at a different basis state of the diagonal
        # operator: the cross term vanishes.  RY(pi) on both qubits followed by
        # the ring CNOT leaves the register at |10>.
        spec = layered_ansatz(2, 1, initial_state="zero")
        child = spec.bind(np.zeros(spec.num_parameters))
        parent_values = np.zeros(spec.num_parameters)
        parent_values[0] = np.pi  # RY(pi) on qubit 0
        parent_values[2] = np.pi  # RY(pi) on qubit 1
        states, eigenvalues = make_parents(DIAG_3210, spec, [parent_values])
        assert abs(abs(states[0, 2]) - 1.0) < 1e-12
        value = quantum_utility(DIAG_3210, spec, child, states, eigenvalues, ShotModel())
        _, _, offset = dense_game_operator(DIAG_3210, "maximize")
        energy = exact_moments(DIAG_3210, apply_ansatz(spec, child).amplitudes)[0]
        assert value == pytest.approx(energy + offset, abs=1e-10)

    def test_self_penalty_annihilates(self):
        spec = layered_ansatz(1, 1, initial_state="zero")
        theta = np.zeros(spec.num_parameters)  # stays at |0>, eigenvalue 1 of Z
        value = quantum_utility(Z1, spec, spec.bind(theta), *make_parents(Z1, spec, [theta]), ShotModel())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_parent_rejected(self):
        # An eigenvalue at the far end of the shifted enclosure, lo - margin,
        # puts the parent's denominator lambda + offset on A at zero.
        spec = layered_ansatz(1, 1, initial_state="zero")
        theta = spec.bind(np.array([np.pi / 2.0, 0.0]))  # RY(pi/2)|0> = |+>, <Z> = 0
        eigenvalue = Z1.spectral_range[0] - quantumgame.MIN_MODE_SHIFT_MARGIN
        with pytest.raises(DegenerateParentError):
            quantum_utility(Z1, spec, theta, [apply_ansatz(spec, theta).amplitudes], [eigenvalue], ShotModel())


class TestQuantumGamePlayer:
    def test_ground_state_of_diagonal_operator(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3, max_iterations=3000)
        state = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(0.0, abs=1e-2)

    def test_second_player_reaches_first_excited(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3, max_iterations=4000)
        first = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), (), cfg)
        parent = [first.vector], [first.eigenvalue]
        rng = np.random.default_rng(3)
        second = quantumgame_player(
            DIAG_3210, spec, spec.bind(rng.uniform(-np.pi, np.pi, 8)), *parent, cfg, index=2
        )
        assert second.converged
        assert second.eigenvalue == pytest.approx(1.0, abs=1e-2)

    def test_maximize_direction_finds_top(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-3, max_iterations=3000)
        state = quantumgame_player(DIAG_3210, spec, spec.bind(np.full(8, 0.4)), (), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(3.0, abs=1e-2)

    @pytest.mark.parametrize("budget", [3, 3000], ids=["budget-spent", "converged"])
    @pytest.mark.parametrize("player, extra", [(quantumgame_player, {}), (vqd_player, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_residual_and_parent_overlap_of_the_returned_state(self, h2, player, extra, budget):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rng = np.random.default_rng(2)
        parents = make_parents(h2, spec, [rng.uniform(-np.pi, np.pi, 9) for _ in range(2)])
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3, max_iterations=budget, **extra)
        state = player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), *parents, cfg, index=3)
        assert state.converged == (budget == 3000)
        psi = state.vector
        dense = pauli_sum_to_matrix(h2)
        mean = np.vdot(psi, dense @ psi).real
        assert state.eigenvalue == pytest.approx(mean, abs=1e-12)
        assert state.residual == pytest.approx(np.linalg.norm(dense @ psi - mean * psi), abs=1e-7)
        overlaps = [abs(np.vdot(state, psi)) ** 2 for state in parents[0]]
        assert state.max_parent_overlap == pytest.approx(max(overlaps), abs=1e-12)
        assert quantumgame_player(h2, spec, np.zeros(9), (), (), cfg).max_parent_overlap == 0.0

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("budget", [3, 3000], ids=["budget-spent", "converged"])
    @pytest.mark.parametrize("player, extra", [(quantumgame_player, {}), (vqd_player, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_exit_read_is_a_fresh_one_row_read(self, h2, player, extra, budget, shots):
        # Every exit prepares the returned theta once and reads it as a one-row
        # base; reading it again gives the same floats, converged or not.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rng = np.random.default_rng(2)
        parents = make_parents(h2, spec, [rng.uniform(-np.pi, np.pi, 9) for _ in range(2)])
        tolerance = 1e-9 if budget == 3 else 1e-3 if shots is None else 0.3
        cfg = SolverConfig(direction="minimize", grad_tolerance=tolerance, max_iterations=budget,
                           shots=ShotModel(shots, rng_seed=3), **extra)
        state = player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), *parents, cfg, index=3)
        assert state.converged == (budget == 3000)
        final = apply_ansatz(spec, state.theta.values[None, :])
        (mean, var, _, _), products, _ = sweep_reads(h2, final, parents[0])
        overlaps = np.abs(products) ** 2
        assert np.array_equal(state.vector, final[0])
        assert not state.vector.flags.writeable
        assert isinstance(state.theta, ParameterTensor) and not state.theta.values.flags.writeable
        assert state.residual == np.sqrt(var[0])
        assert state.max_parent_overlap == overlaps.max()
        if shots is None:
            assert state.eigenvalue == mean[0]

    @pytest.mark.parametrize("excess", [0.5, 0.0], ids=["negative", "zero"])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_parent_outside_the_enclosure_rejected(self, monkeypatch, h2, direction, excess):
        # A parent eigenvalue past the shifted end of the enclosure makes its
        # denominator sign*lambda + offset zero or negative, which would turn its
        # penalty into a reward; it is rejected before any sweep.
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        lo, hi = h2.spectral_range
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        states, _ = make_parents(h2, spec, [np.full(9, 0.4)])
        margin = quantumgame.MIN_MODE_SHIFT_MARGIN
        assert margin >= 2.0 * quantumgame.RANGE_RESIDUAL_TOL * max(-lo, hi)  # H2's margin is the floor
        eigenvalue = hi + margin + excess if direction == "minimize" else lo - margin - excess
        monkeypatch.setattr(quantumgame, "_sweep_states", no_sweep)
        cfg = SolverConfig(direction=direction, max_iterations=3)
        with pytest.raises(DegenerateParentError, match="not positive"):
            quantumgame_player(h2, spec, np.zeros(9), states, [eigenvalue], cfg)

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_parent_just_inside_the_shifted_enclosure_accepted(self, h2, direction):
        # A denominator of 0.5, still positive: the parent keeps its penalty.
        lo, hi = h2.spectral_range
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        states, _ = make_parents(h2, spec, [np.full(9, 0.4)])
        eigenvalue = hi + 0.5 if direction == "minimize" else lo - 0.5
        cfg = SolverConfig(direction=direction, max_iterations=3)
        state = quantumgame_player(h2, spec, np.zeros(9), states, [eigenvalue], cfg)
        assert state.iterations_used == 3

    @pytest.mark.parametrize("denominator, usable", [(1e-10, False), (2e-10, True)])
    def test_both_games_draw_the_same_denominator_line(self, denominator, usable):
        # The classical game matrix divides by the parent's Rayleigh quotient,
        # here exactly ``denominator``.  The quantum objective divides by
        # lambda + offset, which near an offset of 2 lands on a multiple of
        # 2**-52: here the largest one at most ``denominator``.
        def classical():
            utility(np.array([1.0, 0.0]), [np.array([0.0, 1.0])], np.diag([1.0, denominator]))

        offset = quantumgame._game_objective(Z1, np.zeros((0, 2), complex), [], "maximize").constant
        eigenvalue = denominator - offset
        while eigenvalue + offset > denominator:
            eigenvalue = np.nextafter(eigenvalue, -np.inf)
        assert denominator - (eigenvalue + offset) <= 1e-15

        def quantum():
            quantumgame._game_objective(Z1, np.array([[1.0, 0.0]], complex), [eigenvalue], "maximize")

        for build in (classical, quantum):
            if usable:
                build()
            else:
                with pytest.raises(DegenerateParentError, match="not positive"):
                    build()

    def test_monotone_utility_noiseless(self, h2):
        # Plain ascent with eta <= 1/(2||M||) must not decrease the utility, so
        # the warm-up is monotone; heavy-ball after it may dip, but must end
        # converged and above everything the warm-up reached.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-4, max_iterations=400)
        rng = np.random.default_rng(1)
        first = quantumgame_player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), (), (), cfg)
        parent = [first.vector], [first.eigenvalue]
        second = quantumgame_player(
            h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 9)), *parent, cfg, index=2
        )
        for player in (first, second):
            warmup = np.asarray(player.utility_history[: ASCENT_WARMUP + 1])
            assert np.diff(warmup).min() >= -1e-9
            assert player.converged
            assert player.utility_history[-1] >= warmup.max()


class TestParentOperands:
    """Both players take their parents through one check: unit (2**q,) rows, before any sweep."""

    PLAYERS = {"game": (quantumgame_player, SolverConfig(max_iterations=3)),
               "vqd": (vqd_player, SolverConfig(beta=1.0, max_iterations=3))}

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(quantumgame, "_sweep_states", fail)

    @pytest.mark.parametrize("row", [np.ones(4), np.array([0.5, 0.5, 0.5, np.nan])], ids=["norm_2", "nan"])
    @pytest.mark.parametrize("player", list(PLAYERS))
    def test_parent_off_unit_norm_rejected(self, h2, player, row):
        # Both penalties scale with |psi_j|^2: a norm-2 parent used to give the
        # game -1.079 and VQD -1.085, with no error.
        solve, cfg = self.PLAYERS[player]
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        with pytest.raises(NormalizationError, match="parent"):
            solve(h2, spec, np.zeros(9), [row], [-1.0], cfg)

    @pytest.mark.parametrize("player", list(PLAYERS))
    def test_parent_of_the_wrong_length_rejected(self, h2, player):
        solve, cfg = self.PLAYERS[player]
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        with pytest.raises(DimensionMismatchError, match=r"expected \(P, 4\)"):
            solve(h2, spec, np.zeros(9), [np.ones(3) / np.sqrt(3.0)], [-1.0], cfg)


RAGGED_PARENTS = {
    "eigengame_player": lambda h2: eigengame_player(
        np.diag([2.0, 1.0]), np.array([0.0, 1.0]), [np.ones(2) / np.sqrt(2.0), np.ones(3)],
        GameConfig(step_size=0.1)),
    "utility": lambda h2: utility(
        np.array([0.0, 1.0]), [np.ones(2) / np.sqrt(2.0), np.ones(3)], np.diag([2.0, 1.0])),
    "quantumgame_player": lambda h2: quantumgame_player(
        h2, random_layers_ansatz(2, 3, 3, seed=11), np.zeros(9), [np.full(4, 0.5), np.ones(3)],
        [-1.0, -0.5], SolverConfig(max_iterations=3)),
    "vqd_player": lambda h2: vqd_player(
        h2, random_layers_ansatz(2, 3, 3, seed=11), np.zeros(9), [np.full(4, 0.5), np.ones(3)],
        [-1.0, -0.5], SolverConfig(beta=1.0, max_iterations=3)),
}


@pytest.mark.parametrize("call", list(RAGGED_PARENTS))
def test_ragged_parent_list_rejected(h2, call):
    # The shared parent block used to let NumPy's bare ValueError ("inhomogeneous shape") through.
    with pytest.raises(DimensionMismatchError, match=r"expected \(P, [24]\)"):
        RAGGED_PARENTS[call](h2)


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

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_noiseless_imaginary_residue_is_rounding(self, h2, runner, extra):
        # <psi|M psi> is real for Hermitian M; the game once logged offset * Im<psi|psi_j>
        # here, 3.97 on correct code, which could flag nothing.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=3000, **extra)
        result = runner(h2, spec, cfg, 4, seed=0)
        assert result.all_converged
        assert max(p.max_imag_residue for p in result.players) <= NORM_ATOL

    def test_operator_never_mutates(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-1, max_iterations=50)
        before = pauli_sum_hash(h2)
        result = run_quantumgame(h2, spec, cfg, 2, seed=0)
        assert result.operator_hash_before == before
        assert result.operator_hash_after == before
        assert pauli_sum_hash(h2) == before

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("runner, name, extra", [(run_quantumgame, "quantumgame_player", {}),
                                                     (run_vqd, "vqd_player", {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_parents_are_the_earlier_players_states_and_eigenvalues(self, monkeypatch, h2, runner, name,
                                                                    extra, shots):
        # Player j receives the states and eigenvalues players 1..j-1 returned,
        # bit for bit, and keeps the states as its read-only parent block.
        received = []
        original = getattr(quantumgame, name)

        def recording(*args, **kwargs):
            bound = arguments(original, args, kwargs)
            received.append((np.array(bound["parent_states"]), list(bound["parent_eigenvalues"])))
            return original(*args, **kwargs)

        monkeypatch.setattr(quantumgame, name, recording)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", max_iterations=5, shots=ShotModel(shots), **extra)
        result = runner(h2, spec, cfg, 4, seed=0)
        for j, player in enumerate(result.players):
            states = np.array([p.vector for p in result.players[:j]]).reshape(j, 4)
            assert np.array_equal(received[j][0].reshape(j, 4), states)
            assert received[j][1] == result.eigenvalues[:j]
            assert np.array_equal(player.parents, states) and player.parents.shape == (j, 4)
            with pytest.raises(ValueError):
                player.parents[...] = 0.0

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
        parent_state = result.players[0].vector
        lam = exact_moments(h2, parent_state)[0]
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
        assert result.players[0].parents.shape == (0, 4)
        assert result.all_converged
        oracle_ground = np.linalg.eigvalsh(pauli_sum_to_matrix(h2))[0]
        assert result.eigenvalues[0] == pytest.approx(oracle_ground, abs=1e-2)

    def test_parent_cache_matches_reevaluation(self, h2):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        # Noiseless: the cached broadcast eigenvalue equals a fresh measurement.
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=1500)
        result = run_quantumgame(h2, spec, cfg, 2, seed=0)
        for player in result.players:
            psi = apply_ansatz(spec, player.theta.values).amplitudes
            assert player.eigenvalue == pytest.approx(exact_moments(h2, psi)[0], abs=1e-12)
        # Finite shots: cached value within the 5-sigma estimator band.
        noisy_cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-2, max_iterations=200,
            shots=ShotModel(10_000, rng_seed=9),
        )
        noisy = run_quantumgame(h2, spec, noisy_cfg, 2, seed=0)
        for player in noisy.players:
            psi = apply_ansatz(spec, player.theta.values).amplitudes
            mean, var = exact_moments(h2, psi)
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
        order = np.argsort(result.eigenvalues)
        for rank, idx in enumerate(order):
            player = result.players[idx]
            psi = apply_ansatz(spec, player.theta.values).amplitudes
            mean, var = exact_moments(h2, psi)
            band = 10.0 * np.sqrt(var / 10_000) + 5e-4  # floor guards a hard zero variance
            assert abs(result.eigenvalues[idx] - h2_oracle[rank]) <= abs(mean - h2_oracle[rank]) + band
            assert abs(mean - h2_oracle[rank]) <= band + 2e-2


class TestVqd:
    def test_plain_vqe_ground_state(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3,
                           max_iterations=3000, beta=5.0)
        state = vqd_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), (), cfg)
        assert state.converged
        assert state.eigenvalue == pytest.approx(0.0, abs=1e-2)

    def test_beta_five_reaches_first_excited(self):
        spec = layered_ansatz(2, 2)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3,
                           max_iterations=4000, beta=5.0)
        first = vqd_player(DIAG_3210, spec, spec.bind(np.full(8, 0.3)), (), (), cfg)
        parent = [first.vector], [first.eigenvalue]
        rng = np.random.default_rng(5)
        second = vqd_player(
            DIAG_3210, spec, spec.bind(rng.uniform(-np.pi, np.pi, 8)), *parent, cfg, index=2
        )
        assert second.eigenvalue == pytest.approx(1.0, abs=5e-2)

    def test_negative_beta_rejected(self):
        # A negative weight rewards overlap with the parents and turns the
        # 1/(2(||M|| + sum beta)) step negative.
        with pytest.raises(ValueError):
            SolverConfig(direction="minimize", beta=-1.0)

    @pytest.mark.parametrize("field", ["grad_tolerance", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_config_values_rejected(self, field, value):
        # NaN passed every ``x <= 0`` test, and a NaN tolerance ran the whole budget.
        with pytest.raises(ValueError):
            SolverConfig(direction="minimize", **{field: value})

    def test_fractional_iteration_budget_rejected(self, h2):
        # Accepted when built, a budget of 2.5 failed only in the loop's range().
        for budget in (2.5, 2.0):
            with pytest.raises(ValueError, match="whole number"):
                SolverConfig(direction="minimize", max_iterations=budget)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction="minimize", grad_tolerance=1e-9, max_iterations=np.int64(2))
        assert quantumgame_player(h2, spec, np.zeros(9), (), (), cfg).iterations_used == 2

    def test_beta_with_adaptive_regularization_rejected(self):
        # Adaptive mode sets its own weights, so a fixed beta would be dropped.
        with pytest.raises(ValueError):
            SolverConfig(beta=5.0, adaptive_regularization=True)

    def test_beta_required(self):
        spec = layered_ansatz(2, 1)
        cfg = SolverConfig(direction="minimize")
        with pytest.raises(ValueError):
            vqd_player(DIAG_3210, spec, spec.bind(np.zeros(4)), (), (), cfg)

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

    def test_power_of_two_scaling_gives_the_same_players(self, h2):
        # Adaptive weights, step and tolerance all scale with M: under s = 2^j
        # every float of the descent scales exactly, so the thetas keep their bits.
        # The game is not scale-free: its shift margin has an absolute floor.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        runs = []
        for s in (2.0**-6, 1.0, 2.0**6):
            scaled = PauliSum(h2.num_qubits, tuple((s * c, p) for c, p in h2.terms))
            cfg = SolverConfig(direction="minimize", grad_tolerance=1e-3 * s, adaptive_regularization=True)
            runs.append(run_vqd(scaled, spec, cfg, 4, seed=0))
        assert runs[0].all_converged
        for run in runs[1:]:
            assert [p.iterations_used for p in run.players] == [p.iterations_used for p in runs[0].players]
            assert all(np.array_equal(p.theta.values, q.theta.values) for p, q in zip(run.players, runs[0].players))


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
        parents = make_parents(h, spec, [np.full(spec.num_parameters, 0.3)])
        cfg = SolverConfig(direction=direction, max_iterations=1, beta=2.0)
        etas = []
        ascend = quantumgame._ascend

        def recording_ascend(*args, **kwargs):
            etas.append(arguments(ascend, args, kwargs)["objective"].eta)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(quantumgame, "_ascend", recording_ascend)
        player(h, spec, np.zeros(spec.num_parameters), *parents, cfg)
        # The step is signed: the game ascends its objective, VQD descends its own.
        if player is quantumgame_player:
            norm = np.abs(np.linalg.eigvalsh(dense_game_operator(h, direction)[0])).max()
        else:
            norm = -(np.abs(np.linalg.eigvalsh(pauli_sum_to_matrix(h))).max() + 2.0)
        assert etas == [pytest.approx(1.0 / (2.0 * norm), rel=1e-12, abs=0.0)]

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_vqd_penalty_bound_is_gershgorin_on_the_parent_gram(self, monkeypatch, adaptive):
        # Three non-orthogonal parents: L adds the largest row sum of
        # sqrt(beta_j beta_l) |<psi_j|psi_l>|, which bounds the penalty operator's
        # norm from above and is below the sum of the weights.
        h = random_pauli_sum(np.random.default_rng(4), 3, 8, identity=True)
        spec = layered_ansatz(3, 1)
        parents = make_parents(h, spec, [np.full(spec.num_parameters, a) for a in (0.3, 0.5, 2.0)])
        extra = {"adaptive_regularization": True} if adaptive else {"beta": 2.0}
        cfg = SolverConfig(direction="minimize", max_iterations=1, **extra)
        etas = []
        ascend = quantumgame._ascend

        def recording_ascend(*args, **kwargs):
            etas.append(arguments(ascend, args, kwargs)["objective"].eta)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(quantumgame, "_ascend", recording_ascend)
        vqd_player(h, spec, np.zeros(spec.num_parameters), *parents, cfg)
        dense = pauli_sum_to_matrix(h)
        states, eigenvalues = parents
        betas = (np.array([2.0 * (h.one_norm - lam) for lam in eigenvalues]) if adaptive
                 else np.full(3, 2.0))
        gram = np.abs(states.conj() @ states.T) * np.sqrt(np.outer(betas, betas))
        bound = gram.sum(axis=1).max()
        penalty = (states.T * betas) @ states.conj()
        assert np.abs(np.linalg.eigvalsh(penalty)).max() <= bound < betas.sum()
        norm = np.abs(np.linalg.eigvalsh(dense)).max() + bound
        assert etas == [pytest.approx(-1.0 / (2.0 * norm), rel=1e-12, abs=0.0)]  # VQD descends

    def test_orthogonal_parents_bound_the_penalty_by_the_largest_weight(self):
        states = np.eye(4, dtype=np.complex128)[[0, 2, 3]]
        assert quantumgame._penalty_norm_bound(states, (1.0, 3.0, 2.0)) == 3.0
        assert quantumgame._penalty_norm_bound(states[:0], ()) == 0.0

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 1.0})],
                             ids=["game", "vqd"])
    def test_no_dense_operator_and_one_lanczos_run(self, monkeypatch, runner, extra):
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
    def player_reads(monkeypatch, player, h, spec, parents, direction):
        """(exact read, sweep read) of one player's objective: ``_backward_read``, the read it
        ascends under an exact model, and its circuit's ``_shot_read`` under ``ShotModel()``."""
        calls = []
        ascend = quantumgame._ascend

        def capturing_ascend(*args, **kwargs):
            calls.append(arguments(ascend, args, kwargs))
            return ascend(*args, **kwargs)

        monkeypatch.setattr(quantumgame, "_ascend", capturing_ascend)
        for shots in (None, 1000):
            cfg = SolverConfig(direction=direction, max_iterations=1, beta=2.0, shots=ShotModel(shots))
            player(h, spec, np.zeros(spec.num_parameters), *parents, cfg)
        exact, finite = calls
        # One objective and one circuit, whatever the shot model.
        assert finite["circuit"] is exact["circuit"]
        assert all(np.array_equal(a, b) for a, b in zip(finite["objective"], exact["objective"]))
        objective, circuit = exact["objective"], exact["circuit"]
        sweep = quantumgame._shot_read(h, objective, circuit, ShotModel(), None)
        return quantumgame._backward_read(h, objective), sweep

    @classmethod
    def captured_rows(cls, monkeypatch, player, direction, num_parents):
        h = random_pauli_sum(np.random.default_rng(6), 3, 10, identity=True)
        spec = random_layers_ansatz(3, 2, 5, seed=2)
        rng = np.random.default_rng(num_parents)
        parents = make_parents(
            h, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        _, read = cls.player_reads(monkeypatch, player, h, spec, parents, direction)
        # The dense reference reads every shift row, each prepared on its own;
        # so does the read, each row a one-row base.  One sweep's base rows
        # then give the shift rule over those rows and theta's own.
        theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
        psi = apply_ansatz(spec, parameter_shift_points(theta))
        grads, value, m_reads, residues, drawn, _ = zip(*(read(row[None, :]) for row in psi))
        assert all(grad.shape == (0,) for grad in grads)
        value, m_reads = np.array(value), np.array(m_reads)
        grad, theta_value, energy, _, _, _ = read(parameter_shift_states(spec, theta))
        assert np.allclose(grad, shift_rule_gradient(value[:-1]), rtol=0.0, atol=1e-11)
        assert theta_value == pytest.approx(value[-1], abs=1e-11)
        assert energy == pytest.approx(m_reads[-1], abs=1e-12)
        return h, parents, (value, m_reads, max(residues), sum(drawn)), psi

    @staticmethod
    def check_energy_reads(h, psi, m_reads):
        # Under an exact model each row's <M> read-out is the dense <M>.
        dense = pauli_sum_to_matrix(h)
        dense_mean = np.einsum("bi,bi->b", psi.conj(), psi @ dense.T).real
        assert m_reads.shape == (psi.shape[0],)
        assert np.allclose(m_reads, dense_mean, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_game_rows_match_dense_shifted_operator(self, monkeypatch, direction, num_parents):
        h, parents, (value, m_reads, _, drawn), psi = self.captured_rows(
            monkeypatch, quantumgame_player, direction, num_parents)
        a, sign, offset = dense_game_operator(h, direction)
        a_psi = psi @ a.T
        expected = np.einsum("bi,bi->b", psi.conj(), a_psi).real
        for state, lam in zip(*parents):
            cross = a_psi.conj() @ state
            expected -= np.abs(cross) ** 2 / (sign * lam + offset)
        assert np.allclose(value, expected, rtol=0.0, atol=1e-11)
        self.check_energy_reads(h, psi, m_reads)
        assert drawn == psi.shape[0] * (1 + 2 * num_parents)

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_game_denominators_stay_above_one_on_a_large_operator(self, monkeypatch, direction):
        # The operator whose lo falls short of lambda_min, scaled x64: a power of
        # two, so the Lanczos run and its shortfall scale exactly.  With parents
        # at both extremes every denominator sign*lambda_j + offset stays at
        # least 1; an absolute margin of 1 left the maximize one at -0.15, which
        # turned that parent's penalty into a reward.
        h = PauliSum(6, tuple((64.0 * c, s) for c, s in LATE_EXTREME.terms))
        values, vectors = np.linalg.eigh(pauli_sum_to_matrix(h))
        assert h.spectral_range[0] > values[0]
        parents = vectors[:, [0, -1]].T, values[[0, -1]]
        denominators = []
        ascend = quantumgame._ascend

        def capturing(*args, **kwargs):
            denominators.extend(-1.0 / arguments(ascend, args, kwargs)["objective"].weights)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(quantumgame, "_ascend", capturing)
        spec = layered_ansatz(6, 1)
        cfg = SolverConfig(direction=direction, max_iterations=1)
        quantumgame_player(h, spec, np.zeros(spec.num_parameters), *parents, cfg)
        assert len(denominators) == 2 and min(denominators) >= 1.0

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_vqd_rows_match_dense_penalized_energy(self, monkeypatch, direction, num_parents):
        h, parents, (value, m_reads, _, drawn), psi = self.captured_rows(
            monkeypatch, vqd_player, direction, num_parents)
        sign = -1.0 if direction == "maximize" else 1.0
        dense = pauli_sum_to_matrix(h)
        expected = sign * np.einsum("bi,bi->b", psi.conj(), psi @ dense.T).real
        for state in parents[0]:
            expected += 2.0 * np.abs(psi.conj() @ state) ** 2
        assert np.allclose(value, expected, rtol=0.0, atol=1e-11)
        self.check_energy_reads(h, psi, m_reads)
        assert drawn == psi.shape[0] * (1 + num_parents)

    @pytest.mark.parametrize("operator", ["h2", "random-3q"])
    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_exact_read_matches_the_sweep_read(self, monkeypatch, player, direction, num_parents, operator):
        # The backward vector's gradient, objective and energy against the
        # finite-shot read under an exact model, which ends in the shift rule.
        if operator == "h2":
            h, spec = load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 3, 3, seed=11)
        else:
            h = random_pauli_sum(np.random.default_rng(6), 3, 10, identity=True)
            spec = random_layers_ansatz(3, 2, 5, seed=2)
        assert {kind for layer in spec.layer_rotations for kind, _ in layer} == {"RX", "RY", "RZ"}
        rng = np.random.default_rng(10 + num_parents)
        parents = make_parents(
            h, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        exact, sweep = self.player_reads(monkeypatch, player, h, spec, parents, direction)
        for _ in range(3):
            prepared = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            grad, value, energy, residue, drawn, applied = exact(prepared)
            want_grad, want_value, want_energy, _, _, _ = sweep(prepared)
            assert np.max(np.abs(grad - want_grad)) <= 1e-12
            assert abs(value - want_value) <= 1e-12
            assert abs(energy - want_energy) <= 1e-12
            assert residue <= NORM_ATOL and drawn == 0 and applied == 1

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    @pytest.mark.parametrize("fault, message", [
        ("real-overlap", "real overlap with psi"),
        ("norm", "^prepared state must be unit norm"),
    ])
    def test_a_faulty_sweep_raises_before_the_player_returns(self, monkeypatch, player, shots, fault, message):
        # A gate that is not a Pauli rotation leaves phi_k with a real overlap
        # with psi; a lost norm scales the rows.  The loop reads its sweeps
        # unchecked and checks the last one before the result is built.
        sweep = quantumgame._sweep_states

        def faulty(spec, theta):
            rows = sweep(spec, theta)
            if fault == "norm":
                return rows * (1.0 + 1e-6)
            rows[0] = np.sqrt(1.0 - 1e-12) * rows[0] + 1e-6 * rows[-1]
            return rows

        def no_result(*args, **kwargs):
            raise AssertionError("a result was built")

        monkeypatch.setattr(quantumgame, "_sweep_states", faulty)
        monkeypatch.setattr(quantumgame, "PlayerResult", no_result)
        cfg = SolverConfig(direction="minimize", beta=5.0, max_iterations=3, shots=ShotModel(shots, rng_seed=1))
        with pytest.raises(NormalizationError, match=message):
            player(load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 3, 3, seed=11), np.full(9, 0.3),
                   (), (), cfg)

    def test_exact_read_takes_an_imaginary_overlap(self):
        # i*psi: <psi|phi> imaginary, as a Pauli rotation gives.
        rng = np.random.default_rng(3)
        psi = apply_ansatz(random_layers_ansatz(2, 1, 2, seed=1), rng.uniform(-np.pi, np.pi, 2)).amplitudes
        objective = quantumgame.Objective(1.0, np.zeros((0, 4)), np.zeros(0), 0.0, 0.0)
        read = quantumgame._backward_read(PauliSum(2, ((1.0, "ZX"),)), objective)
        rotated = np.array([1j * psi, psi])
        check_sweep(rotated)
        assert read(rotated)[0].shape == (1,)

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_the_loop_checks_its_sweeps_once_per_player(self, monkeypatch, player, shots):
        # The unit-norm rule and the rotation guard run on the last sweep alone:
        # the calls are the same for a 2- and a 12-iteration player.
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((quantum_sim, "check_unit_rows"), (quantumgame, "_parent_block"),
                             (quantum_sim, "unit_norm"), (eigengame_classical, "unit_norm"),
                             (quantumgame, "check_sweep")):
            counting(module, name)
        h, spec = load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 3, 3, seed=11)
        parents = make_parents(h, spec, [np.full(9, 0.4)])
        seen = {}
        for budget in (2, 12):
            calls.clear()
            cfg = SolverConfig(direction="minimize", beta=5.0, grad_tolerance=1e-9, max_iterations=budget,
                               shots=ShotModel(shots, rng_seed=1))
            result = player(h, spec, np.full(9, 0.3), *parents, cfg)
            assert len(result.energy_history) == budget
            seen[budget] = list(calls)
        # The parents' check (in the one parent intake), the last sweep's check
        # (its rows, then its shift rows) and the final state's, each through
        # the one unit-norm rule.
        assert seen[2] == seen[12] == [
            "_parent_block", "unit_norm", "check_sweep", "check_unit_rows", "unit_norm", "unit_norm",
            "check_unit_rows", "unit_norm",
        ]

    @staticmethod
    def count_layout(layout):
        """(operator, ansatz, finite-shot rows M is applied to per sweep) on each side of the read-form rule.

        "h2" builds its 2m + 1 shift rows (m*K*2**q = 6*2*4 = 48); "6q", a
        6-qubit sum on a 12-parameter layout, applies M to its m + 1
        prepared rows (12*K*64 with K >= 6 x-masks, at least 4608).
        """
        if layout == "h2":
            h, spec = load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 2, 3, seed=3)
            rows = 2 * spec.num_parameters + 1
        else:
            h, spec = random_pauli_sum(np.random.default_rng(12), 6, 12, identity=True), layered_ansatz(6, 1)
            assert len(h.compiled[0]) >= 6
            rows = spec.num_parameters + 1
        base = parameter_shift_states(spec, np.zeros(spec.num_parameters))
        assert sweep_reads(h, base, None)[2] == rows
        return h, spec, rows

    def count_one_pauli_application_per_batch(self, monkeypatch, player, num_parents, shots, layout):
        # M is the only operator: one application per evaluated batch, one for
        # the final read and, for the game, one for its parent block, empty
        # without parents.  An exact model's batch is theta's row alone, applied
        # as a vector and counted as one row; a finite-shot one is the 2m + 1
        # built shift rows on a small register and the m + 1 prepared rows on
        # a larger one.  No PauliSum is built during the solve.
        h, spec, shot_rows = self.count_layout(layout)
        assert h.spectral_range  # cached before counting
        rng = np.random.default_rng(num_parents)
        parents = make_parents(
            h, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        applied, built = [], []
        apply, post_init = quantum_sim.pauli_sum_apply, PauliSum.__post_init__

        def counting_apply(op, amps):
            applied.append((op, len(amps) if np.ndim(amps) > 1 else 1))
            return apply(op, amps)

        def counting_post_init(op):
            built.append(op)
            post_init(op)

        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", counting_apply)
        monkeypatch.setattr(quantumgame, "pauli_sum_apply", counting_apply)
        monkeypatch.setattr(PauliSum, "__post_init__", counting_post_init)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-9, max_iterations=4, beta=5.0,
                           shots=ShotModel(shots, rng_seed=4))
        state = player(h, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters), *parents, cfg)
        parent_block = [num_parents] if player is quantumgame_player else []
        batch = 1 if shots is None else shot_rows
        assert [rows for _, rows in applied] == parent_block + [batch] * len(state.energy_history) + [1]
        assert all(op is h for op, _ in applied)
        assert built == []

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_one_pauli_application_per_batch(self, monkeypatch, player, num_parents, shots):
        self.count_one_pauli_application_per_batch(monkeypatch, player, num_parents, shots, "h2")

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "shots"])
    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_one_pauli_application_per_batch_on_six_qubits(self, monkeypatch, player, num_parents, shots):
        self.count_one_pauli_application_per_batch(monkeypatch, player, num_parents, shots, "6q")

    def count_sweep_rows(self, monkeypatch, player, num_parents, shots, layout):
        # Each iteration prepares theta + pi e_k (k < m) and theta.  Finite shots
        # read the 2m + 1 shift rows either from M on the 2m + 1 rows built from
        # those (a small register) or from M on the m + 1 rows themselves; an
        # exact model applies M to theta's row alone, as a vector.  The
        # player's row counters are these rows, the final read's included.
        h, spec, shot_rows = self.count_layout(layout)
        rng = np.random.default_rng(num_parents)
        parents = make_parents(
            h, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        prepared, applied = [], []
        apply = quantum_sim.pauli_sum_apply

        def recording(prepare):
            def recording_prepare(spec, theta):
                states = prepare(spec, theta)
                prepared.append((len(states), np.shape(theta)))
                return states

            return recording_prepare

        def recording_apply(op, amps):
            applied.append(np.shape(amps))
            return apply(op, amps)

        # The loop prepares each sweep through the sweep core, from theta alone,
        # and the final state through apply_ansatz.
        monkeypatch.setattr(quantumgame, "_sweep_states", recording(quantumgame._sweep_states))
        monkeypatch.setattr(quantumgame, "apply_ansatz", recording(quantumgame.apply_ansatz))
        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", recording_apply)
        monkeypatch.setattr(quantumgame, "pauli_sum_apply", recording_apply)
        cfg = SolverConfig(direction="maximize", grad_tolerance=1e-9, max_iterations=3, beta=5.0,
                           shots=ShotModel(shots, rng_seed=4))
        state = player(h, spec, rng.uniform(-np.pi, np.pi, spec.num_parameters), *parents, cfg)
        m, dim = spec.num_parameters, 2**spec.num_qubits
        iterations = len(state.energy_history)
        assert iterations == 3
        # The game applies M to its parents' states once, an empty block
        # without parents; the final read prepares one row and applies M to
        # it after the loop.
        parent_block = [(num_parents, dim)] if player is quantumgame_player else []
        batch = 1 if shots is None else shot_rows
        sweep = (dim,) if shots is None else (batch, dim)
        assert prepared == [(m + 1, (m,))] * iterations + [(1, (1, m))]
        assert applied == parent_block + [sweep] * iterations + [(1, dim)]
        assert state.prepared_rows == sum(rows for rows, _ in prepared) == 3 * (m + 1) + 1
        parent_rows = num_parents if parent_block else 0
        rows = sum(math.prod(shape[:-1]) for shape in applied)  # a vector is one row
        assert state.operator_rows == rows == parent_rows + 3 * batch + 1
        return m, batch

    @pytest.mark.parametrize("shots", [None, 10_000], ids=["exact", "shots"])
    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_sweep_prepares_and_applies_m_plus_one_rows(self, monkeypatch, player, num_parents, shots):
        m, batch = self.count_sweep_rows(monkeypatch, player, num_parents, shots, "h2")
        # Pinned per sweep: 7 prepared rows, and M on 1 row (exact) or the 13 built shift rows (shots).
        assert (m + 1, batch) == (7, 1 if shots is None else 13)

    @pytest.mark.parametrize("shots", [None, 10_000], ids=["exact", "shots"])
    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_sweep_rows_on_six_qubits(self, monkeypatch, player, num_parents, shots):
        m, batch = self.count_sweep_rows(monkeypatch, player, num_parents, shots, "6q")
        # Pinned per sweep: 13 prepared rows, and M on 1 row (exact) or the same 13 (shots).
        assert (m + 1, batch) == (13, 1 if shots is None else 13)


class TestStatePreparations:
    """Each player prepares one sweep per loop pass, plus its final state exactly once."""

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    @pytest.mark.parametrize("budget, tolerance, shots", [(3, 1e-9, 1000), (3000, 1e-2, None)],
                             ids=["budget", "converged"])
    def test_one_final_state_per_player(self, monkeypatch, runner, extra, budget, tolerance, shots):
        # The final state used to be prepared twice: at the end of the ascent
        # and again for the broadcast parent.  A player runs one sweep per
        # iteration, one more when it converges (the pass that finds the
        # gradient below tolerance), and prepares its final state once.
        calls = []
        original = quantum_sim.apply_ansatz

        def counting(prepare):
            def counting_prepare(spec, theta):
                calls.append(1)
                return prepare(spec, theta)

            return counting_prepare

        # The loop prepares each sweep through the sweep core and the final state through apply_ansatz.
        monkeypatch.setattr(quantumgame, "_sweep_states", counting(quantumgame._sweep_states))
        monkeypatch.setattr(quantumgame, "apply_ansatz", counting(original))
        cfg = SolverConfig(direction="maximize", grad_tolerance=tolerance, max_iterations=budget,
                           shots=ShotModel(shots, rng_seed=2), **extra)
        result = runner(DIAG_3120, layered_ansatz(2, 2), cfg, 2, seed=0)
        assert result.all_converged == (shots is None)
        converged = sum(player.converged for player in result.players)
        assert len(calls) == result.total_iterations + converged + 2
        for player in result.players:
            prepared = original(layered_ansatz(2, 2), player.theta.values).amplitudes
            assert np.allclose(player.vector, prepared, rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("budget", [1, ASCENT_WARMUP])
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

    def test_both_loops_take_the_rule_from_the_helper(self, h2, monkeypatch):
        # Each loop's weights and restarts are the ones a fresh helper gives for the same
        # step-velocity alignments, and each player's count is the helper's.
        calls = []
        weight = HeavyBall.weight

        def recorded(ball, iteration, along):
            beta = weight(ball, iteration, along)
            calls.append((iteration, along < 0.0, beta, ball.restarts))
            return beta

        monkeypatch.setattr(HeavyBall, "weight", recorded)
        matrix, _ = build_powerlaw_hamiltonian(32, seed=1)
        classical = run_sequential(matrix, GameConfig(num_players=2, grad_tolerance=1e-6), seed=0)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        quantum = run_quantumgame(h2, spec, SolverConfig(direction="minimize"), 2, seed=0)
        monkeypatch.undo()
        for player in classical.players + quantum.players:
            taken, calls = calls[: player.iterations_used], calls[player.iterations_used:]
            assert [t for t, *_ in taken] == list(range(player.iterations_used))
            fresh = HeavyBall()
            replayed = [fresh.weight(t, -1.0 if back else 1.0) for t, back, *_ in taken]
            assert replayed == [beta for *_, beta, _ in taken]
            assert player.momentum_restarts == fresh.restarts == taken[-1][-1]
            assert fresh.restarts > 0
        assert not calls


class TestShotDraws:
    """Every finite-shot read-out a player draws is counted in its ``readouts`` and ``shots``."""

    @staticmethod
    def play(player, cfg, num_parents):
        spec = random_layers_ansatz(2, 2, 3, seed=3)
        h2 = load_pauli_sum(bundled_h2_path())
        rng = np.random.default_rng(num_parents)
        parents = make_parents(
            h2, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        state = player(h2, spec, spec.bind(rng.uniform(-np.pi, np.pi, 6)), *parents, cfg)
        return state, spec.num_parameters

    @pytest.mark.parametrize("num_parents", [0, 1, 2])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("player, per_parent", [(quantumgame_player, 2), (vqd_player, 1)])
    def test_readout_budget(self, player, per_parent, num_parents, iterations):
        # Per iteration: 2m + 1 rows of 1 + per_parent * P read-outs, theta's
        # <M> read-out among them; after the loop, the eigenvalue read.
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-9, max_iterations=iterations, beta=5.0,
            shots=ShotModel(1000, rng_seed=4),
        )
        state, m = self.play(player, cfg, num_parents)
        loops = len(state.energy_history)
        assert loops == iterations
        assert state.readouts == loops * (2 * m + 1) * (1 + per_parent * num_parents) + 1
        assert state.shots == state.readouts * cfg.shots.num_shots

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_energy_is_the_objectives_own_read_out(self, monkeypatch, player, direction):
        # Without parents the objective at theta's row is formed from that row's
        # <M> read-out alone, and the iteration's energy is the same read-out:
        # a second, independent draw would break the equality.
        shifts = []
        ascend = quantumgame._ascend

        def capturing(*args, **kwargs):
            objective = arguments(ascend, args, kwargs)["objective"]
            shifts.append((objective.scale, objective.constant))
            return ascend(*args, **kwargs)

        monkeypatch.setattr(quantumgame, "_ascend", capturing)
        cfg = SolverConfig(direction=direction, grad_tolerance=1e-9, max_iterations=5, beta=5.0,
                           shots=ShotModel(1000, rng_seed=4))
        state, _ = self.play(player, cfg, 0)
        assert len(state.energy_history) == len(state.utility_history) == 5
        if player is quantumgame_player:
            (sign, offset), = shifts
            expected = [sign * energy + offset for energy in state.energy_history]
        else:
            sign = -1.0 if direction == "maximize" else 1.0
            expected = [sign * energy for energy in state.energy_history]
        assert state.utility_history == expected

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

    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_trajectory_pinned_under_an_exact_model(self, h2, runner, extra, direction):
        # The exact read's gradient, objective and energy: a dropped penalty
        # term, offset or sign moves the trajectory far beyond 1e-9.
        pinned = json.loads((Path(__file__).parent / "data" / "h2_noiseless_pinned.json").read_text())
        suffix = "_maximize" if direction == "maximize" else ""
        expected = pinned[("game" if runner is run_quantumgame else "vqd") + suffix]
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        cfg = SolverConfig(direction=direction, grad_tolerance=1e-2, max_iterations=40, **extra)
        result = runner(h2, spec, cfg, 3, seed=5)
        assert np.max(np.abs(np.subtract(result.eigenvalues, expected["eigenvalues"]))) <= 1e-9
        for player, history in zip(result.players, expected["energy_history"]):
            assert len(player.energy_history) == len(history)
            assert np.max(np.abs(np.subtract(player.energy_history, history))) <= 1e-9

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_runners_ignore_rng_seed(self, h2, runner, extra):
        # A runner derives every player's shot stream from its own seed.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        results = [
            runner(h2, spec, SolverConfig(direction="minimize", max_iterations=40,
                                          shots=ShotModel(10_000, rng_seed=rng_seed), **extra), 2, seed=0)
            for rng_seed in (0, 12345)
        ]
        assert results[0].eigenvalues == results[1].eigenvalues
        assert [p.energy_history for p in results[0].players] == [p.energy_history for p in results[1].players]

    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    def test_direct_player_calls_draw_from_rng_seed(self, h2, player):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        theta = np.linspace(-1.0, 1.0, spec.num_parameters)
        states = [
            player(h2, spec, theta, (), (), SolverConfig(direction="minimize", max_iterations=5, beta=5.0,
                                                     shots=ShotModel(10_000, rng_seed=rng_seed)))
            for rng_seed in (0, 12345)
        ]
        assert states[0].energy_history != states[1].energy_history
        assert states[0].eigenvalue != states[1].eigenvalue


class TestShotReadForms:
    """A finite-shot sweep reads its shift rows from base-row products or from the built rows, to rounding alike."""

    @staticmethod
    def objective(h, states, eigenvalues, circuit):
        if circuit is quantumgame._interference:
            return quantumgame._game_objective(h, states, eigenvalues, "maximize")
        return quantumgame.Objective(1.0, states, np.full(len(states), 2.0), 0.0, -0.1)

    @pytest.mark.parametrize("circuit", [quantumgame._interference, quantumgame._swap_test],
                             ids=["interference", "swap_test"])
    @pytest.mark.parametrize("num_parents", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_forms_agree_with_each_other_and_the_built_rows(self, monkeypatch, num_qubits, num_parents, circuit):
        rng = np.random.default_rng(10 * num_qubits + num_parents)
        h = random_pauli_sum(rng, num_qubits, 3 * num_qubits, identity=True)
        spec = random_layers_ansatz(num_qubits, 2, num_qubits + 1, seed=num_qubits + 7 * num_parents)
        m = spec.num_parameters
        states, eigenvalues = make_parents(h, spec, [rng.uniform(-np.pi, np.pi, m) for _ in range(num_parents)])
        objective = self.objective(h, states, eigenvalues, circuit)
        moments, _ = circuit(objective)
        kets = objective.kets if num_parents else None
        base = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, m))
        force_read_form(monkeypatch, False)
        products_form = sweep_reads(h, base, kets)
        force_read_form(monkeypatch, True)
        explicit_form = sweep_reads(h, base, kets)
        assert (products_form[2], explicit_form[2]) == (m + 1, 2 * m + 1)  # rows M was applied to
        # The reference: the 2m + 1 rows built by the oracle, each read on its own.
        rows, h_rows = rebuild_shift_rows(base, pauli_sum_apply(h, base))
        reference = (row_moments(rows, h_rows), rows.conj() @ objective.kets.T if num_parents else None)
        (mean, _, second, _), products, _ = products_form
        for (got, got_products, *_), tolerance in ((explicit_form, 1e-13), (reference, 1e-12)):
            for g, w in zip(got, products_form[0]):
                assert np.shape(g) == np.shape(w) == ((2 * m + 1,) if np.ndim(w) else ())
                assert np.max(np.abs(np.subtract(g, w))) <= tolerance
            if not num_parents:
                assert got_products is None and products is None
                continue
            assert got_products.shape == products.shape == (2 * m + 1, num_parents)
            assert np.max(np.abs(got_products - products)) <= tolerance
            for g, w in zip(moments(got_products, got[0], got[2]), moments(products, mean, second)):
                assert np.max(np.abs(g - w)) <= tolerance

    @pytest.mark.parametrize("num_parents", [0, 2])
    @pytest.mark.parametrize("circuit", [quantumgame._interference, quantumgame._swap_test],
                             ids=["interference", "swap_test"])
    def test_reads_agree_under_one_shot_stream(self, monkeypatch, h2, circuit, num_parents):
        # The same draws through either form: gradient, objective and energy to rounding.
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rng = np.random.default_rng(num_parents)
        states, eigenvalues = make_parents(
            h2, spec, [rng.uniform(-np.pi, np.pi, spec.num_parameters) for _ in range(num_parents)]
        )
        objective = self.objective(h2, states, eigenvalues, circuit)
        base = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
        shots = ShotModel(10_000)
        force_read_form(monkeypatch, True)
        explicit = quantumgame._shot_read(h2, objective, circuit, shots, np.random.default_rng(5))(base)
        force_read_form(monkeypatch, False)
        products = quantumgame._shot_read(h2, objective, circuit, shots, np.random.default_rng(5))(base)
        for got, want in zip(explicit[:4], products[:4]):
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
        m = spec.num_parameters
        per_parent = 2 if circuit is quantumgame._interference else 1  # Re and Im, or one SwapTest
        assert explicit[4] == products[4] == (2 * m + 1) * (1 + per_parent * num_parents)
        assert (explicit[5], products[5]) == (2 * m + 1, m + 1)

    def test_h2_builds_its_rows_and_an_eight_qubit_sum_does_not(self, monkeypatch, h2):
        # The benchmark's two quantum sizes sit on either side of the rule:
        # h2, 9 parameters on 2 x-masks of 4 amplitudes (72), and an 8-qubit
        # 32-term sum on a 32-parameter layout (32 * K * 256 with K >= 16).
        # The form shows in the rows M is applied to: 2m + 1 built, m + 1 not.
        h2_spec = random_layers_ansatz(2, 3, 3, seed=11)
        assert h2_spec.num_parameters * h2.compiled[0].size == 9 * 2 * 4
        h2_base = parameter_shift_states(h2_spec, np.zeros(9))
        assert sweep_reads(h2, h2_base, None)[2] == 19
        wide = random_pauli_sum(np.random.default_rng(8), 8, 32, identity=False)
        wide_spec = layered_ansatz(8, 2)
        assert wide_spec.num_parameters == 32 and len(wide.compiled[0]) >= 16
        assert sweep_reads(wide, parameter_shift_states(wide_spec, np.zeros(32)), None)[2] == 33
        # The rule is m*K*2**q at most the one constant, its boundary included.
        for work, rows in ((72, 19), (71, 10)):
            monkeypatch.setattr(quantum_sim, "EXPLICIT_SHIFT_ROWS_WORK", work)
            assert sweep_reads(h2, h2_base, None)[2] == rows

    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "products"])
    @pytest.mark.parametrize("circuit", [quantumgame._interference, quantumgame._swap_test],
                             ids=["interference", "swap_test"])
    def test_parentless_read_draws_only_the_rows_energies(self, monkeypatch, h2, circuit, explicit):
        # No product with the kets, no circuit moment and no penalty; the draw is
        # the rows' <M> read-outs, the normals a (2m + 1, 1) draw would give.
        def untouchable(*args):
            raise AssertionError("a parentless read formed a cross term")

        force_read_form(monkeypatch, explicit)
        monkeypatch.setattr(quantum_sim, "_shift_row_products", untouchable)
        monkeypatch.setattr(quantumgame, "interference_moments", untouchable)
        monkeypatch.setattr(quantumgame, "swap_test_moments", untouchable)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        m = spec.num_parameters
        objective = quantumgame.Objective(-1.0, np.zeros((0, 4), dtype=np.complex128), np.zeros(0), 0.5, 0.1)
        base = parameter_shift_states(spec, np.random.default_rng(2).uniform(-np.pi, np.pi, m))
        read = quantumgame._shot_read(h2, objective, circuit, ShotModel(1000), np.random.default_rng(7))
        grad, value, energy, residue, drawn, applied = read(base)
        mean, var, _, _ = row_moments(*rebuild_shift_rows(base, pauli_sum_apply(h2, base)))
        normals = np.random.default_rng(7).standard_normal((2 * m + 1, 1))[:, 0]
        reads = mean + normals * np.sqrt(var / 1000)
        values = -reads + 0.5
        assert np.max(np.abs(grad - shift_rule_gradient(values[:-1]))) <= 1e-12
        assert value == pytest.approx(values[-1], abs=1e-12)
        assert energy == pytest.approx(reads[-1], abs=1e-12)
        assert residue <= NORM_ATOL and drawn == 2 * m + 1
        assert applied == (2 * m + 1 if explicit else m + 1)


class TestDeflation:
    """The dense Hotelling-deflation oracle that criterion 5 checks VQD against."""

    def test_first_level_deflates_top_eigenvalue(self):
        levels = hotelling_levels(np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex), 2)
        assert levels[0] == pytest.approx(3.0, abs=1e-12)
        # The top of the deflated diag(0, 2, 1, 0).
        assert levels[1] == pytest.approx(2.0, abs=1e-12)

    def test_full_spectrum_with_exact_solver(self):
        matrix, (levels, _) = build_powerlaw_hamiltonian(6, seed=4)
        got = np.array(hotelling_levels(matrix.entries, 6))
        assert np.max(np.abs(got - levels)) <= 1e-6

    def test_single_level_is_plain_vqe(self):
        levels = hotelling_levels(np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex), 1)
        assert len(levels) == 1
        assert levels[0] == pytest.approx(3.0, abs=1e-12)

    def test_input_matrix_untouched(self):
        entries = np.diag([3.0, 2.0, 1.0, 0.0]).astype(complex)
        given = entries.copy()
        hotelling_levels(given, 4)
        assert np.array_equal(given, entries)

    def test_too_many_levels_rejected(self):
        with pytest.raises(ValueError):
            hotelling_levels(np.eye(2, dtype=complex), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_levels_rejected(self, k):
        with pytest.raises(ValueError, match="at least one level"):
            hotelling_levels(np.eye(2, dtype=complex), k)


# The three runners, each called with the number of players k and the run's seed.
RUNNERS = {
    "classical": lambda k, seed: run_sequential(np.diag([4.0, 3.0, 2.0, 1.0]), GameConfig(num_players=k), seed),
    "game": lambda k, seed: run_quantumgame(DIAG_3210, layered_ansatz(2, 1),
                                            SolverConfig(direction="minimize", max_iterations=5), k, seed),
    "vqd": lambda k, seed: run_vqd(DIAG_3210, layered_ansatz(2, 1),
                                   SolverConfig(direction="minimize", beta=5.0, max_iterations=5), k, seed),
}

# The three runners on a dimension-2 operator (a 2 x 2 matrix, one qubit), called with k.
DIMENSION_2_RUNNERS = {
    "classical": lambda k: run_sequential(np.diag([2.0, 1.0]), GameConfig(num_players=k), 0),
    "game": lambda k: run_quantumgame(PauliSum(1, ((1.0, "Z"),)), layered_ansatz(1, 1),
                                      SolverConfig(direction="minimize", max_iterations=5), k, 0),
    "vqd": lambda k: run_vqd(PauliSum(1, ((1.0, "Z"),)), layered_ansatz(1, 1),
                             SolverConfig(direction="minimize", beta=5.0, max_iterations=5), k, 0),
}

# Every count and seed checked by errors.whole_number: the site, then a call with the value
# under test, the site's error class, the name its message gives, a value below its minimum,
# and a NumPy integer it takes.
WHOLE_NUMBER_SITES = {
    "GameConfig.max_iterations_per_player": (
        lambda v: GameConfig(max_iterations_per_player=v), ValueError, "max_iterations_per_player", 0, np.int64(5)),
    "GameConfig.num_players": (lambda v: GameConfig(num_players=v), ValueError, "num_players", 0, np.int64(2)),
    "SolverConfig.max_iterations": (
        lambda v: SolverConfig(max_iterations=v), ValueError, "max_iterations", 0, np.int64(5)),
    "ShotModel.num_shots": (lambda v: ShotModel(num_shots=v), InvalidShotCountError, "num_shots", 0, np.int64(100)),
    "ShotModel.rng_seed": (lambda v: ShotModel(10, rng_seed=v), ValueError, "rng_seed", -1, np.int64(3)),
    "random_layers_ansatz.num_qubits": (
        lambda v: random_layers_ansatz(v, 1, 1, seed=0), InvalidDimensionError, "num_qubits", 0, np.int64(2)),
    "random_layers_ansatz.num_layers": (
        lambda v: random_layers_ansatz(2, v, 1, seed=0), ValueError, "num_layers", 0, np.int64(2)),
    "random_layers_ansatz.rotations_per_layer": (
        lambda v: random_layers_ansatz(2, 1, v, seed=0), ValueError, "rotations_per_layer", 0, np.int32(3)),
    "random_layers_ansatz.seed": (lambda v: random_layers_ansatz(2, 1, 1, seed=v), ValueError, "seed", -1, np.int64(3)),
    "layered_ansatz.num_layers": (lambda v: layered_ansatz(2, v), ValueError, "num_layers", 0, np.int64(1)),
    "run_sequential.seed": (lambda v: RUNNERS["classical"](2, v), ValueError, "seed", -1, np.int64(0)),
    "run_quantumgame.k": (lambda v: RUNNERS["game"](v, 0), ValueError, "k", 0, np.int64(2)),
    "run_quantumgame.seed": (lambda v: RUNNERS["game"](1, v), ValueError, "seed", -1, np.int64(0)),
    "run_vqd.k": (lambda v: RUNNERS["vqd"](v, 0), ValueError, "k", 0, np.int64(2)),
    "run_vqd.seed": (lambda v: RUNNERS["vqd"](1, v), ValueError, "seed", -1, np.int64(0)),
    "PauliSum.num_qubits": (lambda v: PauliSum(v, ()), InvalidDimensionError, "num_qubits", 0, np.int64(2)),
    "AnsatzSpec.num_qubits": (lambda v: AnsatzSpec(v, (), ()), InvalidDimensionError, "num_qubits", 0, np.int64(2)),
    # A True qubit passed the range test and apply_ansatz dropped its gate; a float one failed in preparation.
    "AnsatzSpec.qubit": (lambda v: AnsatzSpec(2, ((("RY", v),),), ((0, 1),)), ValueError, "qubit", -1, np.int64(1)),
    "AnsatzSpec.control": (lambda v: AnsatzSpec(2, (), ((v, 1),)), ValueError, "entangler pair control", -1, np.int64(0)),
    "AnsatzSpec.target": (lambda v: AnsatzSpec(2, (), ((0, v),)), ValueError, "entangler pair target", -1, np.int64(1)),
    "random_orthonormal.dim": (lambda v: random_orthonormal(v, 0), InvalidDimensionError, "dim", 0, np.int64(3)),
    "random_orthonormal.seed": (lambda v: random_orthonormal(3, v), ValueError, "seed", -1, np.int64(3)),
    "build_powerlaw_hamiltonian.dim": (
        lambda v: build_powerlaw_hamiltonian(v, 0), InvalidDimensionError, "dim", 1, np.int64(4)),
    "build_powerlaw_hamiltonian.seed": (
        lambda v: build_powerlaw_hamiltonian(4, v), ValueError, "seed", -1, np.int64(3)),
    "BoundParams.player_index": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=v), ValueError, "player_index", 0, np.int64(1)),
    "BoundParams.num_parameters": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, num_parameters=v),
        ValueError, "num_parameters", 0, np.int64(3)),
    "iteration_bound_quantum.num_parameters": (
        lambda v: iteration_bound_quantum([1.0], v, 1.0, (1.0,), 1.0 / 16.0), ValueError, "num_parameters", 0,
        np.int64(9)),
    "sampled_lipschitz_check.num_samples": (
        lambda v: sampled_lipschitz_check(4, v, seed=0), ValueError, "num_samples", 0, np.int64(1)),
    "sampled_lipschitz_check.seed": (
        lambda v: sampled_lipschitz_check(4, 1, seed=v), ValueError, "seed", -1, np.int64(0)),
    "measure_error_accumulation_classical.player_index": (
        lambda v: measure_error_accumulation_classical(4, [1e-3], 0, player_index=v, samples_per_epsilon=1),
        ValueError, "player_index", 0, np.int64(2)),
    "measure_error_accumulation_classical.samples_per_epsilon": (
        lambda v: measure_error_accumulation_classical(4, [1e-3], 0, samples_per_epsilon=v),
        ValueError, "samples_per_epsilon", 0, np.int64(1)),
    "measure_error_accumulation_classical.seed": (
        lambda v: measure_error_accumulation_classical(4, [1e-3], v, samples_per_epsilon=1),
        ValueError, "seed", -1, np.int64(0)),
    "measure_error_accumulation_quantum.samples_per_epsilon": (
        lambda v: measure_error_accumulation_quantum(DIAG_3210, layered_ansatz(2, 1), [1e-3], 0, samples_per_epsilon=v),
        ValueError, "samples_per_epsilon", 0, np.int64(1)),
    "measure_error_accumulation_quantum.seed": (
        lambda v: measure_error_accumulation_quantum(DIAG_3210, layered_ansatz(2, 1), [1e-3], v, samples_per_epsilon=1),
        ValueError, "seed", -1, np.int64(0)),
    "bench_cli.dim": (lambda v: build_run_config("diagnostics", {"dim": v}), ConfigError, "dim", 3, np.int64(8)),
    "bench_cli.lipschitz_samples": (
        lambda v: build_run_config("diagnostics", {"lipschitz_samples": v}),
        ConfigError, "lipschitz_samples", 0, np.int64(10)),
    "bench_cli.seeds": (
        lambda v: build_run_config("diagnostics", {"seeds": [v]}), ConfigError, "seed", -1, np.int64(0)),
    "bench_cli.sizes": (
        lambda v: build_run_config("eigengame_scaling", {"sizes": [v], "num_players": 2}),
        ConfigError, "size", 1, np.int64(8)),
    "bench_cli.num_levels": (
        lambda v: build_run_config("h2_levels", {"num_levels": v}), ConfigError, "num_levels", 0, np.int64(2)),
}

# Every tolerance, step, weight and bound input checked by errors.real_number: the site, then a
# call with the value under test, the site's error class, the name its message gives, and the
# sign it requires (None: any finite value).
REAL_NUMBER_SITES = {
    "GameConfig.step_size": (lambda v: GameConfig(step_size=v), ValueError, "step_size", "positive"),
    "GameConfig.sigma": (lambda v: GameConfig(sigma=v), ValueError, "sigma", "non-negative"),
    "GameConfig.grad_tolerance": (lambda v: GameConfig(grad_tolerance=v), ValueError, "grad_tolerance", "positive"),
    "SolverConfig.grad_tolerance": (
        lambda v: SolverConfig(grad_tolerance=v), ValueError, "grad_tolerance", "positive"),
    "SolverConfig.beta": (lambda v: SolverConfig(beta=v), ValueError, "beta", "non-negative"),
    "build_powerlaw_hamiltonian.exponent": (
        lambda v: build_powerlaw_hamiltonian(4, 0, exponent=v), ValueError, "exponent", "positive"),
    "BoundParams.lambda_top": (
        lambda v: BoundParams(lambda_top=v, gaps=(0.5,), player_index=1), ValueError, "lambda_top", None),
    "BoundParams.gaps": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5, v), player_index=1), ValueError, "gaps[1]", "positive"),
    "BoundParams.kappa": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, kappa=v), ValueError, "kappa", None),
    "BoundParams.sigma": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, sigma=v),
        ValueError, "sigma", "non-negative"),
    "BoundParams.diag_norm": (
        lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, diag_norm=v),
        ValueError, "diag_norm", "non-negative"),
    "BoundParams.c": (lambda v: BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, c=v), ValueError, "c",
                      "non-negative"),
    "iteration_bound_classical.lambda_top": (
        lambda v: iteration_bound_classical([4.0], [4.0], v, (0.5,), 1.0 / 16.0), ValueError, "lambda_top", None),
    "iteration_bound_classical.gaps": (
        lambda v: iteration_bound_classical([4.0], [4.0], 1.0, (v,), 1.0 / 16.0),
        ZeroDivisionError, "gaps[0]", "positive"),
    "iteration_bound_classical.c_k": (
        lambda v: iteration_bound_classical([4.0], [4.0], 1.0, (0.5,), v), ZeroDivisionError, "c_k", "positive"),
    "iteration_bound_classical.lipschitz_zero": (
        lambda v: iteration_bound_classical([v], [4.0], 1.0, (0.5,), 1.0 / 16.0),
        ValueError, "lipschitz_zero[0]", "positive"),
    "iteration_bound_classical.lipschitz_sigma": (
        lambda v: iteration_bound_classical([4.0], [v], 1.0, (0.5,), 1.0 / 16.0),
        ValueError, "lipschitz_sigma[0]", "positive"),
    "iteration_bound_quantum.lipschitz_theta": (
        lambda v: iteration_bound_quantum([v], 1, 1.0, (0.5,), 1.0 / 16.0),
        ValueError, "lipschitz_theta[0]", "positive"),
    "measure_error_accumulation_classical.epsilons": (
        lambda v: measure_error_accumulation_classical(4, [1e-3, v], 0, samples_per_epsilon=1),
        ValueError, "epsilons[1]", "positive"),
    "measure_error_accumulation_classical.sigma": (
        lambda v: measure_error_accumulation_classical(4, [1e-3], 0, sigma=v, samples_per_epsilon=1),
        ValueError, "sigma", "non-negative"),
    "measure_error_accumulation_quantum.epsilons": (
        lambda v: measure_error_accumulation_quantum(DIAG_3210, layered_ansatz(2, 1), [1e-3, v], 0,
                                                     samples_per_epsilon=1),
        ValueError, "epsilons[1]", "positive"),
    "bench_cli.exponent": (
        lambda v: build_run_config("eigengame_scaling", {"exponent": v}), ConfigError, "exponent", "positive"),
    "bench_cli.epsilons": (
        lambda v: build_run_config("diagnostics", {"epsilons": [1e-3, v]}), ConfigError, "epsilons[1]", "positive"),
}
REAL_NUMBER_RULES = {None: "finite", "non-negative": "non-negative and finite", "positive": "positive and finite"}
# A value on the wrong side of each sign.
WRONG_SIDE = {"non-negative": -0.5, "positive": 0.0}
# Sites whose upper bound the common accepted values 0.5 and 1 exceed; each has its own test.
BOUNDED_ABOVE = {"BoundParams.c"}


def prepared_with_norm(norm):
    """``apply_ansatz`` on a one-gate layout whose gate loop hands back a state of the given norm."""
    def gate_loop(spec, cos, sin):
        return np.array([[norm], [0.0]], dtype=complex)

    with mock.patch.object(quantum_sim, "_gate_loop", gate_loop):
        return apply_ansatz(AnsatzSpec(1, ((("RY", 0),),), ()), [0.0])


# Every state and vector checked by errors.unit_norm: the site, then a call whose checked vector
# has the norm under test, the site's error class, the name its message gives, and its tolerance.
UNIT_NORM_SITES = {
    "StateVector": (lambda r: StateVector(1, np.array([r, 0.0])), NormalizationError, "state", NORM_ATOL),
    "apply_ansatz": (prepared_with_norm, NormalizationError, "prepared state", NORM_ATOL),
    "sweep_reads": (lambda r: sweep_reads(DIAG_3210, np.array([[r, 0.0, 0.0, 0.0]], dtype=complex), None),
                    NormalizationError, "prepared state", NORM_ATOL),
    "quantumgame_player.parent_states": (
        lambda r: quantumgame_player(DIAG_3210, layered_ansatz(2, 1), np.zeros(4), [[r, 0.0, 0.0, 0.0]], [3.0],
                                     SolverConfig(direction="minimize", max_iterations=1)),
        NormalizationError, "parent state", NORM_ATOL),
    "vqd_player.parent_states": (
        lambda r: vqd_player(DIAG_3210, layered_ansatz(2, 1), np.zeros(4), [[r, 0.0, 0.0, 0.0]], [3.0],
                             SolverConfig(direction="minimize", beta=5.0, max_iterations=1)),
        NormalizationError, "parent state", NORM_ATOL),
    "eigengame_player.init": (
        lambda r: eigengame_player(np.diag([4.0, 3.0]), np.array([r, 0.0]), [],
                                   GameConfig(step_size=0.1, max_iterations_per_player=1)),
        NormalizationError, "init", UNIT_NORM_ATOL),
    "angular_error.v": (lambda r: angular_error(np.array([r, 0.0]), np.array([1.0, 0.0])), NormalizationError, "v",
                        1e-6),
    "angular_error.v_star": (lambda r: angular_error(np.array([1.0, 0.0]), np.array([r, 0.0])), NormalizationError,
                             "v_star", 1e-6),
}


class TestInputValidation:
    @pytest.mark.parametrize("direction", ["maximise", "min", ""])
    def test_misspelled_direction_rejected(self, direction):
        # Any value but "maximize" used to take the minimize branch silently.
        with pytest.raises(ValueError, match="direction"):
            SolverConfig(direction=direction)

    @pytest.mark.parametrize("build, error, name, value", [
        pytest.param(build, error, name, value, id=f"{site}-{label}")
        for site, (build, error, name, below, _) in WHOLE_NUMBER_SITES.items()
        for label, value in (("True", True), ("np.True_", np.True_), ("2.5", 2.5), ("below", below), ("str", "3"))
    ])
    def test_bool_is_not_a_whole_number(self, build, error, name, value):
        # isinstance(True, int) holds: a site that tested only ">= N" took True as 1
        # (run_quantumgame ran one player and reported all_converged=True) and 2.5
        # failed later, with a bare TypeError or a wrong result; k="3" met its first
        # comparison, with 2**q, as a bare TypeError too.
        with pytest.raises(error, match=rf"^{name} must be (a whole number of at least -?\d+|a non-negative integer), "
                                        rf"got {value!r}"):
            build(value)

    @pytest.mark.parametrize("build, value", [
        pytest.param(build, value, id=site) for site, (build, _, _, _, value) in WHOLE_NUMBER_SITES.items()
    ])
    def test_numpy_integer_is_a_whole_number(self, build, value):
        build(value)

    @pytest.mark.parametrize("build, error, name, sign, value", [
        pytest.param(build, error, name, sign, value, id=f"{site}-{label}")
        for site, (build, error, name, sign) in REAL_NUMBER_SITES.items()
        for label, value in (("True", True), ("np.True_", np.True_), ("str", "0.1"), ("complex", 1j),
                             ("nan", math.nan), ("inf", math.inf), ("wrong-side", WRONG_SIDE.get(sign)))
        if label != "wrong-side" or sign is not None
    ])
    def test_real_number_sites_reject(self, build, error, name, sign, value):
        # A bool passed every hand-written "0 < x < inf" test: GameConfig(grad_tolerance=True)
        # stopped each player at once and reported all_converged=True.
        message = rf"^{re.escape(name)} must be {REAL_NUMBER_RULES[sign]}, got {re.escape(repr(value))}$"
        with pytest.raises(error, match=message):
            build(value)

    @pytest.mark.parametrize("build", [
        pytest.param(build, id=site) for site, (build, _, _, _) in REAL_NUMBER_SITES.items()
        if site not in BOUNDED_ABOVE
    ])
    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1)], ids=["float32", "int64"])
    def test_numpy_scalar_is_a_real_number(self, build, value):
        build(value)

    @pytest.mark.parametrize("value", [np.float32(0.0625), np.int64(0), 1.0 / 16.0, 0])
    def test_bound_c_takes_numpy_scalars_up_to_a_sixteenth(self, value):
        assert BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, c=value).c is value

    @pytest.mark.parametrize("value", [0.0625000001, np.float64(0.25), 1])
    def test_bound_c_above_a_sixteenth_rejected(self, value):
        with pytest.raises(ValueError, match=rf"^c must be at most 1/16, got {re.escape(repr(value))}$"):
            BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, c=value)

    @pytest.mark.parametrize("build, error, message, norm", [
        pytest.param(build, error, rf"^{re.escape(name)} must be unit norm within {re.escape(repr(atol))}, "
                                   rf"off by {deviation}$", norm, id=f"{site}-{label}")
        for site, (build, error, name, atol) in UNIT_NORM_SITES.items()
        for label, norm, deviation in (("nan", math.nan, "nan"), ("inf", math.inf, "inf"),
                                       ("over", 1.0 + 2.0 * atol, f"{2.0 * atol:.3g}"),
                                       ("under", 1.0 - 2.0 * atol, f"{2.0 * atol:.3g}"))
    ])
    def test_unit_norm_sites_reject(self, build, error, message, norm):
        # Each site spelled its own test, with one of three tolerances; two of
        # the messages named neither the deviation nor the tolerance.
        with pytest.raises(error, match=message):
            build(norm)

    @pytest.mark.parametrize("build, norm", [
        pytest.param(build, 1.0 + sign * 0.5 * atol, id=f"{site}-{label}")
        for site, (build, _, _, atol) in UNIT_NORM_SITES.items()
        for label, sign in (("over", 1.0), ("under", -1.0))
    ])
    def test_unit_norm_sites_accept_half_the_tolerance(self, build, norm):
        build(norm)

    @pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
    @pytest.mark.parametrize("k, seed, message", [
        (True, 0, "must be a whole number of at least 1, got True"),
        (2.0, 0, "must be a whole number of at least 1, got 2.0"),
        (1, -1, "seed must be a non-negative integer, got -1"),
        (1, True, "seed must be a non-negative integer, got True"),
        (1, 1.5, "seed must be a non-negative integer, got 1.5"),
    ], ids=["k-True", "k-float", "seed-negative", "seed-True", "seed-float"])
    def test_runners_check_k_and_seed_before_any_player(self, monkeypatch, runner, k, seed, message):
        # k=True ran one player and reported all_converged=True; seed=True ran as seed 1;
        # k=2.0 and seed=1.5 raised a bare TypeError, and seed=-1 numpy's unnamed ValueError.
        def no_player(*args, **kwargs):
            raise AssertionError("a player ran")

        monkeypatch.setattr(eigengame_classical, "_ascend", no_player)
        monkeypatch.setattr(quantumgame, "_ascend", no_player)
        with pytest.raises(ValueError, match=message):
            runner(k, seed)

    @pytest.mark.parametrize("runner", DIMENSION_2_RUNNERS.values(), ids=DIMENSION_2_RUNNERS.keys())
    def test_more_players_than_the_dimension_rejected_before_any_player(self, monkeypatch, runner):
        # The quantum runners' k > 2**q check had no test.
        def no_player(*args, **kwargs):
            raise AssertionError("a player ran")

        monkeypatch.setattr(eigengame_classical, "_ascend", no_player)
        monkeypatch.setattr(quantumgame, "_ascend", no_player)
        with pytest.raises(ValueError, match=r"^k=3 players exceed the operator's dimension 2$"):
            runner(3)

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_more_players_than_the_dimension_rejected_before_the_lanczos_run(self, runner, extra):
        # The count was checked after spectral_range's Lanczos run on the operator.
        h = PauliSum(8, ((1.0, "ZIIIIIII"), (0.5, "XXIIIIII")))
        cfg = SolverConfig(direction="minimize", **extra)
        with pytest.raises(ValueError, match=r"^k=257 players exceed the operator's dimension 256$"):
            runner(h, layered_ansatz(8, 1), cfg, 257, seed=0)
        assert "spectral_range" not in vars(h)

    @pytest.mark.parametrize("runner", DIMENSION_2_RUNNERS.values(), ids=DIMENSION_2_RUNNERS.keys())
    def test_as_many_players_as_the_dimension_run(self, runner):
        result = runner(2)
        assert [p.index for p in result.players] == [1, 2]
        assert np.array_equal(result.players[1].parents, result.players[0].vector[None, :])

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_no_players_rejected(self, runner, extra, k):
        # An empty run used to return all_converged=True with no levels.
        cfg = SolverConfig(direction="minimize", **extra)
        with pytest.raises(ValueError, match="k must be a whole number of at least 1"):
            runner(DIAG_3120, layered_ansatz(2, 2), cfg, k, seed=0)

    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    @pytest.mark.parametrize("length", [5, 7])
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_wrong_length_theta_rejected_before_any_read_out(self, monkeypatch, h2, player, length, as_array):
        def no_read(*args):
            raise AssertionError("a read-out was drawn")

        monkeypatch.setattr(quantumgame, "perturb_readouts", no_read)
        theta = [0.1] * length
        cfg = SolverConfig(direction="minimize", beta=5.0, shots=ShotModel(100))
        with pytest.raises(BindingError):
            player(h2, random_layers_ansatz(2, 2, 3, seed=3),
                   np.array(theta) if as_array else theta, (), (), cfg)

    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_theta_rejected_before_any_preparation(self, monkeypatch, h2, player, value):
        # An inf used to reach the first sweep: NumPy's invalid-value warnings in
        # cos and sin, then "prepared state norms deviate from 1", a symptom.
        def no_preparation(*args):
            raise AssertionError("a state was prepared")

        monkeypatch.setattr(quantumgame, "_sweep_states", no_preparation)
        monkeypatch.setattr(quantumgame, "apply_ansatz", no_preparation)
        theta = np.full(9, 0.1)
        theta[3] = value
        with pytest.raises(BindingError, match=rf"^theta\[3\] must be finite, got {value!r}$"):
            player(h2, random_layers_ansatz(2, 3, 3, seed=11), theta, [], [], SolverConfig(beta=5.0))

    @pytest.mark.parametrize("player", [quantumgame_player, vqd_player], ids=["game", "vqd"])
    @pytest.mark.parametrize("shots", [ShotModel(), ShotModel(100)], ids=["exact", "shots"])
    def test_parameterless_layout_rejected_before_any_preparation(self, monkeypatch, h2, player, shots):
        # Its empty gradient has norm 0: each player "converged" at iteration 0 on
        # the initial state, and run_quantumgame returned [-0.8714, -0.8714].
        def no_preparation(*args):
            raise AssertionError("a state was prepared")

        monkeypatch.setattr(quantumgame, "_sweep_states", no_preparation)
        monkeypatch.setattr(quantumgame, "apply_ansatz", no_preparation)
        cfg = SolverConfig(direction="minimize", beta=5.0, shots=shots)
        with pytest.raises(ValueError, match="no parameters"):
            player(h2, AnsatzSpec(2, (), ((0, 1),)), [], (), (), cfg)

    @pytest.mark.parametrize("runner, extra", [(run_quantumgame, {}), (run_vqd, {"beta": 5.0})],
                             ids=["game", "vqd"])
    def test_parameterless_layout_rejected_by_the_runners(self, h2, runner, extra):
        with pytest.raises(ValueError, match="no parameters"):
            runner(h2, AnsatzSpec(2, (), ()), SolverConfig(direction="minimize", **extra), 2, seed=0)

    @pytest.mark.parametrize("runner", [run_quantumgame, run_vqd], ids=["game", "vqd"])
    @pytest.mark.parametrize("terms", [((0.0, "Z"),), ((1.0, "Z"), (-1.0, "Z")), ()],
                             ids=["zero-coefficient", "cancelling-terms", "empty-sum"])
    def test_zero_operator_rejected(self, runner, terms):
        # VQD used to divide by a zero step bound; the game returned [0.0].
        cfg = SolverConfig(direction="minimize", beta=1.0)
        with pytest.raises(ValueError, match="zero operator"):
            runner(PauliSum(1, terms), layered_ansatz(1, 1), cfg, 1, seed=0)
