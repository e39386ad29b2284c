"""Bound calculators and the sampled inequality checks."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from eigengames.eigengame_classical import GameConfig, finite_diff_gradient, run_sequential
from eigengames.errors import BindingError, DegenerateParentError, HermiticityError
from eigengames.hamiltonian import (
    HermitianMatrix,
    PauliSum,
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    load_pauli_sum,
    pauli_sum_to_matrix,
    random_orthonormal,
)
from eigengames import quantumgame, theory_diagnostics
from eigengames.quantum_sim import AnsatzSpec, apply_ansatz, random_layers_ansatz
from eigengames.quantumgame import SolverConfig, quantumgame_player
from eigengames.theory_diagnostics import (
    BoundParams,
    error_accumulation_bound_classical,
    error_accumulation_bound_quantum,
    iteration_bound_classical,
    iteration_bound_quantum,
    lipschitz_bound_classical,
    lipschitz_bound_quantum,
    loglog_slope,
    measure_error_accumulation_classical,
    measure_error_accumulation_quantum,
    sampled_lipschitz_check,
)

from oracles import identity_shifted, state_energy
from test_hamiltonian import random_pauli_sum
from test_eigengame_classical import matrix_with_spectrum


class TestLipschitzClassical:
    def test_sigma_zero_special_case(self):
        p = BoundParams(lambda_top=2.0, gaps=(0.5,), player_index=1, kappa=1.5, c=1.0 / 32.0)
        assert lipschitz_bound_classical(p) == pytest.approx(
            4.0 * (2.0 + (1.0 + 1.5) * (1.0 / 32.0) * 0.5)
        )

    def test_first_player_substitution(self):
        p = BoundParams(lambda_top=1.0, gaps=(0.25,), player_index=1, kappa=0.5, c=1.0 / 16.0)
        assert lipschitz_bound_classical(p) == pytest.approx(
            4.0 * (1.0 + 1.5 * (1.0 / 16.0) * 0.25)
        )

    def test_hand_arithmetic_instance(self):
        # 4*(1*2 + (1+1)*(1/16)*0.5) + 0.1*(1 + 2*1*1*1) = 8.55
        p = BoundParams(
            lambda_top=1.0, gaps=(0.5, 0.5), player_index=2,
            kappa=1.0, c=1.0 / 16.0, sigma=0.1, diag_norm=1.0,
        )
        assert lipschitz_bound_classical(p) == pytest.approx(8.55, abs=1e-12)

    def test_c_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, c=0.25)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("c", math.nan, "c must be non-negative and finite, got nan"),
            ("gaps", (math.nan, 0.5), "gaps"),
            ("lambda_top", math.nan, "lambda_top"),
            ("player_index", math.nan, "player_index"),
            ("num_parameters", math.nan, "num_parameters"),
            ("lambda_top", math.inf, "lambda_top"),
            ("kappa", math.nan, "kappa"),
            ("kappa", -math.inf, "kappa"),
            ("sigma", math.nan, "sigma"),
            ("sigma", math.inf, "sigma"),
            ("sigma", -0.1, "sigma"),
            ("diag_norm", math.nan, "diag_norm"),
            ("diag_norm", math.inf, "diag_norm"),
            ("diag_norm", -1.0, "diag_norm"),
        ],
    )
    def test_nan_rejected(self, field, value, message):
        # Each check fails on NaN: a NaN gap used to build and give a NaN bound,
        # and a NaN sigma or kappa still did.
        fields = {"lambda_top": 1.0, "gaps": (0.5, 0.5), "player_index": 2, field: value}
        with pytest.raises(ValueError, match=message):
            BoundParams(**fields)

    def test_nan_lambda_top_rejected_without_gaps(self):
        # No gap to compare against: the finiteness check alone catches it.
        with pytest.raises(ValueError, match="lambda_top"):
            BoundParams(lambda_top=math.nan, gaps=(), player_index=1)

    @pytest.mark.parametrize("gaps, i", [((), 1), ((0.5,), 2)])
    def test_player_index_beyond_the_gaps_rejected(self, gaps, i):
        # gap_i used to raise a bare IndexError from the bound formula.
        with pytest.raises(ValueError, match=rf"player_index must be at most len\(gaps\) = {len(gaps)}, got {i}"):
            BoundParams(lambda_top=1.0, gaps=gaps, player_index=i)


class TestLipschitzQuantum:
    def test_single_parameter_equals_classical(self):
        p = BoundParams(lambda_top=1.3, gaps=(0.4,), player_index=1, kappa=0.7,
                        c=1.0 / 16.0, num_parameters=1)
        assert lipschitz_bound_quantum(p) == pytest.approx(lipschitz_bound_classical(p))

    def test_sixteen_parameters_scale_by_four(self):
        base = BoundParams(lambda_top=1.0, gaps=(0.5, 0.5), player_index=2, kappa=1.0,
                           c=1.0 / 16.0, num_parameters=1)
        wide = BoundParams(lambda_top=1.0, gaps=(0.5, 0.5), player_index=2, kappa=1.0,
                           c=1.0 / 16.0, num_parameters=16)
        assert lipschitz_bound_quantum(wide) == pytest.approx(4.0 * lipschitz_bound_quantum(base))

    def test_hand_arithmetic_instance(self):
        p = BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, kappa=0.0,
                        c=0.0, num_parameters=6)
        assert lipschitz_bound_quantum(p) == pytest.approx(math.sqrt(6.0) * 4.0, abs=1e-12)

    def test_ratio_to_classical_is_exactly_sqrt_m(self):
        # The quantum bound drops the sigma term, so the identity holds at sigma > 0 too.
        p = BoundParams(lambda_top=1.7, gaps=(0.3, 0.3, 0.3), player_index=3, kappa=2.0,
                        c=1.0 / 20.0, sigma=0.1, num_parameters=15, diag_norm=0.9)
        assert lipschitz_bound_quantum(p) == math.sqrt(15.0) * lipschitz_bound_classical(
            replace(p, sigma=0.0)
        )

    @pytest.mark.parametrize("m", [0, -3])
    def test_parameter_count_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="num_parameters"):
            BoundParams(lambda_top=1.0, gaps=(0.5,), player_index=1, num_parameters=m)


class TestIterationBoundClassical:
    def test_single_player_unit_instance(self):
        # 5 pi^2 * 1 * [1 * 1 / 1 / (16/16)]^2 = 5 pi^2 -> ceil = 50
        assert iteration_bound_classical([4.0], [4.0], 1.0, (1.0,), 1.0 / 16.0) == 50

    def test_doubling_c_quarters_the_bound(self):
        small = iteration_bound_classical([4.0], [4.0], 1.0, (0.5,), 1.0 / 64.0)
        large = iteration_bound_classical([4.0], [4.0], 1.0, (0.5,), 1.0 / 32.0)
        assert abs(small - 4 * large) <= 4  # ceil slack only

    def test_sigma_inflated_lipschitz_reduces_bound(self):
        base = iteration_bound_classical([4.0], [4.0], 1.0, (0.5,), 1.0 / 16.0)
        looser = iteration_bound_classical([4.0], [6.0], 1.0, (0.5,), 1.0 / 16.0)
        assert looser < base

    def test_zero_gap_guarded(self):
        with pytest.raises(ZeroDivisionError):
            iteration_bound_classical([4.0], [4.0], 1.0, (0.0,), 1.0 / 16.0)

    def test_nan_gap_and_c_k_guarded(self):
        # NaN used to reach math.ceil ("cannot convert float NaN to integer").
        with pytest.raises(ZeroDivisionError, match="gaps"):
            iteration_bound_classical([4.0], [4.0], 1.0, (math.nan,), 1.0 / 16.0)
        with pytest.raises(ZeroDivisionError, match="c_k"):
            iteration_bound_classical([4.0], [4.0], 1.0, (0.5,), math.nan)
        with pytest.raises(ZeroDivisionError, match="c_k"):
            iteration_bound_quantum([4.0], 1, 1.0, (0.5,), math.nan)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            iteration_bound_classical([4.0, 4.0], [4.0], 1.0, (0.5,), 1.0 / 16.0)

    def test_no_players_rejected(self):
        # Used to raise "factorial() not defined for negative values".
        with pytest.raises(ValueError, match="at least one player"):
            iteration_bound_classical([], [], 1.0, [], 0.1)
        with pytest.raises(ValueError, match="at least one player"):
            iteration_bound_quantum([], 4, 1.0, [], 0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_lipschitz_values_rejected(self, bad):
        # L_i(sigma) = 0 raised "float division by zero"; L_theta = -1 returned a bound of 31.
        with pytest.raises(ValueError, match=r"lipschitz_zero\[0\] must be positive"):
            iteration_bound_classical([bad], [1.0], 1.0, [0.5], 0.1)
        with pytest.raises(ValueError, match=r"lipschitz_sigma\[0\] must be positive"):
            iteration_bound_classical([1.0], [bad], 1.0, [0.5], 0.1)
        with pytest.raises(ValueError, match=r"lipschitz_theta\[0\] must be positive"):
            iteration_bound_quantum([bad], 4, 1.0, [0.5], 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_named(self, bad):
        # NaN used to reach math.ceil ("cannot convert float NaN to integer").
        with pytest.raises(ValueError, match="lipschitz_zero"):
            iteration_bound_classical([bad], [4.0], 1.0, (0.5,), 1.0 / 16.0)
        with pytest.raises(ValueError, match="lipschitz_sigma"):
            iteration_bound_classical([4.0], [bad], 1.0, (0.5,), 1.0 / 16.0)
        with pytest.raises(ValueError, match="lipschitz_theta"):
            iteration_bound_quantum([bad], 1, 1.0, (0.5,), 1.0 / 16.0)
        with pytest.raises(ValueError, match="lambda_top"):
            iteration_bound_classical([4.0, 4.0], [4.0, 4.0], bad, (0.5, 0.5), 1.0 / 16.0)
        with pytest.raises(ValueError, match="lambda_top"):
            iteration_bound_quantum([4.0, 4.0], 1, bad, (0.5, 0.5), 1.0 / 16.0)


class TestIterationBoundQuantum:
    def test_worked_instance_hand_arithmetic(self):
        # L = sqrt(6)*4*(1 + (1/16)*0.5); bracket = (1/0.5)*(1/(16*(1/16))) = 2;
        # T = ceil(4 pi^2 * L^2/sqrt(6) * 4) = 6582.
        lip = math.sqrt(6.0) * 4.0 * (1.0 + (1.0 / 16.0) * 0.5)
        by_hand = math.ceil(4.0 * math.pi**2 * (lip**2 / math.sqrt(6.0)) * 2.0**2)
        assert by_hand == 6582
        assert iteration_bound_quantum([lip], 6, 1.0, (0.5,), 1.0 / 16.0) == 6582

    def test_finite_and_monotone_in_lipschitz(self):
        lo = iteration_bound_quantum([4.0], 1, 1.0, (0.5,), 1.0 / 16.0)
        hi = iteration_bound_quantum([5.0], 1, 1.0, (0.5,), 1.0 / 16.0)
        assert 0 < lo < hi

    def test_quadrupled_parameter_count_halves_bound(self):
        base = iteration_bound_quantum([4.0], 1, 1.0, (0.5,), 1.0 / 16.0)
        wide = iteration_bound_quantum([4.0], 4, 1.0, (0.5,), 1.0 / 16.0)
        assert abs(wide - base / 2.0) <= 1.0



class TestErrorAccumulationClassical:
    def test_exact_parents_give_zero(self):
        matrix, (_, vectors) = build_powerlaw_hamiltonian(6, seed=0)
        parents = [vectors[:, j] for j in range(2)]
        assert error_accumulation_bound_classical(matrix, parents, parents, 0.1) == 0.0

    def test_sigma_zero_keeps_only_first_sum(self):
        matrix, (levels, vectors) = build_powerlaw_hamiltonian(6, seed=0)
        true = [vectors[:, 0]]
        rng = np.random.default_rng(1)
        delta = rng.standard_normal(6)
        delta -= (delta @ true[0]) * true[0]
        delta /= np.linalg.norm(delta)
        hat = [np.cos(1e-3) * true[0] + np.sin(1e-3) * delta]
        with_sigma = error_accumulation_bound_classical(matrix, true, hat, 0.5)
        without = error_accumulation_bound_classical(matrix, true, hat, 0.0)
        assert without < with_sigma
        w = hat[0] - true[0]
        mat = matrix.entries
        lam_top = float(levels[0])
        lam_jj = float(true[0] @ (mat @ true[0]))
        norms = (np.linalg.norm(true[0]) * np.linalg.norm(w) * 2 + np.linalg.norm(w) ** 2)
        expected = 2.0 * np.linalg.norm(mat, 2) * norms * lam_top / lam_jj
        assert without == pytest.approx(expected, rel=1e-12)

    def test_measured_difference_within_bound(self):
        rows = measure_error_accumulation_classical(
            dim=8, epsilons=(1e-4, 1e-3, 1e-2), seed=0, samples_per_epsilon=10
        )
        assert rows and all(r.passed for r in rows)

    def test_linearity_in_epsilon(self):
        rows = measure_error_accumulation_classical(
            dim=8, epsilons=(1e-4, 1e-3, 1e-2), seed=1, samples_per_epsilon=15
        )
        assert 0.8 <= loglog_slope(rows) <= 1.2

    @pytest.mark.parametrize("top", [-1e-13, -1e-3])
    def test_negative_definite_spectrum_with_a_top_level_near_zero(self, top):
        # Levels top, -0.5, ..., -3.5.  On M the parents' Rayleigh quotients are
        # near zero: at top = -1e-13 the bound raised DegenerateParentError, and
        # at -1e-3 it read 0.135 against a gradient change of 0.454 measured on M.
        # run_sequential's players ascend A = M + 7I and solve M; on A the bound
        # reads 0.586 and holds against the change measured on A, 0.109.
        basis = random_orthonormal(8, 3)
        m = matrix_with_spectrum([top, *(-0.5 * np.arange(1, 8))], basis)
        a = identity_shifted(m)
        assert np.linalg.eigvalsh(a)[0] == pytest.approx(3.5, abs=1e-12)
        assert run_sequential(m, GameConfig(num_players=3), seed=0).all_converged
        rng = np.random.default_rng(0)
        true = [basis[0], basis[1]]
        hat = [theory_diagnostics._rotate_towards(v, rng, 1e-2) for v in true]
        bound = error_accumulation_bound_classical(m, true, hat, 1e-2)
        # A is positive definite, so its bound is taken on A itself.
        assert bound == pytest.approx(error_accumulation_bound_classical(a, true, hat, 1e-2), rel=1e-12)
        for _ in range(20):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            change = finite_diff_gradient(v, hat, a, 1e-2) - finite_diff_gradient(v, true, a, 1e-2)
            assert np.linalg.norm(change - (change @ v) * v) <= bound

    def test_slope_needs_two_epsilons(self):
        rows = measure_error_accumulation_classical(
            dim=6, epsilons=(1e-3,), seed=0, samples_per_epsilon=3
        )
        with pytest.raises(ValueError, match="two or more epsilons"):
            loglog_slope(rows)


class TestErrorAccumulationInputs:
    # The real part of the first is diag(2, 1), which the classical bound used
    # to read silently; the second is not symmetric.
    @pytest.mark.parametrize("m", [HermitianMatrix([[2, 1j], [-1j, 1]]), np.array([[2.0, 5.0], [0.0, 1.0]])],
                             ids=["complex-hermitian", "non-symmetric"])
    def test_classical_bound_rejects_what_run_sequential_rejects(self, m):
        parents = [np.array([1.0, 0.0])]
        with pytest.raises(HermiticityError):
            run_sequential(m, GameConfig(num_players=1), seed=0)
        with pytest.raises(HermiticityError):
            error_accumulation_bound_classical(m, parents, parents, 0.1)

    def test_rows_carry_their_epsilon(self):
        classical = measure_error_accumulation_classical(
            dim=6, epsilons=(1e-4, 1e-2), seed=0, samples_per_epsilon=2
        )
        assert [r.epsilon for r in classical] == [1e-4, 1e-4, 1e-2, 1e-2]
        quantum = measure_error_accumulation_quantum(
            load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 3, 3, seed=11),
            epsilons=(1e-3,), seed=0, samples_per_epsilon=2,
        )
        assert quantum and all(r.epsilon == 1e-3 for r in quantum)

    @pytest.mark.parametrize("i", [5, 6])
    def test_player_index_beyond_dim_rejected(self, i):
        # i = 6 raised a bare IndexError; i = 5 ran against 4 parents that span the space.
        with pytest.raises(ValueError, match=f"player_index must be at most dim = 4, got {i}"):
            measure_error_accumulation_classical(4, [1e-3], 0, player_index=i, samples_per_epsilon=1)
        assert len(measure_error_accumulation_classical(4, [1e-3], 0, player_index=4, samples_per_epsilon=1)) == 1

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-3])
    @pytest.mark.parametrize("harness", ["classical", "quantum"])
    def test_epsilon_must_be_positive(self, harness, eps):
        # A NaN epsilon wrote a row whose bound check failed; zero made loglog_slope raise
        # LinAlgError; a negative one ran as a rotation the other way.
        run = {
            "classical": lambda: measure_error_accumulation_classical(4, [1e-3, eps], 0, samples_per_epsilon=1),
            "quantum": lambda: measure_error_accumulation_quantum(
                load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 1, 2, seed=0), [1e-3, eps], 0,
                samples_per_epsilon=1),
        }[harness]
        with pytest.raises(ValueError, match=r"epsilons\[1\] must be positive and finite"):
            run()

    def test_classical_parent_of_opposite_sign_is_bounded_on_the_ascended_matrix(self):
        # On M, lambda_top = 1 but the true parent e_2 has Rayleigh quotient -0.7,
        # so lambda_top / lambda_jj is negative; the sum read -0.0574 before a
        # guard rejected it.  With two parents the child is player 3, whose level
        # -0.7 is negative, so the bound is taken on the A = M + 2I a run of three
        # players ascends, diag(3, 2.5, 1.3, 1), where the quotient is 1.3.  The
        # undisplaced parent e_0 adds nothing.
        e = np.eye(4)
        hat = np.cos(1e-2) * e[2] + np.sin(1e-2) * e[0]
        bound = error_accumulation_bound_classical(np.diag([1.0, 0.5, -0.7, -1.0]), [e[0], e[2]], [e[0], hat], 0.0)
        w = np.linalg.norm(hat - e[2])
        assert bound == pytest.approx(2.0 * 3.0 * (2.0 * w + w * w) * 3.0 / 1.3, rel=1e-12)

    def test_quantum_parent_of_opposite_sign_rejected(self):
        # This sum has levels of both signs; on M, parents below zero gave
        # negative bounds and FAIL rows before the guard, which still rejects
        # them for direct callers.  The harness states the bound on the game's
        # A, where every parent's Rayleigh quotient is positive.
        h = PauliSum(2, ((1.0, "ZI"), (0.5, "XX"), (0.3, "IZ")))
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        thetas = np.random.default_rng(0).uniform(-np.pi, np.pi, (20, spec.num_parameters))
        below = next(t for t in thetas if state_energy(h, apply_ansatz(spec, t).amplitudes) < 0.0)
        with pytest.raises(DegenerateParentError, match="sign"):
            error_accumulation_bound_quantum(pauli_sum_to_matrix(h), spec, [below], [below + 1e-3])
        rows = measure_error_accumulation_quantum(h, spec, epsilons=(1e-3, 1e-2), seed=0, samples_per_epsilon=10)
        assert len(rows) == 20 and all(r.passed for r in rows)

    def test_negative_definite_sums_with_a_top_level_near_zero_pass(self):
        # Stated on M itself, 86 of these 400 rows failed (worst measured/bound
        # 3.35): the sum's lambda_top / lambda_jj assumes a positive spectrum,
        # and here both are near zero.  On the game's A none fails (worst 0.08).
        rng = np.random.default_rng(0)
        rows = []
        for draw in range(40):
            q = 2 + draw % 2
            h = random_pauli_sum(rng, q, 4, identity=False)
            top = np.linalg.eigvalsh(pauli_sum_to_matrix(h)).max()
            h = PauliSum(q, h.terms + ((-0.05 - top, "I" * q),))
            assert np.linalg.eigvalsh(pauli_sum_to_matrix(h)).max() == pytest.approx(-0.05, abs=1e-12)
            rows += measure_error_accumulation_quantum(
                h, random_layers_ansatz(q, 3, 3, seed=draw), epsilons=(1e-3, 1e-2),
                seed=draw, samples_per_epsilon=5,
            )
        assert len(rows) == 400
        assert [r.parameters for r in rows if not r.passed] == []

    def test_quantum_bound_rejects_a_non_hermitian_array(self):
        spec = AnsatzSpec(1, ((("RY", 0),),), (), "zero")
        theta = [spec.bind([0.3])]
        with pytest.raises(HermiticityError):
            error_accumulation_bound_quantum(np.array([[2.0, 5.0], [0.0, 1.0]]), spec, theta, theta)

    @pytest.mark.parametrize("m", [np.eye(2, dtype=bool), [[2, 1], [1, 3]], np.array([[2.0, 1j], [-1j, 1.0]])],
                             ids=["bool", "int_list", "complex"])
    def test_quantum_bound_reads_an_array_as_its_hermitian_matrix(self, m):
        spec = AnsatzSpec(1, ((("RY", 0),),), (), "zero")
        true, hat = [spec.bind([0.3])], [spec.bind([0.35])]
        expected = error_accumulation_bound_quantum(HermitianMatrix(m), spec, true, hat)
        assert error_accumulation_bound_quantum(m, spec, true, hat) == expected


class TestErrorAccumulationQuantum:
    def test_harness_builds_the_players_objective(self, monkeypatch):
        # The harness's gradients are the maximizing game's: for one parent it
        # builds the sign, offset, kets, weights and step the player builds,
        # given the parent's eigenvalue on M (one on A would be shifted twice).
        h = random_pauli_sum(np.random.default_rng(5), 3, 10, identity=True)
        spec = random_layers_ansatz(3, 2, 5, seed=2)
        built, passed = [], []
        builder, ascend = theory_diagnostics._game_objective, quantumgame._ascend

        def recording_builder(m, states, eigenvalues, direction):
            built.append((np.array(states), builder(m, states, eigenvalues, direction)))
            return built[-1][1]

        def recording_ascend(*args, **kwargs):
            passed.append(inspect.signature(ascend).bind(*args, **kwargs).arguments["objective"])
            return ascend(*args, **kwargs)

        monkeypatch.setattr(theory_diagnostics, "_game_objective", recording_builder)
        monkeypatch.setattr(quantumgame, "_ascend", recording_ascend)
        measure_error_accumulation_quantum(h, spec, epsilons=(1e-3,), seed=0, samples_per_epsilon=1)
        states, harness = next((states, objective) for states, objective in built if len(states) == 1)
        eigenvalue = state_energy(h, states[0])
        cfg = SolverConfig(direction="maximize", max_iterations=1)
        quantumgame_player(h, spec, np.zeros(spec.num_parameters), states, [eigenvalue], cfg)
        (player,) = passed
        assert (player.scale, player.constant, player.eta) == (harness.scale, harness.constant, harness.eta)
        assert player.scale == 1.0
        assert np.array_equal(player.kets, harness.kets)
        assert np.allclose(player.weights, harness.weights, rtol=1e-12, atol=0.0)
        # Each weight is -1 over the parent's denominator, its eigenvalue on A = M + offset*I.
        a = pauli_sum_to_matrix(h) + harness.constant * np.eye(8)
        assert -1.0 / harness.weights[0] == pytest.approx(np.vdot(states[0], a @ states[0]).real, rel=1e-12)

    def test_identical_parameters_give_zero(self):
        h = load_pauli_sum(bundled_h2_path())
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        theta = spec.bind(np.linspace(0.1, 1.0, spec.num_parameters))
        assert error_accumulation_bound_quantum(pauli_sum_to_matrix(h), spec, [theta], [theta]) == 0.0

    def test_no_parents_give_zero_and_a_wrong_length_theta_is_rejected(self):
        # The parent states are prepared in one batch, an empty one included.
        h = pauli_sum_to_matrix(load_pauli_sum(bundled_h2_path()))
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        assert error_accumulation_bound_quantum(h, spec, [], []) == 0.0
        with pytest.raises(BindingError):
            error_accumulation_bound_quantum(h, spec, [np.zeros(9)], [np.zeros(8)])

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_theta_rejected_before_any_preparation(self, monkeypatch, value):
        def no_preparation(*args):
            raise AssertionError("a state was prepared")

        monkeypatch.setattr(theory_diagnostics, "apply_ansatz", no_preparation)
        h = pauli_sum_to_matrix(load_pauli_sum(bundled_h2_path()))
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        hat = np.zeros(9)
        hat[3] = value
        with pytest.raises(BindingError, match=rf"^theta\[3\] must be finite, got {value!r}$"):
            error_accumulation_bound_quantum(h, spec, [np.zeros(9)], [hat])

    def test_layer_grouping_leaves_bound_unchanged(self):
        # The same six-gate circuit declared as 3 layers of 2 gates versus
        # 6 layers of 1 gate produces identical states and gradients, and
        # both have m = 6 parameters, so the bound is the same.
        h = pauli_sum_to_matrix(load_pauli_sum(bundled_h2_path()))
        gates = [("RY", 0), ("RZ", 1), ("RX", 0),
                 ("RY", 1), ("RZ", 0), ("RX", 1)]
        spec3 = AnsatzSpec(2, (tuple(gates[0:2]), tuple(gates[2:4]), tuple(gates[4:6])),
                           (), "zero")
        spec6 = AnsatzSpec(2, tuple((g,) for g in gates), (), "zero")
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, 6)
        hat = theta + 1e-3 * rng.standard_normal(6)
        b3 = error_accumulation_bound_quantum(h, spec3, [spec3.bind(theta)], [spec3.bind(hat)])
        b6 = error_accumulation_bound_quantum(h, spec6, [spec6.bind(theta)], [spec6.bind(hat)])
        assert b6 == pytest.approx(b3, rel=1e-12)

    def test_bound_scales_by_sqrt_parameter_count(self):
        # random_layers_ansatz(2, 3, 3) has m = 9 rotations in 3 layers on 2
        # qubits, so m differs from layers * qubits = 6; the bound follows m.
        h = pauli_sum_to_matrix(load_pauli_sum(bundled_h2_path()))
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        assert spec.num_parameters == 9 and spec.num_layers * spec.num_qubits == 6
        rng = np.random.default_rng(1)
        theta = rng.uniform(-np.pi, np.pi, 9)
        hat = theta + 1e-3 * rng.standard_normal(9)
        v, v_hat = (apply_ansatz(spec, spec.bind(t)).amplitudes for t in (theta, hat))
        w = v_hat - v
        lam_top = float(np.linalg.eigvalsh(h).max())
        lam = float(np.vdot(v, h @ v).real)
        rank_one = 2.0 * np.linalg.norm(v) * np.linalg.norm(w) + np.linalg.norm(w) ** 2
        by_hand = 2.0 * 3.0 * np.linalg.norm(h, 2) * rank_one * lam_top / lam
        bound = error_accumulation_bound_quantum(h, spec, [spec.bind(theta)], [spec.bind(hat)])
        assert bound == pytest.approx(by_hand, rel=1e-12)

    def test_linearity_in_epsilon(self):
        rows = measure_error_accumulation_quantum(
            load_pauli_sum(bundled_h2_path()), random_layers_ansatz(2, 3, 3, seed=11),
            epsilons=(1e-4, 1e-3, 1e-2), seed=0, samples_per_epsilon=20,
        )
        assert 0.8 <= loglog_slope(rows) <= 1.2

    def test_measured_gradient_difference_within_bound(self):
        h = load_pauli_sum(bundled_h2_path())
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        rows = measure_error_accumulation_quantum(
            h, spec, epsilons=(1e-3,), seed=0, samples_per_epsilon=4
        )
        assert rows and all(r.passed for r in rows)


class TestSampledLipschitz:
    def test_no_violations_across_draws(self):
        rows = sampled_lipschitz_check(dim=8, num_samples=300, seed=0)
        assert len(rows) == 300
        assert all(r.passed for r in rows)

    def test_utility_bounded_by_lipschitz_constant(self):
        # With accurate (here: exact) parents, |utility| never exceeds L_i(sigma).
        from eigengames.eigengame_classical import utility

        matrix, (levels, vectors) = build_powerlaw_hamiltonian(8, seed=2)
        mat = matrix.entries
        lam = float(levels[0])
        diag_norm = float(np.linalg.norm(np.diag(mat)))
        rng = np.random.default_rng(0)
        for i in (1, 2, 4):
            parents = [vectors[:, j] for j in range(i - 1)]
            params = BoundParams(
                lambda_top=lam, gaps=tuple(float(g) for g in -np.diff(levels)),
                player_index=i, kappa=lam / float(levels[max(i - 2, 0)]),
                c=0.0, sigma=0.0, diag_norm=diag_norm,
            )
            bound = lipschitz_bound_classical(params)
            for _ in range(200):
                v = rng.standard_normal(8)
                v /= np.linalg.norm(v)
                assert abs(utility(v, parents, mat)) <= bound


class TestConvergenceWithinBound:
    def test_observed_iterations_below_proof_bound(self):
        # The pre-big-O bound is astronomically loose; the observed counts
        # must nevertheless stay below it.
        from eigengames.eigengame_classical import GameConfig, run_sequential

        matrix, (levels, _) = build_powerlaw_hamiltonian(8, seed=0, exponent=2.0)
        k = 4
        cfg = GameConfig(sigma=1e-4, grad_tolerance=1e-3, num_players=k)
        result = run_sequential(matrix, cfg, seed=0, mode="zeroth_order")
        lam = float(levels[0])
        diag_norm = float(np.linalg.norm(np.diag(matrix.entries)))
        gaps = tuple(float(g) for g in -np.diff(levels)[:k])
        l_zero, l_sigma = [], []
        for i in range(1, k + 1):
            p = BoundParams(
                lambda_top=lam, gaps=gaps, player_index=i,
                kappa=lam / float(levels[max(i - 2, 0)]),
                c=1.0 / 16.0, sigma=0.0, diag_norm=diag_norm,
            )
            l_zero.append(lipschitz_bound_classical(p))
            p_sigma = BoundParams(
                lambda_top=lam, gaps=gaps, player_index=i,
                kappa=lam / float(levels[max(i - 2, 0)]),
                c=1.0 / 16.0, sigma=1e-4, diag_norm=diag_norm,
            )
            l_sigma.append(lipschitz_bound_classical(p_sigma))
        bound = iteration_bound_classical(l_zero, l_sigma, lam, gaps, 1.0 / 16.0)
        assert result.total_iterations <= bound
