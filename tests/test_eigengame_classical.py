"""Utility algebra, both gradient modes, and the sequential player loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigengames.errors import (
    DegenerateParentError,
    HermiticityError,
    InvalidDimensionError,
    NormalizationError,
    NumericalOverflowError,
)
from eigengames import eigengame_classical
from eigengames.eigengame_classical import (
    GameConfig,
    ParentVector,
    angular_error,
    eigengame_player,
    exact_gradient,
    finite_diff_error_term,
    finite_diff_gradient,
    run_players,
    run_sequential,
    utility,
)
from eigengames.hamiltonian import HermitianMatrix, build_powerlaw_hamiltonian, random_orthonormal

from oracles import (
    InvalidPerturbationError,
    classical_error_term,
    classical_game_terms,
    numeric_forward_difference,
)

M2 = np.diag([3.0, 1.0])
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
MIX = np.array([1.0, 1.0]) / np.sqrt(2.0)
MODES = ("exact", "zeroth_order")
# Tier-1 criterion 2's settings.
STRICT = dict(sigma=1e-6, grad_tolerance=1e-6, max_iterations_per_player=200_000)


def matrix_with_spectrum(eigenvalues, basis):
    """P^T diag(eigenvalues) P, the convention of ``build_powerlaw_hamiltonian``."""
    m = basis.T @ np.diag(eigenvalues) @ basis
    return 0.5 * (m + m.T)


def residual(m, player):
    return float(np.linalg.norm(m @ player.vector - player.eigenvalue * player.vector))


def random_problem(dim, num_parents, seed, unit_parents=True):
    """Random symmetric matrix, unit child vector, and near-eigenvector parents."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = 0.5 * (a + a.T)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    parents = []
    for _ in range(num_parents):
        p = rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        if abs(p @ (m @ p)) < 1e-3:  # keep the Rayleigh denominator well away from zero
            continue
        parents.append(p)
    return m, v, parents


class TestUtility:
    def test_rayleigh_quotient_of_eigenvector(self):
        assert utility(E1, [], M2) == pytest.approx(3.0, abs=1e-14)

    def test_orthogonal_eigenvector_parent(self):
        assert utility(E2, [E1], M2) == pytest.approx(1.0, abs=1e-14)

    def test_oblique_parent_closed_form(self):
        # 3 - (3/sqrt(2))^2 / 2 = 0.75
        assert utility(E1, [MIX], M2) == pytest.approx(0.75, abs=1e-14)

    def test_degenerate_parent_rejected(self):
        m = np.diag([1.0, -1.0])
        null_parent = np.array([1.0, 1.0]) / np.sqrt(2.0)  # Rayleigh quotient 0
        with pytest.raises(DegenerateParentError):
            utility(E1, [null_parent], m)


class TestExactGradient:
    def test_eigenvector_no_parents(self):
        assert np.allclose(exact_gradient(E1, [], M2), [6.0, 0.0], atol=1e-14)

    def test_projection_term_vanishes(self):
        assert np.allclose(exact_gradient(E2, [E1], M2), [0.0, 2.0], atol=1e-14)

    def test_oblique_closed_form(self):
        got = exact_gradient(MIX, [E1], M2)
        assert np.allclose(got, [0.0, np.sqrt(2.0)], atol=1e-14)


class TestFiniteDiffGradient:
    def test_error_term_arithmetic(self):
        got = finite_diff_gradient(E1, [], M2, sigma=0.1)
        assert np.allclose(got, [6.3, 0.1], atol=1e-14)

    def test_sigma_zero_equals_exact(self):
        m, v, parents = random_problem(6, 2, seed=0)
        assert np.allclose(
            finite_diff_gradient(v, parents, m, 0.0), exact_gradient(v, parents, m), atol=1e-12
        )

    def test_parent_error_term_closed_form(self):
        # (0,2) + 0.5*((3,1) - (9,0)/3) = (0, 2.5)
        got = finite_diff_gradient(E2, [E1], M2, sigma=0.5)
        assert np.allclose(got, [0.0, 2.5], atol=1e-14)


class TestGameMatrix:
    """The folded game matrix against the per-parent block expressions it replaced."""

    def test_public_algebra_matches_block_oracle(self):
        rng = np.random.default_rng(31)
        for draw in range(80):
            n = int(rng.integers(2, 41))
            num_parents = int(rng.integers(0, 7))
            a = rng.standard_normal((n, n))
            m = 0.5 * (a + a.T)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            parents = []
            while len(parents) < num_parents:
                p = rng.standard_normal(n)
                p /= np.linalg.norm(p)
                mp = m @ p
                # Not an eigenvector, and a Rayleigh denominator well away from zero.
                if abs(p @ mp) > 1e-3 and np.linalg.norm(mp - (p @ mp) * p) > 1e-3:
                    parents.append(p)
            # Triangle bound on ||G||_2: the scale of every term the three expressions sum.
            scale = np.linalg.norm(m, 2) + sum(
                np.linalg.norm(m @ p) ** 2 / abs(p @ (m @ p)) for p in parents
            )
            want_utility, want_gradient = classical_game_terms(v, parents, m)
            assert abs(utility(v, parents, m) - want_utility) <= 1e-12 * scale, draw
            assert np.max(np.abs(exact_gradient(v, parents, m) - want_gradient)) <= 1e-12 * scale, draw
            got_error = finite_diff_error_term(parents, m)
            assert np.max(np.abs(got_error - classical_error_term(parents, m))) <= 1e-12 * scale, draw

    def test_player_step_matches_block_oracle(self):
        m, v0, parents = random_problem(12, 4, seed=8)
        alpha, sigma = 0.05, 1e-2
        for mode, bias in (("exact", 0.0), ("zeroth_order", sigma * classical_error_term(parents, m))):
            cfg = GameConfig(step_size=alpha, sigma=sigma, grad_tolerance=1e-12,
                             max_iterations_per_player=1)
            state = eigengame_player(m, v0, parents, cfg, mode=mode)
            stepped = v0 + alpha * (classical_game_terms(v0, parents, m)[1] + bias)
            assert np.max(np.abs(state.vector - stepped / np.linalg.norm(stepped))) <= 1e-12


class TestNumericForwardDifference:
    def test_quotient_is_algebraically_exact(self):
        # The utility is quadratic in each component, so the literal forward
        # quotient reproduces the closed form to rounding.
        for seed in range(30):
            m, v, parents = random_problem(5, 2, seed=seed)
            for sigma in (1e-1, 1e-2, 1e-3):
                numeric = numeric_forward_difference(v, parents, m, sigma)
                closed = finite_diff_gradient(v, parents, m, sigma)
                scale = max(1.0, np.linalg.norm(closed))
                assert np.linalg.norm(numeric - closed) <= 1e-9 * scale

    def test_matches_error_term_example(self):
        got = numeric_forward_difference(E1, [], M2, sigma=0.1)
        assert np.allclose(got, [6.3, 0.1], atol=1e-9)

    def test_identity_matrix_arithmetic(self):
        # 2Mv + sigma*diag(I) = (2, 0) + 0.01*(1, 1) = (2.01, 0.01).
        got = numeric_forward_difference(E1, [], np.eye(2), sigma=0.01)
        assert np.allclose(got, [2.01, 0.01], atol=1e-11)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidPerturbationError):
            numeric_forward_difference(E1, [], M2, sigma=0.0)


class TestAngularError:
    def test_identity_and_sign_invariance(self):
        v = np.array([0.6, 0.8])
        assert angular_error(v, v) == 0.0
        assert angular_error(v, -v) == 0.0

    def test_orthogonal(self):
        assert angular_error(E1, E2) == pytest.approx(np.pi / 2.0)

    def test_non_unit_rejected(self):
        with pytest.raises(NormalizationError):
            angular_error(np.array([1.0, 1.0]), E1)

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_vector_rejected(self, nan_first):
        # [nan, 0] against [1, 0] used to return 0.0, a silent perfect match.
        nan = np.array([np.nan, 0.0])
        with pytest.raises(NormalizationError):
            angular_error(*((nan, E1) if nan_first else (E1, nan)))


class TestPlayer:
    def test_eigenvector_is_fixed_point(self):
        cfg = GameConfig(step_size=0.1, grad_tolerance=1e-3, max_iterations_per_player=10)
        state = eigengame_player(M2, E1, [], cfg, mode="exact")
        assert state.converged
        assert state.iterations_used <= 1
        assert abs(abs(state.vector @ E1) - 1.0) < 1e-12

    def test_three_dim_convergence_to_top_eigenvector(self):
        m = np.diag([3.0, 1.0, 0.5])
        init = np.ones(3) / np.sqrt(3.0)
        cfg = GameConfig(step_size=1.0 / 6.0, grad_tolerance=1e-3)
        state = eigengame_player(m, init, [], cfg, mode="exact")
        # Oracle: top eigenvector of the diagonal matrix is the first axis.
        assert state.converged
        assert angular_error(state.vector, np.array([1.0, 0.0, 0.0])) < 1e-2

    def test_second_player_with_converged_parent(self):
        m = np.diag([3.0, 1.0, 0.5])
        cfg = GameConfig(step_size=1.0 / 6.0, grad_tolerance=1e-3)
        first = eigengame_player(m, np.ones(3) / np.sqrt(3.0), [], cfg, mode="exact")
        init = np.array([0.2, 0.9, np.sqrt(1.0 - 0.04 - 0.81)])
        second = eigengame_player(m, init, [first.vector], cfg, mode="exact")
        assert second.converged
        assert angular_error(second.vector, np.array([0.0, 1.0, 0.0])) < 1e-2

    def test_unit_norm_after_every_accepted_step(self):
        m, _, _ = random_problem(6, 0, seed=3)
        rng = np.random.default_rng(1)
        init = rng.standard_normal(6)
        init /= np.linalg.norm(init)
        cfg = GameConfig(step_size=0.05, grad_tolerance=1e-6, max_iterations_per_player=50)
        state = eigengame_player(m, init, [], cfg, mode="exact")
        assert abs(np.linalg.norm(state.vector) - 1.0) <= 1e-12

    def test_zeroth_order_mode_uses_its_own_gradient(self):
        m = np.diag([3.0, 1.0])
        cfg = GameConfig(step_size=0.1, sigma=1e-3, grad_tolerance=1e-6,
                         max_iterations_per_player=5000)
        state = eigengame_player(m, MIX, [], cfg, mode="zeroth_order")
        assert state.converged
        # The sigma term biases the fixed point away from the axis by O(sigma).
        assert angular_error(state.vector, E1) < 1e-3

    def test_non_unit_init_rejected(self):
        cfg = GameConfig(step_size=0.1)
        with pytest.raises(NormalizationError):
            eigengame_player(M2, np.array([1.0, 1.0]), [], cfg)

    @pytest.mark.parametrize("init", [[np.nan, 0.0], [np.nan, np.nan]])
    @pytest.mark.parametrize("mode", ["exact", "zeroth_order"])
    def test_nan_init_rejected(self, init, mode):
        # A NaN init used to pass the norm check and fail later with NumericalOverflowError.
        cfg = GameConfig(step_size=0.1)
        with pytest.raises(NormalizationError):
            eigengame_player(M2, np.array(init), [], cfg, mode=mode)

    def test_one_iteration_is_a_step_along_the_public_gradient(self):
        m, v0, parents = random_problem(6, 3, seed=4)
        assert len(parents) == 3
        alpha = 0.05
        for mode, sigma in (("exact", 0.0), ("zeroth_order", 1e-2)):
            cfg = GameConfig(step_size=alpha, sigma=1e-2, grad_tolerance=1e-12,
                             max_iterations_per_player=1)
            state = eigengame_player(m, v0, parents, cfg, mode=mode)
            stepped = v0 + alpha * finite_diff_gradient(v0, parents, m, sigma)
            assert state.iterations_used == 1
            assert np.max(np.abs(state.vector - stepped / np.linalg.norm(stepped))) <= 1e-12

    def test_final_riemannian_norm_is_the_stop_test_norm(self):
        matrix, spectrum = build_powerlaw_hamiltonian(8, seed=2)
        m = matrix.real_symmetric()
        parents = [spectrum.eigenvector(0).real]
        init = np.ones(8) / np.sqrt(8.0)
        step = 1.0 / (2.0 * np.abs(spectrum.eigenvalues).max())
        converged = eigengame_player(m, init, parents, GameConfig(step_size=step, grad_tolerance=1e-6))
        budget = eigengame_player(
            m, init, parents,
            GameConfig(step_size=step, sigma=1e-3, grad_tolerance=1e-12, max_iterations_per_player=5),
            mode="zeroth_order",
        )
        assert converged.converged and not budget.converged and budget.iterations_used == 5
        for state, sigma in ((converged, 0.0), (budget, 1e-3)):
            g = finite_diff_gradient(state.vector, parents, m, sigma)
            expected = np.linalg.norm(g - (g @ state.vector) * state.vector)
            assert abs(state.final_riemannian_norm - expected) <= 1e-12

    def test_step_size_required(self):
        with pytest.raises(ValueError):
            eigengame_player(M2, E1, [], GameConfig())

    def test_non_finite_matrix_raises_overflow(self):
        m = np.diag([np.nan, 1.0])
        cfg = GameConfig(step_size=0.1, max_iterations_per_player=3)
        with pytest.raises(NumericalOverflowError):
            eigengame_player(m, E1, [], cfg, mode="exact")

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_gradient_entry_off_the_vector_raises(self, mode):
        # The NaN lands where E1 is zero, so only grad[1] is non-finite.
        m = np.array([[3.0, np.nan], [np.nan, 1.0]])
        cfg = GameConfig(step_size=0.1, max_iterations_per_player=3)
        with pytest.raises(NumericalOverflowError, match="gradient"):
            eigengame_player(m, E1, [], cfg, mode=mode)

    def test_residual_on_the_players_matrix(self):
        m, v0, parents = random_problem(6, 1, seed=5)
        cfg = GameConfig(step_size=0.05, max_iterations_per_player=7)
        state = eigengame_player(m, v0, parents, cfg, mode="exact")
        assert state.eigenvalue == pytest.approx(state.vector @ (m @ state.vector), abs=1e-14)
        assert abs(state.residual - residual(m, state)) <= 1e-12


class TestRunSequential:
    def test_four_axis_recovery(self):
        m = np.diag([3.0, 2.0, 1.0, 0.5])
        cfg = GameConfig(grad_tolerance=1e-4, num_players=4)
        result = run_sequential(m, cfg, seed=0, mode="exact")
        assert result.all_converged
        assert np.allclose(result.eigenvalues, [3.0, 2.0, 1.0, 0.5], atol=1e-3)
        for i, player in enumerate(result.players):
            axis = np.zeros(4)
            axis[i] = 1.0
            assert angular_error(player.vector, axis) < 1e-2

    def test_single_player_matches_direct_call(self):
        m = np.diag([3.0, 2.0, 1.0, 0.5])
        cfg = GameConfig(grad_tolerance=1e-4, num_players=1)
        result = run_sequential(m, cfg, seed=7, mode="exact")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(1, 0)))
        init = rng.standard_normal(4)
        init /= np.linalg.norm(init)
        direct = eigengame_player(m, init, [], GameConfig(step_size=1.0 / 6.0, grad_tolerance=1e-4),
                                  mode="exact")
        assert np.array_equal(result.players[0].vector, direct.vector)

    def test_powerlaw_instance_both_modes(self):
        # Oracle: the generator's sampled spectrum (verified against eigh elsewhere).
        matrix, spectrum = build_powerlaw_hamiltonian(8, seed=1, exponent=2.0)
        for mode in ("exact", "zeroth_order"):
            cfg = GameConfig(sigma=1e-5, grad_tolerance=1e-4, num_players=8)
            result = run_sequential(matrix, cfg, seed=1, mode=mode)
            assert result.all_converged
            assert np.max(np.abs(np.array(result.eigenvalues) - spectrum.eigenvalues)) <= 1e-3

    def test_determinism(self):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=2)
        cfg = GameConfig(grad_tolerance=1e-4, num_players=3)
        a = run_sequential(matrix, cfg, seed=5, mode="exact")
        b = run_sequential(matrix, cfg, seed=5, mode="exact")
        assert a.total_iterations == b.total_iterations
        for pa, pb in zip(a.players, b.players):
            assert np.array_equal(pa.vector, pb.vector)
            assert pa.iterations_used == pb.iterations_used

    def test_too_many_players_rejected(self):
        with pytest.raises(ValueError):
            run_sequential(M2, GameConfig(num_players=3), seed=0)

    def test_non_symmetric_input_rejected(self):
        with pytest.raises(HermiticityError):
            run_sequential(np.array([[2.0, 1.0], [0.0, 1.0]]), GameConfig(), seed=0)

    def test_complex_hermitian_input_rejected(self):
        # Its levels are (3 +- sqrt(5)) / 2; dropping the imaginary part gave [2, 1].
        m = np.array([[2.0, 1j], [-1j, 1.0]])
        with pytest.raises(HermiticityError):
            run_sequential(m, GameConfig(num_players=2), seed=0)
        with pytest.raises(HermiticityError):
            eigengame_player(m, E1, [], GameConfig(step_size=0.1))

    def test_complex_input_with_negligible_imaginary_part_accepted(self):
        m = np.array([[2.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 1.0]])
        result = run_sequential(m, GameConfig(num_players=2, grad_tolerance=1e-8), seed=0)
        assert result.all_converged
        assert np.allclose(result.eigenvalues, [(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2], atol=1e-8)

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros((0, 0)), np.ones(3)],
                             ids=["non_square", "empty", "vector"])
    def test_bad_shape_rejected(self, m):
        with pytest.raises(InvalidDimensionError):
            run_sequential(m, GameConfig(), seed=0)

    def test_only_array_inputs_are_checked(self, monkeypatch):
        calls = []
        original = eigengame_classical.check_hermitian

        def counting(entries):
            calls.append(entries.dtype)
            original(entries)

        monkeypatch.setattr(eigengame_classical, "check_hermitian", counting)
        matrix, _ = build_powerlaw_hamiltonian(6, seed=2)
        run_sequential(matrix, GameConfig(num_players=2), seed=0)
        assert calls == []  # validated when the HermitianMatrix was built
        run_sequential(matrix.real_symmetric(), GameConfig(num_players=2), seed=0)
        assert calls == [np.float64]  # once, on the real array

    def test_tiny_eigengap_warns(self):
        m = np.diag([1.0, 1.0 - 1e-8, 0.5])
        with pytest.warns(UserWarning):
            run_sequential(m, GameConfig(num_players=2, max_iterations_per_player=50), seed=0)

    def test_unconverged_players_are_solved_once_and_broadcast(self, monkeypatch):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=2)
        calls = []
        original = eigengame_classical.eigengame_player

        def counting(*args, **kwargs):
            calls.append(kwargs["index"])
            return original(*args, **kwargs)

        monkeypatch.setattr(eigengame_classical, "eigengame_player", counting)
        cfg = GameConfig(grad_tolerance=1e-6, max_iterations_per_player=5, num_players=3)
        result = run_sequential(matrix, cfg, seed=0)
        assert len(result.players) == 3
        assert not result.all_converged
        assert not any(p.converged for p in result.players)
        assert calls == [1, 2, 3]
        assert np.array_equal(result.players[1].parents[0].vector, result.players[0].vector)
        assert result.total_iterations == 15

    def test_operator_hash_unchanged(self):
        matrix, _ = build_powerlaw_hamiltonian(6, seed=2)
        result = run_sequential(matrix, GameConfig(num_players=2), seed=0)
        assert result.operator_hash_before == result.operator_hash_after

    def test_scheduler_rejects_a_mutated_operator(self):
        box = [0]

        def play(index, parents):
            box[0] += 1
            return None, index

        with pytest.raises(AssertionError):
            run_players(2, play, lambda: str(box[0]))


class TestInvariants:
    def test_gradient_consistency_randomized(self):
        # Forward quotient == closed form at 1e-8 relative across sigmas.
        for seed in range(20):
            m, v, parents = random_problem(7, 2, seed=seed)
            for sigma in (1e-1, 1e-2, 1e-3):
                numeric = numeric_forward_difference(v, parents, m, sigma)
                closed = finite_diff_gradient(v, parents, m, sigma)
                assert np.linalg.norm(numeric - closed) <= 1e-8 * max(1.0, np.linalg.norm(closed))

    def test_sigma_limit_linear_bound(self):
        # ||fd - exact|| <= sigma * (||diag(M)|| + sum_j ||M v_j||^2 / |r_j|)
        for seed in range(10):
            m, v, parents = random_problem(6, 2, seed=seed)
            coeff = np.linalg.norm(np.diag(m))
            for p in parents:
                mv = m @ p
                coeff += np.linalg.norm(mv) ** 2 / abs(p @ mv)
            for sigma in (1e-1, 1e-3):
                gap = np.linalg.norm(
                    finite_diff_gradient(v, parents, m, sigma) - exact_gradient(v, parents, m)
                )
                assert gap <= sigma * coeff + 1e-12

    def test_stationarity_at_exact_eigenvectors(self):
        matrix, spectrum = build_powerlaw_hamiltonian(8, seed=6)
        m = matrix.real_symmetric()
        for i in range(4):
            v = spectrum.eigenvector(i).real
            parents = [spectrum.eigenvector(j).real for j in range(i)]
            g = exact_gradient(v, parents, m)
            tangential = g - (g @ v) * v
            assert np.linalg.norm(tangential) <= 1e-9

    def test_parent_cache_matches_recomputation(self):
        m, _, parents = random_problem(6, 3, seed=9)
        for p in parents:
            cached = ParentVector.from_vector(m, p)
            assert abs(cached.rayleigh - p @ (m @ p)) <= 1e-12

    def test_parent_arrays_are_frozen(self):
        m, _, parents = random_problem(4, 1, seed=2)
        cached = ParentVector.from_vector(m, parents[0])
        with pytest.raises(ValueError):
            cached.vector[0] = 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(step_size=-0.1)
        with pytest.raises(ValueError):
            GameConfig(grad_tolerance=0.0)
        with pytest.raises(ValueError):
            GameConfig(num_players=0)
        with pytest.raises(ValueError):
            GameConfig(sigma=-1e-3)


class TestHeavyBall:
    def test_powerlaw_128_needs_few_iterations(self):
        matrix, spectrum = build_powerlaw_hamiltonian(128, seed=3)
        for mode in MODES:
            result = run_sequential(matrix, GameConfig(num_players=8, **STRICT), seed=0, mode=mode)
            assert result.all_converged
            assert result.total_iterations <= 6000
            for player in result.players:
                oracle = spectrum.eigenvector(player.index - 1).real
                assert angular_error(player.vector, oracle) <= 1e-2

    def test_near_degenerate_pair_converges(self):
        levels = np.array([1.0, 0.9, 0.8, 0.8 - 1e-5, 0.5, 0.4, 0.3, 0.2])
        m = matrix_with_spectrum(levels, random_orthonormal(8, 0))
        for mode in MODES:
            result = run_sequential(m, GameConfig(num_players=4, **STRICT), seed=0, mode=mode)
            assert result.all_converged
            assert np.max(np.abs(np.array(result.eigenvalues) - levels[:4])) <= 1e-6

    def test_budget_of_100_is_plain_ascent(self):
        m, v0, parents = random_problem(6, 3, seed=4)
        alpha = 0.05
        for mode, sigma in (("exact", 0.0), ("zeroth_order", 1e-2)):
            cfg = GameConfig(step_size=alpha, sigma=1e-2, grad_tolerance=1e-12,
                             max_iterations_per_player=100)
            state = eigengame_player(m, v0, parents, cfg, mode=mode)
            v = v0
            for _ in range(100):
                stepped = v + alpha * finite_diff_gradient(v, parents, m, sigma)
                v = stepped / np.linalg.norm(stepped)
            assert state.iterations_used == 100
            assert np.max(np.abs(state.vector - v)) <= 1e-12


class TestNonPositiveSpectra:
    """The game needs positive levels; ``run_sequential`` shifts the rest."""

    @pytest.mark.parametrize("levels", [
        [3.0, 1.0, -0.5, -1.0, -2.0, -3.0],
        [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0],
    ], ids=["indefinite", "negative_definite"])
    @pytest.mark.parametrize("mode", MODES)
    def test_top_levels_recovered(self, levels, mode):
        m = matrix_with_spectrum(levels, random_orthonormal(6, 1))
        result = run_sequential(m, GameConfig(num_players=4, **STRICT), seed=1, mode=mode)
        assert result.all_converged
        assert np.max(np.abs(np.array(result.eigenvalues) - levels[:4])) <= 1e-6
        assert max(residual(m, p) for p in result.players) <= 1e-4

    @pytest.mark.parametrize("levels", [
        [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        [3.0, 1.0, -0.5, -1.0, -2.0, -3.0],
        [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0],
    ], ids=["positive_definite", "indefinite", "negative_definite"])
    @pytest.mark.parametrize("mode", MODES)
    def test_residual_matches_dense_recomputation(self, levels, mode):
        m = matrix_with_spectrum(levels, random_orthonormal(6, 1))
        for cfg in (GameConfig(num_players=4, **STRICT),
                    GameConfig(num_players=4, max_iterations_per_player=5)):
            for operator in (m, HermitianMatrix(m)):
                result = run_sequential(operator, cfg, seed=1, mode=mode)
                for player in result.players:
                    assert abs(player.residual - residual(m, player)) <= 1e-12
                    if not player.converged:
                        assert player.residual > 1e-3  # a five-step budget is no eigenpair

    def test_randomized_against_dense_oracle(self):
        rng = np.random.default_rng(20)
        for draw in range(100):
            n = int(rng.integers(2, 17))
            k = int(rng.integers(1, min(4, n) + 1))
            levels = np.cumsum(rng.uniform(0.1, 1.0, size=n))[::-1]
            kind = draw % 3
            if kind == 0:  # indefinite
                levels = levels - rng.uniform(levels[-1], levels[0])
            elif kind == 1:  # negative definite
                levels = levels - levels[0] - rng.uniform(0.1, 1.0)
            m = matrix_with_spectrum(levels, random_orthonormal(n, draw))
            cfg = GameConfig(num_players=k, sigma=1e-6, grad_tolerance=1e-6,
                             max_iterations_per_player=20_000)
            for mode in MODES:
                result = run_sequential(m, cfg, seed=draw, mode=mode)
                for player, level in zip(result.players, levels):
                    if player.converged:
                        assert residual(m, player) <= 1e-4, (draw, mode, player.index)
                        assert abs(player.eigenvalue - level) <= 1e-4, (draw, mode, player.index)


@st.composite
def hard_spectra(draw):
    """(levels descending, k) with n = 2-12, k <= 4 and every leading gap at least 1e-4.

    Indefinite, negative-definite, shifted by a large constant, or with one
    near-degenerate leading pair.
    """
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(4, n)))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)))
    kind = draw(st.sampled_from(["indefinite", "negative_definite", "shifted", "near_degenerate"]))
    if kind == "near_degenerate":
        gaps[draw(st.integers(0, min(k, n - 1) - 1))] = draw(st.floats(1e-4, 1e-3))
    levels = -np.concatenate(([0.0], np.cumsum(gaps)))
    if kind == "indefinite":
        levels += draw(st.floats(0.1, 0.9)) * -levels[-1]
    elif kind == "negative_definite":
        levels -= draw(st.floats(0.1, 2.0))
    elif kind == "shifted":
        levels += draw(st.floats(-20.0, 20.0))
    return levels, k


class TestAgainstDenseEigh:
    """``run_sequential`` on hard spectra: a converged player is an eigenpair of the dense ``eigh``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(spectrum=hard_spectra(), basis_seed=st.integers(0, 2**16), mode=st.sampled_from(MODES))
    def test_converged_players_match_eigh(self, spectrum, basis_seed, mode):
        levels, k = spectrum
        m = matrix_with_spectrum(levels, random_orthonormal(levels.size, basis_seed))
        values, vectors = np.linalg.eigh(m)
        values, vectors = values[::-1], vectors[:, ::-1]
        cfg = GameConfig(num_players=k, sigma=1e-6, grad_tolerance=1e-6,
                         max_iterations_per_player=20_000)
        result = run_sequential(m, cfg, seed=basis_seed, mode=mode)
        assert result.all_converged  # every leading gap is at least 1e-4: well inside the budget
        for i, player in enumerate(result.players):
            r = residual(m, player)
            assert r <= 1e-4
            assert abs(player.eigenvalue - values[i]) <= 1e-4
            # Davis-Kahan: sin(angle) <= r / (distance of the Rayleigh quotient to the other
            # levels); the sine is the norm of v's part off the eigenvector, exact to rounding.
            others = np.delete(values, i)
            delta = np.abs(others - player.eigenvalue).min() if others.size else np.inf
            u = vectors[:, i]
            sine = np.linalg.norm(player.vector - (u @ player.vector) * u)
            assert sine <= r / delta + 1e-12


class TestInputValidation:
    def test_misspelled_mode_rejected(self):
        # "zeroth-order" used to run exact mode silently.
        m = np.diag([3.0, 2.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="mode"):
            run_sequential(m, GameConfig(num_players=2, sigma=0.1), seed=0, mode="zeroth-order")
        with pytest.raises(ValueError, match="mode"):
            eigengame_player(M2, E1, [], GameConfig(step_size=0.1), mode="exact_gradient")

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            run_sequential(np.zeros((3, 3)), GameConfig(num_players=1), seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_scheduler_rejects_no_players(self, k):
        def play(index, parents):
            raise AssertionError("no player may run")

        with pytest.raises(ValueError, match="at least one player"):
            run_players(k, play, lambda: "digest")
