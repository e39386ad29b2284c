"""Utility algebra, both gradient modes, and the sequential player loop."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigengames.errors import (
    DegenerateParentError,
    DimensionMismatchError,
    HermiticityError,
    InvalidDimensionError,
    NormalizationError,
    NumericalOverflowError,
)
from eigengames import eigengame_classical, hamiltonian
from eigengames.eigengame_classical import (
    ASCENT_WARMUP,
    GameConfig,
    HeavyBall,
    PlayerResult,
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
from eigengames.quantum_sim import layered_ansatz
from eigengames.theory_diagnostics import error_accumulation_bound_classical, error_accumulation_bound_quantum

from oracles import (
    InvalidPerturbationError,
    classical_error_term,
    classical_game_terms,
    identity_shifted,
    numeric_forward_difference,
    vector_eigengame_player,
)

M2 = np.diag([3.0, 1.0])
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
MIX = np.array([1.0, 1.0]) / np.sqrt(2.0)
MODES = ("exact", "zeroth_order")
# Tier-1 criterion 2's settings.
STRICT = dict(sigma=1e-6, grad_tolerance=1e-6, max_iterations_per_player=200_000)
# Entry points outside the game that read a dense operator through the same intake.
INTAKE_ENTRIES = ("bound_classical", "bound_quantum", "hermitian_matrix")


def intake_calls(m):
    return {
        "bound_classical": lambda: error_accumulation_bound_classical(m, [], [], 0.0),
        "bound_quantum": lambda: error_accumulation_bound_quantum(m, layered_ansatz(1, 1), [], []),
        "hermitian_matrix": lambda: HermitianMatrix(m),
    }


def matrix_with_spectrum(eigenvalues, basis):
    """P^T diag(eigenvalues) P, the convention of ``build_powerlaw_hamiltonian``."""
    m = basis.T @ np.diag(eigenvalues) @ basis
    return 0.5 * (m + m.T)


def residual(m, player):
    return float(np.linalg.norm(m @ player.vector - player.eigenvalue * player.vector))


def random_problem(dim, num_parents, seed, unit_parents=True):
    """Random symmetric matrix, unit child vector, and ``num_parents`` random unit parents."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = 0.5 * (a + a.T)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    parents = []
    while len(parents) < num_parents:
        p = rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        if p @ (m @ p) > 1e-3:  # a Rayleigh denominator positive and well away from zero
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

    def test_one_degenerate_row_of_a_parent_block_rejected(self):
        # The guard reads every row's Rayleigh quotient, here 1e-13 on the last row.
        m = np.diag([2.0, 1.0, -1.0])
        near_null = np.array([0.0, np.sqrt(0.5 + 5e-14), np.sqrt(0.5 - 5e-14)])
        block = np.array([[1.0, 0.0, 0.0], near_null])
        assert 0.0 < near_null @ m @ near_null < 1e-12
        with pytest.raises(DegenerateParentError):
            utility(np.array([0.0, 1.0, 0.0]), block, m)
        with pytest.raises(DegenerateParentError):
            eigengame_player(m, np.array([0.0, 1.0, 0.0]), block, GameConfig(step_size=0.1))

    def test_negative_parent_quotient_rejected(self):
        # Unshifted, an indefinite M gives the eigenvector of -2 the penalty
        # denominator -2, which would turn its penalty into a reward.
        basis = random_orthonormal(6, 1)
        m = matrix_with_spectrum([3.0, 1.0, -0.5, -1.0, -2.0, -3.0], basis)
        v, parents = basis[0], [basis[4]]
        for call in (lambda: utility(v, parents, m), lambda: exact_gradient(v, parents, m),
                     lambda: eigengame_player(m, v, parents, GameConfig(step_size=0.1))):
            with pytest.raises(DegenerateParentError, match="not positive"):
                call()


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
                # Not an eigenvector, and a Rayleigh denominator positive and well away from zero.
                if p @ mp > 1e-3 and np.linalg.norm(mp - (p @ mp) * p) > 1e-3:
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
            g = classical_game_terms(v0, parents, m)[1] + bias
            stepped = v0 + alpha * (g - (g @ v0) * v0)
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
            g = finite_diff_gradient(v0, parents, m, sigma)
            stepped = v0 + alpha * (g - (g @ v0) * v0)
            assert state.iterations_used == 1
            assert np.max(np.abs(state.vector - stepped / np.linalg.norm(stepped))) <= 1e-12

    def test_final_riemannian_norm_is_the_stop_test_norm(self):
        matrix, (levels, vectors) = build_powerlaw_hamiltonian(8, seed=2)
        m = matrix.entries
        parents = [vectors[:, 0]]
        init = np.ones(8) / np.sqrt(8.0)
        step = 1.0 / (2.0 * np.abs(levels).max())
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

    def test_overflowing_game_matrix_raises_overflow(self):
        # M is finite, but 2 alpha M = diag(inf, 2): the game matrix overflows.
        m = np.diag([1e308, 1.0])
        cfg = GameConfig(step_size=1.0, max_iterations_per_player=3)
        with pytest.raises(NumericalOverflowError):
            eigengame_player(m, E1, [], cfg, mode="exact")

    def test_overflowing_stop_threshold_raises_overflow(self):
        # (grad_tolerance * step)**2 = (1e-3 * 1e200)**2 is past the float range:
        # a bare OverflowError came from the float power.
        cfg = GameConfig(step_size=1e200, max_iterations_per_player=3)
        with pytest.raises(NumericalOverflowError, match=r"grad_tolerance 0\.001, step 1e\+200"):
            eigengame_player(M2, E1, [], cfg)

    def test_tiny_operator_raises_overflow_not_a_bare_error(self):
        # Entries near 1e-300 give a default step near 5e299, whose stop
        # threshold overflows when squared.
        with pytest.raises(NumericalOverflowError, match="stop threshold"):
            run_sequential(np.diag([1e-300, 3e-301, 1e-301]), GameConfig(num_players=3), seed=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_gradient_entry_off_the_vector_raises(self, mode):
        # 2 alpha M = diag(6, inf) overflows where E1 is zero, so only grad[1]
        # (inf * 0, NaN) is non-finite.
        m = np.diag([3.0, 1e308])
        cfg = GameConfig(step_size=1.0, max_iterations_per_player=3)
        with pytest.raises(NumericalOverflowError, match="gradient"):
            eigengame_player(m, E1, [], cfg, mode=mode)

    @pytest.mark.parametrize("init", [np.ones(3) / np.sqrt(3.0), E1[None, :]], ids=["wrong_length", "row"])
    def test_init_of_the_wrong_shape_rejected(self, init):
        # A length-3 init failed in NumPy's broadcast, and a (1, 2) one was accepted.
        with pytest.raises(DimensionMismatchError, match=r"init has shape .*, expected \(2,\)"):
            eigengame_player(M2, init, [], GameConfig(step_size=0.1))

    @pytest.mark.parametrize("parents, dim", [([np.ones(3) / np.sqrt(3.0)], 2), (np.eye(4)[:1].reshape(1, 2, 2), 4)],
                             ids=["wrong_length", "three_axes"])
    def test_parents_of_the_wrong_shape_rejected(self, parents, dim):
        # The first failed in a reshape; the second, P * n entries, was reshaped to (1, 4).
        m = np.diag(np.arange(dim, 0, -1.0))
        init = np.eye(dim)[1]
        with pytest.raises(DimensionMismatchError, match=rf"parents have shape .*, expected \(P, {dim}\)"):
            eigengame_player(m, init, parents, GameConfig(step_size=0.1))
        with pytest.raises(DimensionMismatchError):
            utility(init, parents, m)

    def test_residual_on_the_players_matrix(self):
        m, v0, parents = random_problem(6, 1, seed=5)
        cfg = GameConfig(step_size=0.05, max_iterations_per_player=7)
        state = eigengame_player(m, v0, parents, cfg, mode="exact")
        assert state.eigenvalue == pytest.approx(state.vector @ (m @ state.vector), abs=1e-14)
        assert abs(state.residual - residual(m, state)) <= 1e-12


class TestFusedIteration:
    """The player's three-call iteration against the whole-vector loop, and its rounding guards."""

    @staticmethod
    def stable_step(m, parents):
        """1 / ||2 G||_2, so that |v . w| <= 1 on any problem."""
        twice_game = np.column_stack([exact_gradient(e, parents, m) for e in np.eye(len(m))])
        return 1.0 / np.linalg.norm(twice_game, 2)

    @pytest.mark.parametrize("budget", [1, ASCENT_WARMUP, 60, None], ids=["1", "warm-up", "60", "converge"])
    @pytest.mark.parametrize("num_parents", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_vector_loop(self, mode, num_parents, budget):
        for seed in range(3):
            m, v0, parents = random_problem(7, num_parents, seed=20 + seed)
            cfg = GameConfig(step_size=self.stable_step(m, parents), sigma=1e-2,
                             grad_tolerance=1e-12 if budget else 1e-6,
                             max_iterations_per_player=budget or 200_000)
            fused = eigengame_player(m, v0, parents, cfg, mode=mode)
            vector = vector_eigengame_player(m, v0, parents, cfg, mode=mode)
            counts = ("iterations_used", "momentum_restarts", "converged", "stopped")
            assert [getattr(fused, c) for c in counts] == [getattr(vector, c) for c in counts]
            assert np.max(np.abs(fused.vector - vector.vector)) <= 1e-12
            assert abs(fused.final_riemannian_norm - vector.final_riemannian_norm) <= 1e-12
            assert fused.converged or budget

    @pytest.mark.parametrize("mode", MODES)
    def test_converged_only_on_the_explicit_tangent(self, mode):
        # At 1e-12 the estimate w.w - (v.w)^2 of ||t||^2 is all rounding
        # (about eps w.w, a tangent norm near 1e-8): only a formed tangent may pass.
        matrix, (levels, vectors) = build_powerlaw_hamiltonian(16, seed=0)
        m = matrix.entries
        parents = [vectors[:, 0]]
        alpha = 1.0 / (2.0 * np.abs(levels).max())
        sigma = 1e-3 if mode == "zeroth_order" else 0.0
        cfg = GameConfig(step_size=alpha, sigma=1e-3, grad_tolerance=1e-12, max_iterations_per_player=5000)
        converged = 0
        for seed in range(4):
            init = np.random.default_rng(seed).standard_normal(16)
            state = eigengame_player(m, init / np.linalg.norm(init), parents, cfg, mode=mode)
            if state.converged:
                w = alpha * finite_diff_gradient(state.vector, parents, m, sigma)
                tangent = w - (w @ state.vector) * state.vector
                assert np.linalg.norm(tangent) / alpha <= cfg.grad_tolerance
                assert state.final_riemannian_norm <= cfg.grad_tolerance
            converged += state.converged
        assert converged  # the check above ran

    @pytest.mark.parametrize("mode", MODES)
    def test_unit_norm_holds_over_a_long_budget(self, mode):
        # A negative-definite M keeps v . w < 0, where a norm assumed rather than
        # measured would grow by (1 - v . w)^2 per iteration.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        m = -(a @ a.T) - np.eye(8)
        v0 = rng.standard_normal(8)
        cfg = GameConfig(step_size=self.stable_step(m, []), sigma=1e-2, grad_tolerance=1e-300,
                         max_iterations_per_player=50_000)
        state = eigengame_player(m, v0 / np.linalg.norm(v0), [], cfg, mode=mode)
        assert state.iterations_used == 50_000 and not state.converged
        assert abs(np.linalg.norm(state.vector) - 1.0) <= 1e-12


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
        step = eigengame_classical.ascended_operator(m, 1)[2]  # 1 / (2 hi), hi about 3
        direct = eigengame_player(m, init, [], GameConfig(step_size=step, grad_tolerance=1e-4), mode="exact")
        assert np.array_equal(result.players[0].vector, direct.vector)

    def test_powerlaw_instance_both_modes(self):
        # Oracle: the generator's sampled spectrum (verified against eigh elsewhere).
        matrix, (levels, _) = build_powerlaw_hamiltonian(8, seed=1, exponent=2.0)
        for mode in ("exact", "zeroth_order"):
            cfg = GameConfig(sigma=1e-5, grad_tolerance=1e-4, num_players=8)
            result = run_sequential(matrix, cfg, seed=1, mode=mode)
            assert result.all_converged
            assert np.max(np.abs(np.array(result.eigenvalues) - levels)) <= 1e-3

    def test_determinism(self):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=2)
        cfg = GameConfig(grad_tolerance=1e-4, num_players=3)
        a = run_sequential(matrix, cfg, seed=5, mode="exact")
        b = run_sequential(matrix, cfg, seed=5, mode="exact")
        assert a.total_iterations == b.total_iterations
        for pa, pb in zip(a.players, b.players):
            assert np.array_equal(pa.vector, pb.vector)
            assert pa.iterations_used == pb.iterations_used

    @pytest.mark.parametrize("mode, sigma", [("exact", 0.0), ("zeroth_order", 1e-2)])
    def test_power_of_two_scaling_gives_the_same_players(self, mode, sigma):
        # M and the tolerance scaled by s = 2^j: the step scales by 1/s and
        # every float of the ascent by a power of two, so the players keep their bits.
        # At 2^-40 every parent quotient is below 1e-12: the denominator floor scales with M.
        matrix, _ = build_powerlaw_hamiltonian(32, seed=3)
        runs = [run_sequential(s * matrix.entries, GameConfig(num_players=4, sigma=sigma, grad_tolerance=1e-6 * s),
                               seed=0, mode=mode)
                for s in (2.0**-40, 2.0**-6, 1.0, 2.0**6)]
        assert runs[0].all_converged
        for run in runs[1:]:
            assert [p.iterations_used for p in run.players] == [p.iterations_used for p in runs[0].players]
            assert all(np.array_equal(p.vector, q.vector) for p, q in zip(run.players, runs[0].players))

    def test_too_many_players_rejected(self):
        with pytest.raises(ValueError, match=r"^k=3 players exceed the operator's dimension 2$"):
            run_sequential(M2, GameConfig(num_players=3), seed=0)

    @pytest.mark.filterwarnings("error")
    def test_too_many_players_rejected_before_the_eigengap_warning(self):
        # The eigengap warning read the count first: under -W error a near-degenerate
        # 2x2 at k = 3 raised the UserWarning instead of the count's ValueError.
        with pytest.raises(ValueError, match=r"^k=3 players exceed the operator's dimension 2$"):
            run_sequential(np.diag([1.0, 1.0 - 1e-8]), GameConfig(num_players=3), seed=0)

    def test_non_symmetric_input_rejected(self):
        with pytest.raises(HermiticityError):
            run_sequential(np.array([[2.0, 1.0], [0.0, 1.0]]), GameConfig(), seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_asymmetry_rejected_without_a_warning(self):
        # Finite entries whose M - M^T overflows: a RuntimeWarning used to
        # escape the check under -W error instead of the HermiticityError.
        with pytest.raises(HermiticityError, match="not Hermitian"):
            run_sequential(np.array([[0.0, 1e308], [-1e308, 0.0]]), GameConfig(), seed=0)

    @pytest.mark.parametrize("entry", ["player", "parent", "utility", "exact_gradient",
                                       "finite_diff_gradient", "finite_diff_error_term"])
    def test_non_symmetric_input_rejected_at_every_entry_point(self, entry):
        # Unchecked, the player "converged" at 1.998 on this M, whose symmetric
        # part has levels 4.05 and -1.05, and the exact gradient at e1 read
        # [4, 0] where that of v^T M v is [4, 5].
        m = np.array([[2.0, 5.0], [0.0, 1.0]])
        calls = {
            "player": lambda: eigengame_player(m, np.ones(2) / np.sqrt(2.0), [], GameConfig(step_size=0.05)),
            "parent": lambda: utility(E2, np.array([E1]), m),  # the parent block is read on M
            "utility": lambda: utility(E1, [], m),
            "exact_gradient": lambda: exact_gradient(E1, [], m),
            "finite_diff_gradient": lambda: finite_diff_gradient(E1, [], m, 0.1),
            "finite_diff_error_term": lambda: finite_diff_error_term([], m),
        }
        with pytest.raises(HermiticityError):
            calls[entry]()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        # The dense eigenvalues of diag(nan, 1) read [0, -0], and of diag(inf, 1) [nan, nan].
        with pytest.raises(HermiticityError, match="not finite"):
            run_sequential(np.diag([bad, 1.0]), GameConfig(), seed=0)
        with pytest.raises(HermiticityError, match="not finite"):  # rejected when built
            HermitianMatrix(np.diag([np.inf, 1.0]))

    @pytest.mark.parametrize("entry", ["run", "player", "utility", *INTAKE_ENTRIES])
    def test_nan_imaginary_part_rejected(self, entry):
        # max |Im M| > tol is False for NaN: the run used to drop it and return [3, 1], converged.
        m = np.array([[3.0, 0.0], [0.0, complex(1.0, np.nan)]])
        calls = {
            "run": lambda: run_sequential(m, GameConfig(num_players=2), seed=0),
            "player": lambda: eigengame_player(m, E1, [], GameConfig(step_size=0.1)),
            "utility": lambda: utility(E1, [], m),
            **intake_calls(m),
        }
        with pytest.raises(HermiticityError, match="not finite"):
            calls[entry]()

    @pytest.mark.parametrize("m", [np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]), np.array([1.0, np.nan])],
                             ids=["non_square", "vector"])
    @pytest.mark.parametrize("entry", ["run", "player", "utility", *INTAKE_ENTRIES])
    def test_bad_shape_with_a_nan_rejected(self, m, entry):
        # A NaN used to skip the shape check, and the player and utility failed inside NumPy.
        calls = {
            "run": lambda: run_sequential(m, GameConfig(), seed=0),
            "player": lambda: eigengame_player(m, E1, [], GameConfig(step_size=0.1)),
            "utility": lambda: utility(E1, [], m),
            **intake_calls(m),
        }
        with pytest.raises(InvalidDimensionError):
            calls[entry]()

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
        original = hamiltonian.check_hermitian

        def counting(entries):
            calls.append(entries.dtype)
            original(entries)

        matrix, _ = build_powerlaw_hamiltonian(6, seed=2)  # the build checks its matrix once, unpatched
        monkeypatch.setattr(hamiltonian, "check_hermitian", counting)
        run_sequential(matrix, GameConfig(num_players=2), seed=0)
        assert calls == []  # validated when the HermitianMatrix was built
        run_sequential(matrix.entries, GameConfig(num_players=2), seed=0)
        assert calls == [np.float64]  # once, on the real array

    @pytest.mark.filterwarnings("error")
    def test_tiny_eigengap_runs_without_a_warning(self):
        # No eigengap warning: the Lanczos run's interior Ritz values can show
        # gaps that are not there, and the solve reads no dense spectrum.
        m = np.diag([1.0, 1.0 - 1e-8, 0.5])
        result = run_sequential(m, GameConfig(num_players=2, max_iterations_per_player=50), seed=0)
        assert len(result.players) == 2

    def test_parent_block_is_the_earlier_players_vectors(self, monkeypatch):
        # Player j is solved against the vectors players 1..j-1 returned, bit
        # for bit, and keeps that block read-only.
        received = []
        original = eigengame_classical._ascend

        def recording(mat, init, parents, *args):
            received.append(np.array(parents))
            return original(mat, init, parents, *args)

        monkeypatch.setattr(eigengame_classical, "_ascend", recording)
        matrix, _ = build_powerlaw_hamiltonian(8, seed=2)
        result = run_sequential(matrix, GameConfig(grad_tolerance=1e-6, num_players=4), seed=0)
        for j, player in enumerate(result.players):
            earlier = np.array([p.vector for p in result.players[:j]]).reshape(j, 8)
            assert np.array_equal(received[j].reshape(j, 8), earlier)
            assert np.array_equal(player.parents, earlier) and player.parents.shape == (j, 8)
            assert not player.parents.flags.writeable

    def test_unconverged_players_are_solved_once_and_broadcast(self, monkeypatch):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=2)
        calls = []
        original = eigengame_classical._ascend

        def counting(mat, init, parents, cfg, mode, index):
            calls.append(index)
            return original(mat, init, parents, cfg, mode, index)

        monkeypatch.setattr(eigengame_classical, "_ascend", counting)
        cfg = GameConfig(grad_tolerance=1e-6, max_iterations_per_player=5, num_players=3)
        result = run_sequential(matrix, cfg, seed=0)
        assert len(result.players) == 3
        assert not result.all_converged
        assert not any(p.converged for p in result.players)
        assert calls == [1, 2, 3]
        assert np.array_equal(result.players[1].parents[0], result.players[0].vector)
        assert result.total_iterations == 15

    def test_operator_hash_unchanged(self):
        matrix, _ = build_powerlaw_hamiltonian(6, seed=2)
        result = run_sequential(matrix, GameConfig(num_players=2), seed=0)
        assert result.operator_hash_before == result.operator_hash_after

    def test_real_complex_and_array_inputs_give_bit_identical_players(self):
        # A real HermitianMatrix is read without a copy; its array, its complex128
        # twin and a Fortran-ordered copy must give the same run to the bit.
        matrix, _ = build_powerlaw_hamiltonian(32, seed=3)
        inputs = [matrix, matrix.entries, HermitianMatrix(matrix.entries.astype(complex)),
                  HermitianMatrix(np.asfortranarray(matrix.entries))]
        cfg = GameConfig(num_players=3, grad_tolerance=1e-6)
        results = [run_sequential(m, cfg, seed=0) for m in inputs]
        digest = hashlib.sha256(matrix.entries.tobytes()).hexdigest()
        for result in results:
            assert result.operator_hash_before == result.operator_hash_after == digest
            assert result.all_converged
            for p, q in zip(result.players, results[0].players, strict=True):
                assert p.vector.tobytes() == q.vector.tobytes()
                assert (p.eigenvalue, p.residual) == (q.eigenvalue, q.residual)
                assert (p.iterations_used, p.momentum_restarts, p.converged) == (
                    q.iterations_used, q.momentum_restarts, q.converged)

    def test_scheduler_rejects_a_mutated_operator(self):
        box = [0]

        def play(index, parents, eigenvalues):
            box[0] += 1
            return PlayerResult(index, np.zeros((0, 2)), E1)

        with pytest.raises(AssertionError):
            run_players(2, 2, play, lambda: str(box[0]))

    def test_scheduler_hands_each_player_every_earlier_vector_and_eigenvalue(self):
        # Converged or not, every earlier player is a parent of every later one.
        received = []

        def play(index, parents, eigenvalues):
            received.append((list(parents), list(eigenvalues)))
            return PlayerResult(index, np.zeros((0, 3)), np.full(3, float(index)), eigenvalue=10.0 * index,
                                iterations_used=index, converged=index != 2)

        result = run_players(3, 3, play, lambda: "digest")
        assert [len(vectors) for vectors, _ in received] == [0, 1, 2]
        vectors, eigenvalues = received[2]
        assert not result.players[1].converged and not result.all_converged
        assert all(v is p.vector for v, p in zip(vectors, result.players[:2], strict=True))
        assert eigenvalues == [10.0, 20.0] and received[1][1] == [10.0]
        assert result.eigenvalues == [10.0, 20.0, 30.0] and result.total_iterations == 6

    def test_scheduler_checks_the_player_count_before_anything_runs(self):
        def never(*args):
            raise AssertionError("the digest or a player ran")

        with pytest.raises(ValueError, match=r"^k=3 players exceed the operator's dimension 2$"):
            run_players(3, 2, never, never)


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
        matrix, (_, vectors) = build_powerlaw_hamiltonian(8, seed=6)
        m = matrix.entries
        for i in range(4):
            v = vectors[:, i]
            parents = [vectors[:, j] for j in range(i)]
            g = exact_gradient(v, parents, m)
            tangential = g - (g @ v) * v
            assert np.linalg.norm(tangential) <= 1e-9

    def test_parent_cache_matches_recomputation(self):
        # A parent's own utility against itself is v^T M v - (v^T M v)^2 / r, 0 exactly
        # when the Rayleigh quotient r the game divides by is v^T M v.
        m, _, parents = random_problem(6, 3, seed=9)
        for p in parents:
            assert abs(utility(p, np.array([p]), m)) <= 1e-12 * np.linalg.norm(m)

    def test_parent_arrays_are_frozen(self):
        m, v, parents = random_problem(4, 1, seed=2)
        block = np.array(parents)
        state = eigengame_player(m, v, block, GameConfig(step_size=0.05, max_iterations_per_player=3))
        assert np.array_equal(state.parents, block)
        with pytest.raises(ValueError):
            state.parents[0, 0] = 0.0
        block[0, 0] = 0.0  # the player keeps its own copy
        assert state.parents[0, 0] == parents[0][0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(step_size=-0.1)
        with pytest.raises(ValueError):
            GameConfig(grad_tolerance=0.0)
        with pytest.raises(ValueError):
            GameConfig(num_players=0)
        with pytest.raises(ValueError):
            GameConfig(sigma=-1e-3)

    @pytest.mark.parametrize("field", ["step_size", "sigma", "grad_tolerance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_config_values_rejected(self, field, value):
        # NaN passed every ``x <= 0`` test; an infinite step or sigma is no setting.
        with pytest.raises(ValueError):
            GameConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iterations_per_player", "num_players"])
    def test_fractional_counts_rejected(self, field):
        # Accepted when built, a count of 2.5 failed only later, with TypeError
        # inside a range or a slice.
        with pytest.raises(ValueError, match="whole number"):
            GameConfig(**{field: 2.5})
        with pytest.raises(ValueError, match="whole number"):
            GameConfig(**{field: 2.0})
        assert getattr(GameConfig(**{field: np.int64(2)}), field) == 2

    def test_numpy_integer_counts_run(self):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=0)
        cfg = GameConfig(num_players=np.int64(2), max_iterations_per_player=np.int32(5))
        assert len(run_sequential(matrix, cfg, seed=0).players) == 2


class TestHeavyBall:
    def test_powerlaw_128_needs_few_iterations(self):
        matrix, (_, vectors) = build_powerlaw_hamiltonian(128, seed=3)
        for mode in MODES:
            result = run_sequential(matrix, GameConfig(num_players=8, **STRICT), seed=0, mode=mode)
            assert result.all_converged
            assert result.total_iterations <= 6000
            for player in result.players:
                oracle = vectors[:, player.index - 1]
                assert angular_error(player.vector, oracle) <= 1e-2

    def test_near_degenerate_pair_converges(self):
        levels = np.array([1.0, 0.9, 0.8, 0.8 - 1e-5, 0.5, 0.4, 0.3, 0.2])
        m = matrix_with_spectrum(levels, random_orthonormal(8, 0))
        for mode in MODES:
            result = run_sequential(m, GameConfig(num_players=4, **STRICT), seed=0, mode=mode)
            assert result.all_converged
            assert np.max(np.abs(np.array(result.eigenvalues) - levels[:4])) <= 1e-6

    def test_warm_up_budget_is_plain_ascent(self):
        m, v0, parents = random_problem(6, 3, seed=4)
        alpha = 0.05
        for mode, sigma in (("exact", 0.0), ("zeroth_order", 1e-2)):
            cfg = GameConfig(step_size=alpha, sigma=1e-2, grad_tolerance=1e-12,
                             max_iterations_per_player=ASCENT_WARMUP)
            state = eigengame_player(m, v0, parents, cfg, mode=mode)
            v = v0
            for _ in range(ASCENT_WARMUP):
                g = finite_diff_gradient(v, parents, m, sigma)
                stepped = v + alpha * (g - (g @ v) * v)
                v = stepped / np.linalg.norm(stepped)
            assert state.iterations_used == ASCENT_WARMUP
            assert np.max(np.abs(state.vector - v)) <= 1e-12

    @pytest.mark.parametrize("budget", [1, ASCENT_WARMUP])
    def test_no_restart_within_the_warm_up(self, budget):
        m = matrix_with_spectrum([3.0, 1.0, -0.5, -1.0, -2.0, -3.0], random_orthonormal(6, 1))
        for mode in MODES:
            cfg = GameConfig(num_players=3, grad_tolerance=1e-12, max_iterations_per_player=budget)
            result = run_sequential(m, cfg, seed=1, mode=mode)
            assert [p.iterations_used for p in result.players] == [budget] * 3
            assert [p.momentum_restarts for p in result.players] == [0, 0, 0]

    def test_weight_schedule(self):
        ahead, back = 1.0, -1.0  # step . vel
        ball = HeavyBall()
        # Plain ascent through the warm-up, whichever way the step points.
        assert [ball.weight(t, back) for t in range(ASCENT_WARMUP)] == [0.0] * ASCENT_WARMUP
        assert ball.weight(ASCENT_WARMUP, ahead) == ASCENT_WARMUP / (ASCENT_WARMUP + 3.0)
        assert ball.weight(ASCENT_WARMUP + 1, back) == 0.0  # restart from rest
        assert [ball.weight(ASCENT_WARMUP + t, ahead) for t in (2, 3)] == [1 / 4, 2 / 5]
        assert ball.restarts == 1


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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", ["six_levels", "powerlaw_minus_half"])
    def test_shift_on_the_diagonal_matches_the_identity_formula(self, case, mode):
        # The shift is added to a copy's diagonal; players must ascend what
        # M + c I built with a dense identity gives them, c the runner's own shift.
        if case == "six_levels":
            m, k = matrix_with_spectrum([3.0, 1.0, -0.5, -1.0, -2.0, -3.0], random_orthonormal(6, 1)), 4
        else:  # levels 1-11 are positive and level 12 is -0.0032
            m, k = build_powerlaw_hamiltonian(32, seed=4)[0].entries - 0.5 * np.eye(32), 12
        _, shift, step = eigengame_classical.ascended_operator(m, k)
        shifted = m + shift * np.eye(len(m))
        assert np.linalg.eigvalsh(m)[0] < 0.0 < np.linalg.eigvalsh(shifted)[0]
        cfg = GameConfig(num_players=k, step_size=step, **STRICT)
        result = run_sequential(m, cfg, seed=1, mode=mode)
        reference = run_sequential(shifted, cfg, seed=1, mode=mode)  # positive definite: not shifted again
        assert result.all_converged
        for p, q in zip(result.players, reference.players, strict=True):
            assert p.iterations_used == q.iterations_used
            assert np.max(np.abs(p.vector - q.vector)) <= 1e-15

    @pytest.mark.parametrize("budget", [None, 5], ids=["solved", "budget"])
    def test_max_parent_overlap_matches_direct_products(self, budget):
        # Reported, not gating: max_j (v . v_j)^2 over the earlier players' vectors, 0 for player 1.
        m = matrix_with_spectrum([3.0, 1.0, -0.5, -1.0, -2.0, -3.0], random_orthonormal(6, 1))
        cfg = (GameConfig(num_players=4, **STRICT) if budget is None
               else GameConfig(num_players=4, max_iterations_per_player=budget))
        result = run_sequential(m, cfg, seed=1)
        assert result.all_converged == (budget is None)
        first, *rest = result.players
        assert first.max_parent_overlap == 0.0
        for i, player in enumerate(rest, start=1):
            vectors = np.array([p.vector for p in result.players[:i]])
            direct = float(np.max((vectors @ player.vector) ** 2))
            assert player.max_parent_overlap == pytest.approx(direct, rel=1e-12, abs=1e-15)
            if budget is None:
                assert player.max_parent_overlap <= 1e-8
        if budget is not None:
            assert max(p.max_parent_overlap for p in rest) > 1e-4  # a five-step budget leaves overlap

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


@st.composite
def ladder_spectra(draw):
    """(levels descending, k) with n = 2-24, k <= 4 and every leading gap at least 1e-4.

    Positive, indefinite, negative-definite, or with one near-degenerate leading pair.
    """
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, min(4, n)))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)))
    kind = draw(st.sampled_from(["positive", "indefinite", "negative_definite", "near_degenerate"]))
    if kind == "near_degenerate":
        gaps[draw(st.integers(0, min(k, n - 1) - 1))] = draw(st.floats(1e-4, 1e-3))
    levels = -np.concatenate(([0.0], np.cumsum(gaps)))
    if kind in ("positive", "near_degenerate"):
        levels -= levels[-1] - draw(st.floats(0.1, 2.0))
    elif kind == "indefinite":
        levels += draw(st.floats(0.1, 0.9)) * -levels[-1]
    else:
        levels -= draw(st.floats(0.1, 2.0))
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(spectrum=ladder_spectra(), basis_seed=st.integers(0, 2**16))
    def test_heavy_ball_converges_to_eigh_in_both_modes(self, spectrum, basis_seed):
        levels, k = spectrum
        m = matrix_with_spectrum(levels, random_orthonormal(levels.size, basis_seed))
        values, vectors = np.linalg.eigh(m)
        values, vectors = values[::-1], vectors[:, ::-1]
        cfg = GameConfig(num_players=k, sigma=1e-6, grad_tolerance=1e-6,
                         max_iterations_per_player=20_000)
        for mode in MODES:
            result = run_sequential(m, cfg, seed=basis_seed, mode=mode)
            assert result.all_converged, mode
            for i, player in enumerate(result.players):
                assert residual(m, player) <= 1e-4, (mode, i)
                assert abs(player.eigenvalue - values[i]) <= 1e-4, (mode, i)
                if np.abs(np.delete(values, i) - values[i]).min() >= 1e-2:  # a separated level
                    assert angular_error(player.vector, vectors[:, i]) <= 1e-2, (mode, i)


class TestAscentShift:
    """``ascended_operator``'s shift rule against the dense ``eigh``; a solve reads no dense spectrum."""

    @staticmethod
    def assert_recovered(m, k, mode):
        """Criterion 2's bar: every player converged, to within 1e-2 rad of ``eigh``'s eigenvector."""
        vectors = np.linalg.eigh(m)[1][:, ::-1]
        result = run_sequential(m, GameConfig(num_players=k, **STRICT), seed=1, mode=mode)
        assert result.all_converged
        for player in result.players:
            assert player.final_riemannian_norm <= 1e-3
            assert angular_error(player.vector, vectors[:, player.index - 1]) <= 1e-2

    def test_no_dense_spectrum_and_one_lanczos_run(self, monkeypatch):
        matrix, _ = build_powerlaw_hamiltonian(64, seed=2)
        shapes, runs = [], []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            def recording(a, *args, _original=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recording)
        lanczos = eigengame_classical.lanczos_enclosure

        def counted(matvec, dim, *args, **kwargs):
            runs.append(dim)
            return lanczos(matvec, dim, *args, **kwargs)

        monkeypatch.setattr(eigengame_classical, "lanczos_enclosure", counted)
        for mode in MODES:
            run_sequential(matrix, GameConfig(num_players=8, grad_tolerance=1e-4), seed=0, mode=mode)
        assert shapes and (64, 64) not in shapes  # the Lanczos run's j x j tridiagonals only
        assert runs == [64, 64]

    @pytest.mark.parametrize("lam_min", [1e-4, 1e-3, 1e-2, 0.5])
    def test_positive_definite_spectra_keep_no_shift(self, lam_min):
        rng = np.random.default_rng(int(1 / lam_min))
        for draw in range(10):
            n = int(rng.integers(2, 65))
            levels = np.concatenate(([lam_min], rng.uniform(lam_min, 1.0, n - 1)))
            m = matrix_with_spectrum(levels, random_orthonormal(n, draw))
            for k in (1, min(8, n), n):
                ascended, shift, _ = eigengame_classical.ascended_operator(m, k)
                assert shift == 0.0 and ascended is m, (draw, k)

    @pytest.mark.parametrize("n, spectrum_seed", [(64, 2), (128, 3), (256, 4)])
    def test_classical_workload_spectra_keep_no_shift(self, n, spectrum_seed):
        # The perfbench classical workload's spectra, each in two eigenbases.
        for basis_seed in (0, 1):
            matrix, (levels, _) = build_powerlaw_hamiltonian(n, seed=spectrum_seed, exponent=2.0,
                                                             basis=random_orthonormal(n, basis_seed))
            _, shift, step = eigengame_classical.ascended_operator(matrix.entries, 8)
            assert shift == 0.0
            assert abs(1.0 / (2.0 * step) - levels[0]) <= 2.0 * hamiltonian.RANGE_RESIDUAL_TOL * levels[0]

    @pytest.mark.parametrize("levels, k", [
        (-np.linspace(0.1, 2.0, 12), 4),
        ([2.0, 1.0, 0.5, -0.3, -1.0, -1.5, -2.0, -3.0], 4),
        ([2.0, 1.0, 0.5, -0.3, -1.0, -1.5, -2.0, -3.0], 5),
    ], ids=["negative_definite", "indefinite_kth_negative", "indefinite_beyond_the_positive_levels"])
    @pytest.mark.parametrize("mode", MODES)
    def test_a_non_positive_kth_level_is_shifted_and_recovered(self, levels, k, mode):
        m = matrix_with_spectrum(levels, random_orthonormal(len(levels), 2))
        lo, hi = np.linalg.eigvalsh(m)[[0, -1]]
        _, shift, step = eigengame_classical.ascended_operator(m, k)
        assert shift == pytest.approx(max(-lo, hi) - lo, rel=1e-12)  # the run is exhausted: [lo, hi] to rounding
        assert step == pytest.approx(1.0 / (2.0 * (hi + shift)), rel=1e-12)
        self.assert_recovered(m, k, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_indefinite_with_positive_top_levels_runs_unshifted(self, mode):
        levels = [2.0, 1.5, 1.0, 0.5, -0.5, -1.0, -2.0, -3.0]
        m = matrix_with_spectrum(levels, random_orthonormal(8, 2))
        ascended, shift, step = eigengame_classical.ascended_operator(m, 4)
        assert shift == 0.0 and ascended is m
        assert step == pytest.approx(1.0 / 6.0, rel=1e-12)  # 1 / (2 ||M||), ||M|| = -lambda_min = 3
        self.assert_recovered(m, 4, mode)

    def test_a_zero_level_within_reach_is_shifted(self):
        # The k-th Ritz value of a zero level is rounding of either sign: it must
        # exceed the rounding floor, or the last player's game matrix would be
        # zero and any start would pass the stop test.
        m = matrix_with_spectrum([2.0, 1.0, 0.0, 0.0, 0.0, 0.0], random_orthonormal(6, 0))
        assert eigengame_classical.ascended_operator(m, 2)[1] == 0.0
        assert eigengame_classical.ascended_operator(m, 3)[1] == pytest.approx(2.0, rel=1e-12)  # max(-lo, hi) - lo
        result = run_sequential(m, GameConfig(num_players=3, **STRICT), seed=0)
        assert result.all_converged
        assert max(residual(m, p) for p in result.players) <= 1e-5


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
        def play(index, parents, eigenvalues):
            raise AssertionError("no player may run")

        with pytest.raises(ValueError, match="k must be a whole number of at least 1"):
            run_players(k, 1, play, lambda: "digest")

    @pytest.mark.parametrize("entry", ["player", "utility", "exact_gradient", "finite_diff_gradient",
                                       "finite_diff_error_term"])
    def test_parent_off_unit_norm_rejected(self, entry):
        # The player converged against 3 e2 and reported a max_parent_overlap
        # of 1.18e-7, 9 times the true overlap with e2.
        m, parents = np.diag([3.0, 1.0, 0.5]), [3.0 * np.eye(3)[1]]
        v = np.array([0.6, 0.8, 0.0])
        calls = {
            "player": lambda: eigengame_player(m, v, parents, GameConfig(step_size=0.1)),
            "utility": lambda: utility(v, parents, m),
            "exact_gradient": lambda: exact_gradient(v, parents, m),
            "finite_diff_gradient": lambda: finite_diff_gradient(v, parents, m, 0.1),
            "finite_diff_error_term": lambda: finite_diff_error_term(parents, m),
        }
        with pytest.raises(NormalizationError, match=r"^parent state must be unit norm within 1e-09, off by 2$"):
            calls[entry]()
