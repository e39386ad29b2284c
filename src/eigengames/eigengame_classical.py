"""Sequential eigenvector games on real symmetric matrices.

Two gradient modes drive the same ascent loop: the exact utility gradient,
and its zeroth-order variant carrying the closed-form forward-differences
error term (linear in the perturbation sigma).  Players run in order; each
player broadcasts its vector and Rayleigh quotient to all later players,
which penalize alignment against it.  ``run_players`` is the scheduler the
quantum runners share.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .errors import (
    DegenerateParentError,
    DivergenceError,
    NormalizationError,
    NumericalOverflowError,
)
from .hamiltonian import HermitianMatrix, check_hermitian, real_part

RAYLEIGH_GUARD = 1e-12
# Plain-ascent steps before the heavy-ball weight is first estimated, and the
# interval between its later estimates.
MOMENTUM_WARMUP = 100
UNIT_NORM_ATOL = 1e-9

GradientMode = Literal["exact", "zeroth_order"]


def _as_real_symmetric(m) -> np.ndarray:
    """The real array the game runs on; a complex one must have a negligible imaginary part."""
    if isinstance(m, HermitianMatrix):
        return m.real_symmetric()
    return np.ascontiguousarray(real_part(np.asarray(m)), dtype=np.float64)


@dataclass(frozen=True)
class ParentVector:
    """A frozen earlier player: unit vector plus cached products it never recomputes."""

    vector: np.ndarray
    rayleigh: float          # v^T M v
    m_times_vector: np.ndarray

    @staticmethod
    def from_vector(m, vector: np.ndarray) -> "ParentVector":
        mat = _as_real_symmetric(m)
        vector = np.array(vector, dtype=np.float64)
        mv = mat @ vector
        rayleigh = float(vector @ mv)
        vector.flags.writeable = False
        mv.flags.writeable = False
        return ParentVector(vector=vector, rayleigh=rayleigh, m_times_vector=mv)


def _coerce_parents(m, parents) -> tuple[ParentVector, ...]:
    out = []
    for p in parents or ():
        if not isinstance(p, ParentVector):
            p = ParentVector.from_vector(m, p)
        if abs(p.rayleigh) < RAYLEIGH_GUARD:
            raise DegenerateParentError(
                f"parent Rayleigh quotient {p.rayleigh:.3e} is below the division guard"
            )
        out.append(p)
    return tuple(out)


@dataclass
class PlayerState:
    """One player's solve: final vector, its frozen parents, and the stop-test norm.

    ``eigenvalue`` is v^T M v and ``residual`` the eigen-residual
    ||M v - eigenvalue v||, both on the player's matrix; ``run_sequential``
    reads them again on the caller's M.
    """

    index: int
    vector: np.ndarray
    parents: tuple[ParentVector, ...]
    eigenvalue: float = float("nan")
    residual: float = float("nan")
    iterations_used: int = 0
    converged: bool = False
    final_riemannian_norm: float = float("nan")

    def read_out(self, m: np.ndarray) -> None:
        """Set ``eigenvalue`` and ``residual`` of the final vector on M, from one matvec."""
        mv = m @ self.vector
        self.eigenvalue = float(self.vector @ mv)
        self.residual = float(np.linalg.norm(mv - self.eigenvalue * self.vector))


@dataclass(frozen=True)
class GameConfig:
    """Hyperparameters shared by every player of one run.

    ``step_size`` is the step on the matrix the players ascend, which
    ``run_sequential`` shifts to M + c I when M has a non-positive eigenvalue.
    ``None`` lets ``run_sequential`` pick 1 / (2 (lambda_max + c)), read from
    the dense eigenvalues (1 / (2 ||M||_2) for positive-definite M);
    ``eigengame_player`` needs it set.
    """

    step_size: float | None = None
    sigma: float = 0.0
    grad_tolerance: float = 1e-3
    max_iterations_per_player: int = 100_000
    num_players: int = 1

    def __post_init__(self):
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be positive")
        if self.max_iterations_per_player < 1:
            raise ValueError("max_iterations_per_player must be at least 1")
        if self.num_players < 1:
            raise ValueError("num_players must be at least 1")


def _parent_block(parents: tuple[ParentVector, ...], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The parents as one block: (P, n) products M v_j and (P,) Rayleigh quotients."""
    mvs = np.array([p.m_times_vector for p in parents]).reshape(len(parents), dim)
    return mvs, np.array([p.rayleigh for p in parents])


def _twice_game_matrix(mat: np.ndarray, parents: tuple[ParentVector, ...]) -> np.ndarray:
    """2 G, with G = M - sum_j (M v_j)(M v_j)^T / v_j^T M v_j the player's game matrix.

    With the parents frozen, the utility v^T M v - sum_j (v^T M v_j)^2 / v_j^T M v_j
    is the quadratic form v^T G v: its exact gradient is 2 G v and the
    forward-differences error term is diag(G).  One (n, P) x (P, n) product.
    """
    mvs, rayleighs = _parent_block(parents, mat.shape[0])
    return 2.0 * mat - (2.0 * mvs.T) @ (mvs / rayleighs[:, None])


def _twice_game_matrix_of(parents, m) -> np.ndarray:
    mat = _as_real_symmetric(m)
    return _twice_game_matrix(mat, _coerce_parents(mat, parents))


def utility(v: np.ndarray, parents, m) -> float:
    """Player utility: v^T M v - sum_j (v^T M v_j)^2 / v_j^T M v_j = v^T G v."""
    v = np.asarray(v, dtype=np.float64)
    return 0.5 * float(v @ (_twice_game_matrix_of(parents, m) @ v))


def exact_gradient(v: np.ndarray, parents, m) -> np.ndarray:
    """2 G v = 2 (M v - sum_j c_j M v_j), with c_j = v^T M v_j / v_j^T M v_j."""
    return _twice_game_matrix_of(parents, m) @ np.asarray(v, dtype=np.float64)


def finite_diff_error_term(parents, m) -> np.ndarray:
    """sigma-independent part of the forward-differences error: diag(G) = diag(M) - sum_j (M v_j)^{o2} / v_j^T M v_j.

    Constant in the player's own vector, so solvers compute it once per player.
    """
    return 0.5 * np.diag(_twice_game_matrix_of(parents, m))


def finite_diff_gradient(v: np.ndarray, parents, m, sigma: float) -> np.ndarray:
    """Closed form of the forward-differences gradient: exact gradient + sigma * error term."""
    twice_game = _twice_game_matrix_of(parents, m)
    return twice_game @ np.asarray(v, dtype=np.float64) + sigma * (0.5 * np.diag(twice_game))


def angular_error(v: np.ndarray, v_star: np.ndarray) -> float:
    """arccos of the absolute inner product; invariant to sign and global phase."""
    v = np.asarray(v)
    v_star = np.asarray(v_star)
    for name, x in (("v", v), ("v_star", v_star)):
        if not abs(np.linalg.norm(x) - 1.0) <= 1e-6:  # a NaN norm fails too
            raise NormalizationError(f"{name} is not unit norm")
    return float(np.arccos(min(1.0, abs(complex(np.vdot(v, v_star))))))


def eigengame_player(
    m,
    init: np.ndarray,
    parents,
    cfg: GameConfig,
    mode: GradientMode = "exact",
    index: int = 1,
) -> PlayerState:
    """Run one player's heavy-ball ascent until the gradient is radial.

    Each step is w = v + alpha g - (beta / s_prev) v_old, v <- w / s with
    s = ||w||: the normalized form of the momentum power iteration
    w_{t+1} = B w_t - beta w_{t-1} on the game's B = I + 2 alpha M P, which
    needs about 1/sqrt(gap) steps where plain ascent needs 1/gap (Xu et al.,
    *Accelerated Stochastic Power Iteration*, AISTATS 2018).  beta is 0 for
    the first ``MOMENTUM_WARMUP`` steps, so a budget of at most that many is
    plain ascent v <- normalize(v + alpha g).  Every ``MOMENTUM_WARMUP``
    steps after that, beta <- max(beta, clip(mu2, 0, mu1)^2 / 4), with
    mu1 = 1 + alpha g.v estimating B's top eigenvalue and mu2 = 1 + alpha u.(2 G u)
    its next one, u the unit tangent of the stop test; no eigensolver is called.

    The parents are frozen, so the player's game matrix
    G = M - sum_j (M v_j)(M v_j)^T / v_j^T M v_j is built once, as 2 G, before
    the loop: the exact gradient is 2 G v and the utility v^T G v.  Each
    iteration is one matvec on 2 G, each momentum estimate one more, and
    M v is formed once, at exit, for the eigenvalue and residual.  The price
    is one extra n x n array for as long as the player runs.

    The stopping test is on the tangential (Riemannian) norm of the mode's own
    gradient, ||(I - v v^T) g||, which vanishes at the ascent's fixed points;
    the last value tested is kept as ``final_riemannian_norm``.  The step is
    ``cfg.step_size``, which must be set (``run_sequential`` picks its default).
    """
    if cfg.step_size is None:
        raise ValueError("eigengame_player needs cfg.step_size; run_sequential picks the default")
    if mode not in ("exact", "zeroth_order"):
        raise ValueError(f"mode must be 'exact' or 'zeroth_order', got {mode!r}")
    mat = _as_real_symmetric(m)
    parents = _coerce_parents(mat, parents)
    v = np.asarray(init, dtype=np.float64).copy()
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_NORM_ATOL:  # a NaN norm fails too
        raise NormalizationError("init vector must be unit norm")

    twice_game = _twice_game_matrix(mat, parents)
    bias = cfg.sigma * (0.5 * np.diag(twice_game)) if mode == "zeroth_order" else None
    state = PlayerState(index=index, vector=v, parents=parents)
    alpha = cfg.step_size
    beta = 0.0
    v_old, s_prev = v, 1.0

    for _ in range(cfg.max_iterations_per_player + 1):
        grad = twice_game @ v
        radial = float(grad @ v)  # twice the utility v^T G v
        value = 0.5 * radial
        if bias is not None:
            grad += bias
            radial = float(grad @ v)

        # One non-finite entry of grad makes grad . v non-finite too (inf * 0 is
        # NaN), so the scalars gate the array scan that names the failure.
        if not (math.isfinite(radial) and math.isfinite(value)):
            if not np.all(np.isfinite(grad)):
                raise NumericalOverflowError("gradient stopped being finite")
            raise NumericalOverflowError("utility stopped being finite")

        tangent = grad - radial * v
        state.final_riemannian_norm = math.sqrt(tangent @ tangent)
        if state.final_riemannian_norm <= cfg.grad_tolerance:
            state.converged = True
            break
        if state.iterations_used >= cfg.max_iterations_per_player:
            break

        if state.iterations_used and state.iterations_used % MOMENTUM_WARMUP == 0:
            u = tangent / state.final_riemannian_norm
            mu1 = 1.0 + alpha * radial
            mu2 = 1.0 + alpha * float(u @ (twice_game @ u))
            beta = max(beta, min(max(mu2, 0.0), mu1) ** 2 / 4.0)

        stepped = v + alpha * grad
        if beta:
            stepped -= (beta / s_prev) * v_old
        s_prev = math.sqrt(stepped @ stepped)
        if s_prev < 1e-300:
            raise DivergenceError("update produced a zero vector")
        v_old, v = v, stepped / s_prev
        state.iterations_used += 1

    state.vector = v
    state.read_out(mat)
    return state


@dataclass
class SequentialResult:
    """All players of one sequential run, in solve order.

    ``players`` holds the runner's own player records (``PlayerState`` or
    ``QuantumPlayerState``); the operator hashes bracket the run.
    """

    players: list
    eigenvalues: list[float]
    total_iterations: int
    all_converged: bool
    operator_hash_before: str
    operator_hash_after: str


def run_players(k: int, play: Callable, digest: Callable[[], str]) -> SequentialResult:
    """The sequential scheduler every runner shares.

    Players 1..k (k >= 1) are solved once each, in order.  ``play(index, parents)``
    solves one player against the tuple of earlier parents and returns
    ``(state, parent)``; the parent is broadcast to every later player
    whether or not the player converged, and ``all_converged`` reports any
    miss.  ``digest()`` hashes the operator before and after the run: no
    player may rewrite it.
    """
    if k < 1:
        raise ValueError(f"need at least one player, got k={k}")
    hash_before = digest()
    players = []
    parents = []
    for index in range(1, k + 1):
        state, parent = play(index, tuple(parents))
        players.append(state)
        parents.append(parent)
    hash_after = digest()
    if hash_after != hash_before:
        raise AssertionError("input operator mutated during the run")
    return SequentialResult(
        players=players,
        eigenvalues=[p.eigenvalue for p in players],
        total_iterations=sum(p.iterations_used for p in players),
        all_converged=all(p.converged for p in players),
        operator_hash_before=hash_before,
        operator_hash_after=hash_after,
    )


def run_sequential(
    m,
    cfg: GameConfig,
    seed: int,
    mode: GradientMode = "exact",
) -> SequentialResult:
    """Solve players 1..k in order with ``run_players``, each from its own seeded start.

    The game recovers eigenvector i only if lambda_i > 0: otherwise its
    gradient vanishes on the parents' span.  So when the smallest eigenvalue
    is not positive, the players ascend M + c I with c = ||M||_2 - lambda_min,
    whose every eigenvalue is at least ||M||_2; positive-definite inputs get
    c = 0.  Players and their broadcast parents use the shifted matrix;
    eigenvalues and residuals are read on M.  The dense eigenvalues, computed
    once, give c, the default step 1 / (2 (lambda_max + c)) and the
    leading-eigengap warning; no eigenvector enters the solve.  The zero
    matrix is rejected: it has no leading eigenvectors and no step size.
    """
    mat = _as_real_symmetric(m)
    if not isinstance(m, HermitianMatrix):  # a HermitianMatrix was checked when built
        check_hermitian(mat)
    dim = mat.shape[0]
    if cfg.num_players > dim:
        raise ValueError(f"num_players {cfg.num_players} exceeds matrix dimension {dim}")

    if not mat.any():
        raise ValueError("the zero matrix has no leading eigenvectors: every unit vector is one")
    eigenvalues = np.linalg.eigvalsh(mat)
    gaps = np.diff(eigenvalues)[::-1]  # descending order, leading gap first
    if gaps.size and gaps[: cfg.num_players].min() < 1e-6:
        warnings.warn("leading eigengaps below 1e-6; convergence may be ill-conditioned", stacklevel=2)

    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    shift = max(abs(lam_min), abs(lam_max)) - lam_min if lam_min <= 0 else 0.0
    game = mat + shift * np.eye(dim) if shift else mat
    if cfg.step_size is None:
        cfg = replace(cfg, step_size=1.0 / (2.0 * (lam_max + shift)))

    def play(i: int, parents: tuple[ParentVector, ...]) -> tuple[PlayerState, ParentVector]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i, 0)))
        init = rng.standard_normal(dim)
        init /= np.linalg.norm(init)
        state = eigengame_player(game, init, parents, cfg, mode=mode, index=i)
        state.read_out(mat)
        return state, ParentVector.from_vector(game, state.vector)

    return run_players(cfg.num_players, play, lambda: hashlib.sha256(mat.tobytes()).hexdigest())

