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
from .hamiltonian import HermitianMatrix

RAYLEIGH_GUARD = 1e-12
# Plain-ascent steps before the heavy-ball weight is first estimated, and the
# interval between its later estimates.
MOMENTUM_WARMUP = 100
UNIT_NORM_ATOL = 1e-9

GradientMode = Literal["exact", "zeroth_order"]


def _as_real_symmetric(m) -> np.ndarray:
    if isinstance(m, HermitianMatrix):
        return m.real_symmetric()
    a = np.asarray(m, dtype=np.float64)
    return a


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
    """One player's solve: final vector, its frozen parents, and the stop-test norm."""

    index: int
    vector: np.ndarray
    parents: tuple[ParentVector, ...]
    eigenvalue: float = float("nan")
    iterations_used: int = 0
    converged: bool = False
    final_riemannian_norm: float = float("nan")


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


def _game_terms(mat, v, mvs, rayleighs) -> tuple[np.ndarray, np.ndarray, float]:
    """(M v, exact gradient, utility) of v against the parent block (``_parent_block``).

    The one expression of each: with c_j = v^T M v_j / v_j^T M v_j, the gradient
    is 2 (M v - sum_j c_j M v_j) and the utility v^T M v - sum_j c_j v^T M v_j.
    """
    mv = mat @ v
    cross = mvs @ v
    weights = cross / rayleighs
    return mv, 2.0 * (mv - weights @ mvs), float(v @ mv - cross @ weights)


def _terms_at(v: np.ndarray, parents, m) -> tuple[np.ndarray, np.ndarray, float]:
    mat = _as_real_symmetric(m)
    v = np.asarray(v, dtype=np.float64)
    return _game_terms(mat, v, *_parent_block(_coerce_parents(mat, parents), v.size))


def utility(v: np.ndarray, parents, m) -> float:
    """Player utility: v^T M v minus alignment penalties against frozen parents."""
    return _terms_at(v, parents, m)[2]


def exact_gradient(v: np.ndarray, parents, m) -> np.ndarray:
    """2 M (v - sum_j c_j v_j) = 2 (M v - sum_j c_j M v_j), with c_j = v^T M v_j / v_j^T M v_j."""
    return _terms_at(v, parents, m)[1]


def finite_diff_error_term(parents, m) -> np.ndarray:
    """sigma-independent part of the forward-differences error: diag(M) - sum_j (M v_j)^{o2} / v_j^T M v_j.

    Constant in the player's own vector, so solvers compute it once per player.
    """
    mat = _as_real_symmetric(m)
    mvs, rayleighs = _parent_block(_coerce_parents(mat, parents), mat.shape[0])
    return np.diag(mat) - np.sum(mvs**2 / rayleighs[:, None], axis=0)


def finite_diff_gradient(v: np.ndarray, parents, m, sigma: float) -> np.ndarray:
    """Closed form of the forward-differences gradient: exact gradient + sigma * error term."""
    return exact_gradient(v, parents, m) + sigma * finite_diff_error_term(parents, m)


def angular_error(v: np.ndarray, v_star: np.ndarray) -> float:
    """arccos of the absolute inner product; invariant to sign and global phase."""
    v = np.asarray(v)
    v_star = np.asarray(v_star)
    for name, x in (("v", v), ("v_star", v_star)):
        if abs(np.linalg.norm(x) - 1.0) > 1e-6:
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
    mu1 = 1 + alpha g.v estimating B's top eigenvalue and mu2 = 1 + alpha u.G(u)
    its next one, u the unit tangent of the stop test and G the game's linear
    part without the sigma term; no eigensolver is called.

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
    if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_ATOL:
        raise NormalizationError("init vector must be unit norm")

    mvs, rayleighs = _parent_block(parents, v.size)
    bias = cfg.sigma * finite_diff_error_term(parents, mat) if mode == "zeroth_order" else None
    state = PlayerState(index=index, vector=v, parents=parents)
    alpha = cfg.step_size
    beta = 0.0
    v_old, s_prev = v, 1.0

    for _ in range(cfg.max_iterations_per_player + 1):
        mv, grad, value = _game_terms(mat, v, mvs, rayleighs)
        if bias is not None:
            grad += bias

        if not np.all(np.isfinite(grad)):
            raise NumericalOverflowError("gradient stopped being finite")
        if not math.isfinite(value):
            raise NumericalOverflowError("utility stopped being finite")

        radial = float(grad @ v)
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
            mu2 = 1.0 + 2.0 * alpha * _game_terms(mat, u, mvs, rayleighs)[2]
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
    state.eigenvalue = float(v @ mv)  # every exit leaves mv = M v for the final v
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
    eigenvalues are read on M.  The dense eigenvalues, computed once, give
    c, the default step 1 / (2 (lambda_max + c)) and the leading-eigengap
    warning; no eigenvector enters the solve.  The zero matrix is rejected:
    it has no leading eigenvectors and no step size.
    """
    mat = _as_real_symmetric(m)
    HermitianMatrix(mat)  # raises HermiticityError on a non-symmetric input
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
        state.eigenvalue = float(state.vector @ (mat @ state.vector))
        return state, ParentVector.from_vector(game, state.vector)

    return run_players(cfg.num_players, play, lambda: hashlib.sha256(mat.tobytes()).hexdigest())

