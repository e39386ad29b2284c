"""Sequential eigenvector games on real symmetric matrices.

Two gradient modes drive the same ascent loop: the exact utility gradient,
and its zeroth-order variant carrying the closed-form forward-differences
error term (linear in the perturbation sigma).  Players run in order; each
later player takes the earlier players' vectors as its frozen parents, one
(P, n) block, and penalizes alignment against them.  ``run_players`` states
that sequential policy once, for the quantum runners too, and
``_parent_block`` is every player's one parent intake.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Literal

import numpy as np

from .errors import (
    DegenerateParentError,
    DimensionMismatchError,
    HermiticityError,
    NumericalOverflowError,
    real_number,
    unit_norm,
    whole_number,
)
from .hamiltonian import HERMITICITY_ATOL, LANCZOS_TOL, hermitian_array, lanczos_enclosure

if TYPE_CHECKING:
    from .quantum_sim import ParameterTensor

RAYLEIGH_GUARD = 1e-12
# Plain-ascent steps before either ascent loop carries its heavy-ball velocity.
ASCENT_WARMUP = 20
UNIT_NORM_ATOL = 1e-9

GradientMode = Literal["exact", "zeroth_order"]


def _as_symmetric_array(m) -> np.ndarray:
    """The real symmetric, C-ordered float64 array the game runs on, read through ``hermitian_array``.

    The intake's checks hold (a non-square input raises
    ``InvalidDimensionError``, and one with a non-finite entry or not
    Hermitian ``HermiticityError``); a real ``HermitianMatrix`` or C-ordered
    float64 array is not copied.  On top of them, complex entries must have
    an imaginary part within ``HERMITICITY_ATOL`` of zero, or
    ``HermiticityError`` is raised: the game's real ascent would drop it.
    """
    entries = hermitian_array(m)
    if np.iscomplexobj(entries):
        if not np.abs(entries.imag).max() <= HERMITICITY_ATOL:  # a NaN fails too
            raise HermiticityError("matrix has a non-negligible imaginary part")
        entries = entries.real
    return np.ascontiguousarray(entries, dtype=np.float64)


@dataclass(slots=True)
class HeavyBall:
    """The heavy-ball rule both ascent loops share: beta_t = t/(t + 3) with gradient restart.

    t counts steps since the start or the last restart.  A restart (beta and t
    back to 0, counted in ``restarts``) happens when the new step points
    against the velocity (O'Donoghue & Candes, *Adaptive Restart for
    Accelerated Gradient Schemes*, FoCM 15, 2015), which reads only the inner
    product step . vel the loop already has.  The first ``ASCENT_WARMUP``
    steps are plain ascent: beta 0 and no restart.
    """

    steps: int = 0
    restarts: int = 0

    def weight(self, iteration: int, along: float) -> float:
        """The velocity weight of step ``iteration`` (0-based), given ``along`` = step . vel."""
        if iteration < ASCENT_WARMUP:
            beta = 0.0
        elif along < 0.0:  # the step turned against the velocity: restart from rest
            beta, self.steps = 0.0, 0
            self.restarts += 1
        else:
            beta = self.steps / (self.steps + 3.0)
        self.steps += 1
        return beta


def _parent_block(parents, dim: int, dtype, atol: float) -> np.ndarray:
    """The parents as one read-only (P, dim) block of unit rows, copied from a block or a list of P vectors.

    The one intake of every parent block, classical (float64, ``UNIT_NORM_ATOL``)
    or quantum (complex128, ``quantum_sim.NORM_ATOL``): the penalties scale
    with each parent's squared norm.  Any other shape, a ragged list
    included, raises ``DimensionMismatchError``, and a row off unit norm by
    more than ``atol`` (``errors.unit_norm``; NaN and inf too)
    ``NormalizationError``.  Each squared norm is a sum of squares over the
    float64 view, as ``quantum_sim.check_unit_rows`` reads it.
    """
    try:
        block = np.array(parents, dtype=dtype)
    except ValueError as err:  # NumPy's "inhomogeneous shape" for a ragged list
        raise DimensionMismatchError(f"parents do not form one block, expected (P, {dim}): {err}") from err
    if block.shape == (0,):  # an empty list
        block = block.reshape(0, dim)
    if block.ndim != 2 or block.shape[1] != dim:
        raise DimensionMismatchError(f"parents have shape {block.shape}, expected (P, {dim})")
    parts = block.view(np.float64)
    unit_norm("parent state", np.vecdot(parts, parts), atol)
    block.flags.writeable = False
    return block


@dataclass(frozen=True)
class GameConfig:
    """Hyperparameters shared by every player of one run.

    ``step_size`` is the step on the matrix the players ascend, which
    ``run_sequential`` shifts to M + c I unless the Lanczos run's k-th
    largest Ritz value shows M's top k levels positive
    (``ascended_operator``).  ``None`` lets ``run_sequential`` pick
    1 / (2 max(hi + c, -lo - c)) on that run's enclosure [lo, hi] of M's
    spectrum (about 1 / (2 ||M||_2) for positive-definite M);
    ``eigengame_player`` needs it set.  ``max_iterations_per_player`` and
    ``num_players`` are whole numbers of at least 1 (``errors.whole_number``);
    ``step_size`` and ``grad_tolerance`` are positive and ``sigma``
    non-negative, each a finite real number (``errors.real_number``).
    """

    step_size: float | None = None
    sigma: float = 0.0
    grad_tolerance: float = 1e-3
    max_iterations_per_player: int = 100_000
    num_players: int = 1

    def __post_init__(self):
        whole_number("max_iterations_per_player", self.max_iterations_per_player)
        whole_number("num_players", self.num_players)
        if self.step_size is not None:
            real_number("step_size", self.step_size, "positive")
        real_number("sigma", self.sigma, "non-negative")
        real_number("grad_tolerance", self.grad_tolerance, "positive")


def _twice_game_matrix(mat: np.ndarray, parents, scale: float = 1.0) -> np.ndarray:
    """scale 2 G, with G = M - sum_j (M v_j)(M v_j)^T / v_j^T M v_j the player's game matrix.

    With the parents frozen, the utility v^T M v - sum_j (v^T M v_j)^2 / v_j^T M v_j
    is the quadratic form v^T G v: its exact gradient is 2 G v and the
    forward-differences error term is diag(G).  ``parents`` is the (P, n)
    block of the v_j: one product with it gives every M v_j, and their
    Rayleigh quotients follow from those rows; a quotient below
    ``RAYLEIGH_GUARD`` in magnitude raises ``DegenerateParentError``.  The
    (n, P) x (P, n) penalty is subtracted in place from scale 2 M, the one
    other n x n array.
    """
    twice = mat * (2.0 * scale)
    if len(parents):
        mvs = parents @ mat  # row j is (M v_j)^T: M is symmetric
        rayleighs = np.vecdot(parents, mvs)
        if np.abs(rayleighs).min() < RAYLEIGH_GUARD:
            raise DegenerateParentError(f"a parent Rayleigh quotient of {rayleighs} is below the division guard")
        twice -= ((2.0 * scale) * mvs.T) @ (mvs / rayleighs[:, None])
    return twice


def _twice_game_matrix_of(parents, m) -> np.ndarray:
    mat = _as_symmetric_array(m)
    return _twice_game_matrix(mat, _parent_block(parents, mat.shape[0], np.float64, UNIT_NORM_ATOL))


def utility(v: np.ndarray, parents, m) -> float:
    """Player utility: v^T M v - sum_j (v^T M v_j)^2 / v_j^T M v_j = v^T G v.

    ``parents``, here and in the gradients below, is a (P, n) block of the
    parent vectors v_j or a list of them.
    """
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
    """arccos of the absolute inner product; invariant to sign and global phase.

    Both vectors must have unit norm to 1e-6 (``errors.unit_norm``,
    ``NormalizationError``; NaN fails too).
    """
    v = np.asarray(v)
    v_star = np.asarray(v_star)
    unit_norm("v", np.vdot(v, v).real, 1e-6)
    unit_norm("v_star", np.vdot(v_star, v_star).real, 1e-6)
    return float(np.arccos(min(1.0, abs(complex(np.vdot(v, v_star))))))


def eigengame_player(
    m,
    init: np.ndarray,
    parents,
    cfg: GameConfig,
    mode: GradientMode = "exact",
    index: int = 1,
) -> PlayerResult:
    """Run one player's Riemannian heavy-ball ascent until the gradient is radial.

    Each step is v <- normalize(v + t + beta_t vel), with t = alpha (I - v v^T) g
    the tangent step and vel = v_t - v_{t-1}: EigenGame's projected step (Gemp
    et al., ICLR 2021, Alg. 1) plus the velocity, beta_t and its restarts from
    ``HeavyBall``.  ``parents`` is the (P, n) block of frozen parent
    vectors v_j, or a list of them; the player keeps a read-only copy as
    ``PlayerResult.parents``.  The game matrix
    G = M - sum_j (M v_j)(M v_j)^T / v_j^T M v_j is built once, as 2 alpha G,
    from one product of M with the block, and M v is formed once, at exit,
    for the eigenvalue and residual.

    One iteration is three array calls on a (4, n) buffer of rows
    [v; vel; 2 alpha G v; b], where b is the zeroth-order bias
    alpha sigma diag(G) (0 in exact mode) and w = 2 alpha G v + b = alpha g:
    the matvec into the third row; the products of the first three rows
    with all four, which give v.v, v.vel, v.w, vel.vel, vel.w and w.w, every
    scalar the step reads (the stop test, the restart test
    t . vel = vel.w - (v.w)(v.vel) and the normalizer ||v + t + beta vel||,
    with v + t = (1 - v.w) v + w); and one (2, 4) x (4, n) product that
    writes the next v and vel into a spare buffer.  No identity assumes
    ||v|| = 1, so the norm does not drift.

    The stopping test is on the tangential (Riemannian) norm of the mode's own
    gradient, ||(I - v v^T) g||, which vanishes at the ascent's fixed points.
    Its square read from those products, w.w - (v.w)^2 (2 - v.v), loses digits
    to cancellation as t shrinks, so it only rules stopping out: within a
    rounding margin of the tolerance, and at the budget, t = w - (v.w) v is
    formed and its norm tested.  The last explicit norm is kept as
    ``final_riemannian_norm``.  The step is ``cfg.step_size``, which must be
    set (``run_sequential`` picks its default).  An array M that is not
    symmetric or has a non-finite entry raises ``HermiticityError``, as it
    does at every entry point that reads M (``_as_symmetric_array``); an
    ``init`` that is not an (n,) vector, or parents that are not a (P, n)
    block, raise ``DimensionMismatchError``.  ``NumericalOverflowError`` is
    left for a finite M whose game matrix or gradient overflows in the loop,
    and for a step so large that the squared stop threshold
    (grad_tolerance * step)**2 overflows.
    """
    if cfg.step_size is None:
        raise ValueError("eigengame_player needs cfg.step_size; run_sequential picks the default")
    mat = _as_symmetric_array(m)
    return _read_out(_ascend(mat, init, parents, cfg, mode, index), mat)


@np.errstate(over="ignore", invalid="ignore")
def _ascend(
    mat: np.ndarray, init: np.ndarray, parents, cfg: GameConfig, mode: GradientMode, index: int
) -> PlayerResult:
    """``eigengame_player``'s ascent on a checked real symmetric array: the ascent alone, left for ``_read_out``.

    A finite M can still overflow, in the game matrix or a product of the
    loop.  The loop's finiteness guard reports that as
    ``NumericalOverflowError``, so NumPy's overflow and invalid-value
    warnings, which would come first, are silenced.
    """
    if mode not in ("exact", "zeroth_order"):
        raise ValueError(f"mode must be 'exact' or 'zeroth_order', got {mode!r}")
    parents = _parent_block(parents, mat.shape[0], np.float64, UNIT_NORM_ATOL)
    v = np.asarray(init, dtype=np.float64)
    if v.shape != mat.shape[:1]:
        raise DimensionMismatchError(f"init has shape {v.shape}, expected {mat.shape[:1]}")
    unit_norm("init", v @ v, UNIT_NORM_ATOL)

    alpha = cfg.step_size
    dim = mat.shape[0]
    scaled_game = _twice_game_matrix(mat, parents, alpha)  # alpha 2 G
    # Two (4, n) buffers of rows [v; vel; 2 alpha G v; b], b the bias row, so that
    # w = 2 alpha G v + b is alpha g in either mode without being formed.
    buffers = np.zeros((2, 4, dim))
    buffers[0, 0] = v
    if mode == "zeroth_order":
        buffers[:, 3] = cfg.sigma * (0.5 * np.diag(scaled_game))  # alpha sigma diag(G)
    b_b = float(buffers[0, 3].dot(buffers[0, 3]))
    # Each buffer as (rows, its first three rows, the transpose, v, 2 alpha G v, the [v; vel] head).
    current, spare = [(buf, buf[:3], buf.T, buf[0], buf[2], buf[:2]) for buf in buffers]
    mix = np.empty((2, 4))  # the next [v; vel] as combinations of the four rows
    coefficients = mix.reshape(-1)
    # The estimate of ||t||^2 from the products is within this many w.w of the
    # truth: each of the few products it combines is exact to about n eps.
    margin = 8.0 * dim * np.finfo(np.float64).eps
    try:
        stop_sq = (cfg.grad_tolerance * alpha) ** 2
    except OverflowError:  # a float's ** raises where its * would give inf
        raise NumericalOverflowError(
            f"the stop threshold (grad_tolerance * step)**2 overflows: "
            f"grad_tolerance {cfg.grad_tolerance!r}, step {alpha!r}"
        ) from None
    player = PlayerResult(index, parents, v)
    ball = HeavyBall()

    for _ in range(cfg.max_iterations_per_player + 1):
        rows, first, rows_t, v, gv, _ = current
        scaled_game.dot(v, out=gv)
        (v_v, v_vel, v_g, v_b), (_, vel_vel, vel_g, vel_b), (_, _, g_g, g_b) = first.dot(rows_t).tolist()
        v_w, vel_w, w_w = v_g + v_b, vel_g + vel_b, g_g + 2.0 * g_b + b_b

        # One non-finite entry of w makes w . v non-finite too (inf * 0 is
        # NaN), so the scalars gate the array scan that names the failure.
        if not math.isfinite(v_w + w_w):
            if not np.isfinite(rows[2:]).all():
                raise NumericalOverflowError("gradient stopped being finite")
            raise NumericalOverflowError("utility stopped being finite")

        out_of_budget = player.iterations_used >= cfg.max_iterations_per_player
        if out_of_budget or w_w - v_w * v_w * (2.0 - v_v) <= stop_sq + margin * w_w:
            tangent = (gv + rows[3]) - v_w * v  # alpha (I - v v^T) g, formed for the test
            player.final_riemannian_norm = math.sqrt(tangent.dot(tangent)) / alpha
            if player.final_riemannian_norm <= cfg.grad_tolerance:
                player.converged = player.stopped = True
                break
            if out_of_budget:
                break

        beta = ball.weight(player.iterations_used, vel_w - v_w * v_vel)
        keep = 1.0 - v_w  # v + t + beta vel = keep v + beta vel + w
        norm_sq = (keep * (keep * v_v + 2.0 * (v_w + beta * v_vel))
                   + w_w + beta * (beta * vel_vel + 2.0 * vel_w))
        scale = 1.0 / math.sqrt(norm_sq)  # norm at least 1: (v + t + beta vel) . v = 1 + beta v . vel
        coefficients[:] = (keep * scale, beta * scale, scale, scale,
                           keep * scale - 1.0, beta * scale, scale, scale)
        mix.dot(rows, out=spare[5])  # the next v, and vel = next v - v
        current, spare = spare, current
        player.iterations_used += 1

    player.momentum_restarts = ball.restarts
    player.vector = current[3].copy()
    return player


@dataclass
class PlayerResult:
    """One player's solve, the record every runner returns.

    Every runner fills the fields below, with one meaning:

    - ``index`` is the player's place in solve order, from 1, and
      ``parents`` the read-only (P, d) block of unit vectors it was solved
      against (``_parent_block``), one row per earlier player: in a run,
      the earlier players' ``vector``s, converged or not (``run_players``).
    - ``vector`` is the returned unit vector: the classical player's final
      v, or the read-only (2**q,) amplitudes the quantum player's final
      theta prepares.
    - ``eigenvalue`` is <v|M v> and ``residual`` the eigen-residual
      ||M v - <v|M v> v||, which by Kahan's bound puts an eigenvalue of M
      within that distance of <v|M v>.  Both are read once on the caller's
      M, which for ``run_sequential`` is not the shifted matrix the players
      ascend.
    - ``max_parent_overlap`` is max_j |<v|v_j>|^2 over the parents, 0
      without any.  It and the residual are reported and do not gate
      ``converged``.  Under finite shots both stay exact simulator values;
      only the eigenvalue is a shot read, the last draw of the player's
      stream.
    - ``iterations_used`` counts the steps taken, and ``stopped`` says the
      loop's stop test passed within the budget.  ``converged`` says the
      returned pair is the answer; both loops set it where they set
      ``stopped``, so today the two are equal on every player.
      ``momentum_restarts`` counts the ascent's velocity restarts
      (``HeavyBall``), 0 for budgets of at most ``ASCENT_WARMUP``.  The two
      loops spend a budget differently.  A classical player tests the
      vector it returns, even at its budget.  A quantum player that uses up
      its budget returns theta one step past its last tested sweep, and its
      histories hold ``iterations_used + stopped`` rows.

    The cost counters are 0 for classical players.  ``readouts`` counts the
    finite-shot read-outs the player drew (the sweeps' and the final
    eigenvalue read) and ``shots`` is ``readouts * num_shots``; both are 0
    under an exact shot model.  ``prepared_rows`` counts the states the
    player prepared, m + 1 per sweep and one for the final read, and
    ``operator_rows`` the rows M was applied to by the objective (the
    game's parent block), each sweep's read and the final read
    (``sweep_reads``).

    Only the quantum runners fill ``theta``, the final parameters as a
    ``ParameterTensor``; the histories, where ``energy_history[t]`` is
    iteration t's read-out of <M> on theta's own row of the sweep (drawn
    once for the objective too), ``utility_history[t]`` that objective and
    ``grad_norm_history[t]`` the norm of its gradient in theta; and
    ``max_imag_residue``, the largest imaginary residue the sweeps read,
    rounding for Hermitian M: under an exact shot model |Im<psi|M psi>| on
    theta's row, and under finite shots |Im<r|M r>| over the shift rows r,
    the cross terms' imaginary parts included.  Only the classical runner
    fills ``final_riemannian_norm``, the last tangential gradient norm its
    stop test formed (``eigengame_player``).
    """

    index: int
    parents: np.ndarray
    vector: np.ndarray
    eigenvalue: float = float("nan")
    residual: float = float("nan")
    max_parent_overlap: float = 0.0
    iterations_used: int = 0
    converged: bool = False
    stopped: bool = False
    momentum_restarts: int = 0
    readouts: int = 0
    shots: int = 0
    prepared_rows: int = 0
    operator_rows: int = 0
    theta: ParameterTensor | None = None
    energy_history: list[float] = field(default_factory=list)
    utility_history: list[float] = field(default_factory=list)
    grad_norm_history: list[float] = field(default_factory=list)
    max_imag_residue: float = 0.0
    final_riemannian_norm: float = float("nan")


def _read_out(player: PlayerResult, m: np.ndarray) -> PlayerResult:
    """Set a classical player's ``eigenvalue``, ``residual`` and ``max_parent_overlap``, and return it.

    All three are read on the caller's M and the returned vector v: one
    matvec M v gives <v|M v> and ||M v - <v|M v> v||, and one product of
    the parent block with v the overlaps.
    """
    v = player.vector
    mv = m @ v
    player.eigenvalue = float(v @ mv)
    player.residual = float(np.linalg.norm(mv - player.eigenvalue * v))
    player.max_parent_overlap = float(np.max((player.parents @ v) ** 2, initial=0.0))
    return player


@dataclass
class SequentialResult:
    """All players of one sequential run, in solve order; the operator hashes bracket the run."""

    players: list[PlayerResult]
    eigenvalues: list[float]
    total_iterations: int
    all_converged: bool
    operator_hash_before: str
    operator_hash_after: str


def ascended_operator(mat: np.ndarray, k: int) -> tuple[np.ndarray, float, float]:
    """(A, c, alpha): the matrix A = M + c I that k players ascend, its shift c and its default step alpha.

    One Lanczos run on M (``hamiltonian.lanczos_enclosure``, from a real
    start vector, of at least k steps unless the Krylov space is exhausted)
    gives [lo, hi], an interval holding M's spectrum, and its Ritz values;
    no dense eigendecomposition is taken.  The game recovers eigenvector i
    only if lambda_i > 0: otherwise its gradient vanishes on the parents'
    span.  By Cauchy interlacing the k-th largest Ritz value is at most
    lambda_k; a run exhausted with fewer than k Ritz values has found,
    from its random start, every distinct level, and reads its smallest,
    lambda_min.  So when that value exceeds the rounding floor
    LANCZOS_TOL * max(-lo, hi), every level a player can reach is
    positive, c = 0 and A is M itself, not a copy; every positive-definite
    M is one such.  (A zero level read as a Ritz value of rounding size,
    of either sign, is shifted: it would leave the last player a zero game
    matrix.)  Otherwise c = max(-lo, hi) - lo, every eigenvalue of A is at
    least max(-lo, hi), and A is formed on a copy's diagonal.
    alpha = 1 / (2 max(hi + c, -lo - c)), one over twice A's norm read on
    the enclosure.  ``run_sequential`` and the theory harness both take A
    from here.
    """
    dim = len(mat)
    # n max |m_ij| bounds ||M||_2 and sets the run's scale.
    lo, hi, ritz = lanczos_enclosure(mat.dot, dim, dim * float(max(mat.max(), -mat.min())), k, real=True)
    radius = max(-lo, hi)
    shift = 0.0 if ritz[-min(k, len(ritz))] > LANCZOS_TOL * radius else radius - lo
    ascended = mat.copy() if shift else mat
    if shift:  # M + c I, formed on the copy's diagonal
        ascended.flat[:: dim + 1] += shift
    return ascended, shift, 1.0 / (2.0 * max(hi + shift, -lo - shift))


def check_player_count(k: int, dim: int) -> None:
    """Raise ``ValueError`` unless ``k`` is a whole number (``errors.whole_number``) of at most ``dim``, naming both.

    The player-count rule of ``run_players``; the runners call it before
    any spectral work too, so a bad count is the first error they raise.
    """
    whole_number("k", k)
    if k > dim:
        raise ValueError(f"k={k} players exceed the operator's dimension {dim}")


def run_players(k: int, dim: int, play: Callable, digest: Callable[[], str]) -> SequentialResult:
    """The sequential policy, stated once for every runner.

    ``k`` must be a whole number (``errors.whole_number``) of at most
    ``dim``, the operator's dimension: a ``ValueError`` names both before
    ``digest()`` or any player runs (``check_player_count``).  Players 1..k
    are then solved once each, in order, with no restart.
    ``play(index, parents, eigenvalues)`` solves one player and returns its
    ``PlayerResult``; ``parents`` and ``eigenvalues`` are lists of the
    vectors and eigenvalues of every earlier player, whether or not it
    converged, and ``all_converged`` reports any miss.  Each player copies the list into its parent block
    (``_parent_block``).  ``digest()`` hashes the operator before and after
    the run: no player may rewrite it.
    """
    check_player_count(k, dim)
    hash_before = digest()
    players = []
    for index in range(1, k + 1):
        players.append(play(index, [p.vector for p in players], [p.eigenvalue for p in players]))
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
    """Solve players 1..k, k = ``cfg.num_players``, with ``run_players``, each from its own seeded start.

    ``run_players`` holds k to M's dimension n and hands player i the
    vectors of players 1..i-1, its parent block.  The players ascend
    A = M + c I (``ascended_operator``), read from one Lanczos run on M that
    takes no dense eigendecomposition: c = 0 when the k-th largest Ritz
    value, a lower bound on lambda_k, is positive beyond rounding, and
    c = max(-lo, hi) - lo otherwise, [lo, hi] the run's enclosure of M's
    spectrum, so that every level a player can reach is positive.  The
    default step is 1 / (2 max(hi + c, -lo - c)).  Eigenvalues, residuals
    and parent overlaps are read on M (``_read_out``); no eigenvector
    enters the solve, and nothing warns of small eigengaps.  The zero
    matrix is rejected: it has no leading eigenvectors and no step size.
    M is checked once per run, not once per player
    (``_as_symmetric_array``: a non-finite entry raises
    ``HermiticityError``), and a bad ``mode``, or a ``seed`` that is not a
    non-negative integer, raises ``ValueError`` before the first player's
    first step.  A real ``HermitianMatrix`` is read without a copy: besides
    M, a solve holds one game matrix (2 alpha G, for the player being
    solved) and one temporary of M's size, plus the copy that carries the
    shift when c > 0.  M is hashed in place, before and after the run.
    """
    whole_number("seed", seed, minimum=0)
    mat = _as_symmetric_array(m)  # the run's one check
    dim = mat.shape[0]
    if not mat.any():
        raise ValueError("the zero matrix has no leading eigenvectors: every unit vector is one")
    check_player_count(cfg.num_players, dim)  # before the Lanczos run reads the count
    ascended, _, step = ascended_operator(mat, cfg.num_players)
    if cfg.step_size is None:
        cfg = replace(cfg, step_size=step)

    def play(i: int, parents: list[np.ndarray], _: list[float]) -> PlayerResult:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i, 0)))
        init = rng.standard_normal(dim)
        init /= np.linalg.norm(init)
        return _read_out(_ascend(ascended, init, parents, cfg, mode, i), mat)

    return run_players(cfg.num_players, dim, play, lambda: hashlib.sha256(mat).hexdigest())
