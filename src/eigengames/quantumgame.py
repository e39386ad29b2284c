"""Parameterized eigensolver players and their baseline.

The game player ascends a per-player utility whose penalty terms are built
from interference-circuit cross expectations against frozen parents, so no
operator is ever deflated.  The baseline included for comparison is
overlap-penalized minimization (VQD).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .eigengame_classical import ASCENT_WARMUP, HeavyBall, SequentialResult, _parent_block, run_players
from .errors import DegenerateParentError, NormalizationError, NumericalOverflowError
from .hamiltonian import RANGE_RESIDUAL_TOL, PauliSum
from .quantum_sim import (
    NORM_ATOL,
    AnsatzSpec,
    ParameterTensor,
    ShotModel,
    StateVector,
    apply_ansatz,
    interference_moments,
    parameter_shift_states,
    pauli_sum_apply,
    perturb_readouts,
    shift_row_moments,
    shift_row_products,
    shift_rule_gradient,
    swap_test_moments,
)

PARENT_EIGENVALUE_GUARD = 1e-10
MIN_MODE_SHIFT_MARGIN = 1.0

Direction = Literal["maximize", "minimize"]


@dataclass
class QuantumPlayerState:
    """One player's solve: final parameters, the state they prepare, and per-iteration histories.

    ``parents`` is the read-only (P, 2**q) block of parent states the player
    was solved against, one row per earlier player.  ``max_imag_residue``
    is the largest imaginary residue the sweeps read, rounding for Hermitian M: under an exact shot model |Im<psi|M psi>| on
    theta's row, and under finite shots |Im<r|M r>| over the shift rows r,
    the cross terms' imaginary parts included (``shift_row_moments``).
    ``momentum_restarts`` counts the ascent's velocity restarts, 0 for
    budgets of at most ``ASCENT_WARMUP``.  ``energy_history[t]`` is iteration t's read-out of
    <M> on theta's own row of the sweep, drawn once for the objective too.
    ``readouts`` counts the finite-shot read-outs the player drew (the
    evaluator's and the final eigenvalue read) and ``shots`` is
    ``readouts * num_shots``, the solve's shot cost; both are 0 under an
    exact shot model.  ``prepared_rows`` counts the states the player
    prepared, m + 1 per sweep and one for the final read, and
    ``operator_rows`` the rows M was applied to: one per sweep under an
    exact model and m + 1 under finite shots, one for the final read, and
    the game's parent block.  Two records of the returned state, reported and not
    gating ``converged``: ``residual`` is its energy standard deviation
    sqrt(Var(M)) = ||(M - <M>) psi||, which by Kahan's bound puts an
    eigenvalue of M within that distance of <M>; ``max_parent_overlap`` is
    max_j |<psi|psi_j>|^2 over the parents, 0 without any.  Both are exact
    simulator values, not shot reads.
    """

    index: int
    theta: ParameterTensor
    parents: np.ndarray
    statevector: StateVector | None = None
    eigenvalue: float = float("nan")
    converged: bool = False
    iterations_used: int = 0
    energy_history: list[float] = field(default_factory=list)
    utility_history: list[float] = field(default_factory=list)
    grad_norm_history: list[float] = field(default_factory=list)
    max_imag_residue: float = 0.0
    momentum_restarts: int = 0
    readouts: int = 0
    shots: int = 0
    residual: float = float("nan")
    max_parent_overlap: float = 0.0
    prepared_rows: int = 0
    operator_rows: int = 0


@dataclass(frozen=True)
class SolverConfig:
    """Shared hyperparameters for the parameterized solvers.

    Under an exact model both players' objective is one expectation
    <psi|K psi> + c with K = s*M + sum_j w_j |k_j><k_j|: the game has
    k_j = A psi_j and w_j = -1/lambda_j, with A = sign*M + offset*I and
    c = offset; VQD has k_j = psi_j, w_j = beta_j and c = 0.  There is no
    step-size or momentum setting: both players run the one heavy-ball loop
    ``_ascend`` with a signed step, +1/(2L) for the game, which ascends its
    objective, and -1/(2L) for VQD, which descends it.  L is an upper bound
    on the spectral norm of the operator the loop actually optimizes:
    hi - lo + margin for the game's shifted A, and for the penalized
    baseline max(-lo, hi) plus a Gershgorin bound on the parent penalty.
    [lo, hi] is M's ``PauliSum.spectral_range``, an interval that encloses
    its spectrum, from one Lanczos run per operator shared by all players,
    so no operator is densified or diagonalized.  M is the only operator a
    solve applies: the sign and the offset act as scalars on its moments,
    and no other ``PauliSum`` is built.  ``direction``,
    "maximize" or "minimize", applies to both solvers.  ``beta`` >= 0 feeds
    the fixed-weight overlap penalty; ``adaptive_regularization`` instead
    sets the penalty weights to 2 * (spectral upper bound - parent
    eigenvalue on +-M), with the Pauli 1-norm as the spectral upper bound,
    which needs no tuning, so the two may not be combined.  ``shots``'
    ``rng_seed`` seeds direct player calls only; the runners derive each
    player's shot stream from their ``seed`` and ignore it.
    """

    max_iterations: int = 2000
    grad_tolerance: float = 1e-2
    shots: ShotModel = ShotModel()
    direction: Direction = "maximize"
    beta: float | None = None
    adaptive_regularization: bool = False

    def __post_init__(self):
        if self.direction not in ("maximize", "minimize"):
            raise ValueError(f"direction must be 'maximize' or 'minimize', got {self.direction!r}")
        # Each test is written so that NaN fails it.
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.grad_tolerance < math.inf:
            raise ValueError("grad_tolerance must be positive and finite")
        if self.beta is not None and not 0 <= self.beta < math.inf:
            raise ValueError("beta must be non-negative and finite")
        if self.beta is not None and self.adaptive_regularization:
            raise ValueError("beta and adaptive_regularization exclude each other")


def pauli_sum_hash(h: PauliSum) -> str:
    """Canonical content hash used by the structural no-mutation check."""
    blob = repr((h.num_qubits, tuple(h.terms))).encode()
    return hashlib.sha256(blob).hexdigest()


# A read maps one sweep's (m+1, 2**q) prepared rows phi_0, ..., phi_{m-1},
# psi (``parameter_shift_states``) to the objective's gradient in theta, the
# objective and the <M> read-out on theta's row psi, the largest imaginary
# residue it read, and the number of finite-shot read-outs it drew.  Each
# player picks its read once: ``_backward_read`` under an exact shot model,
# ``_sweep_read`` under finite shots.
ReadResult = tuple[np.ndarray, float, float, float, int]
Read = Callable[[np.ndarray], ReadResult]

# A batch evaluator maps one sweep's (m+1, 2**q) base rows and the rows M
# applied to them to the objective at each of the 2m + 1 shift rows, each
# row's read-out of <M> (the one the objective is formed from), the largest
# |Im<r|M r>| over the rows, and the number of read-outs it drew.  A one-row
# base is the single state psi.  Evaluators take the parents as their
# (P, 2**q) block of states, the player's ``QuantumPlayerState.parents``.
EvaluatorResult = tuple[np.ndarray, np.ndarray, float, int]
Evaluator = Callable[[np.ndarray, np.ndarray], EvaluatorResult]


def _sweep_read(m: PauliSum, evaluate: Evaluator) -> Read:
    """The finite-shot read: M on every prepared row, the evaluator's read-outs of the 2m + 1
    shift rows, and the parameter-shift gradient from the first 2m of them."""

    def read(prepared: np.ndarray) -> ReadResult:
        objective, m_reads, residue, drawn = evaluate(prepared, pauli_sum_apply(m, prepared))
        return shift_rule_gradient(objective[:-1]), float(objective[-1]), float(m_reads[-1]), residue, drawn

    return read


def _backward_read(
    m: PauliSum, scale: float, kets: np.ndarray, weights: Sequence[float], constant: float
) -> Read:
    """The exact read of <psi|K psi> + ``constant``, K = scale*M + sum_j w_j |k_j><k_j|.

    ``kets`` is the (P, 2**q) block of the k_j and ``weights`` their (P,)
    w_j; M is applied to theta's row alone.  Each parameter drives one Pauli
    rotation, so d_k psi = phi_k / 2 and the gradient is Re<phi_k|g> with
    g = K psi = scale*M psi + sum_j w_j <k_j|psi> k_j: one product of the
    conjugated phi_k with g, and one with psi for the rotation guard (two
    matrix-vector products beat one with the stacked pair on small states).
    <psi|phi_k> is imaginary for a Pauli rotation, so a real part beyond
    ``NORM_ATOL`` (another gate, or NaN) raises ``NormalizationError``; so
    does an imaginary part of <psi|M psi> beyond it, with ``ValueError``, as
    ``shift_row_moments`` does.  The objective is Re<psi|g> + ``constant``
    and the energy Re<psi|M psi>; nothing is drawn.
    """
    ket_bras = kets.conj()
    weights = np.asarray(weights, dtype=np.float64)

    def read(prepared: np.ndarray) -> ReadResult:
        phi, psi = prepared[:-1], prepared[-1]
        m_psi = pauli_sum_apply(m, prepared[-1:])[0]
        energy = complex(np.vdot(psi, m_psi))
        residue = abs(energy.imag)
        if residue > NORM_ATOL:
            raise ValueError(f"expectation has imaginary residue {residue:.3e}")
        g = scale * m_psi + ((ket_bras @ psi) * weights) @ kets
        bras = phi.conj()
        if not np.abs((bras @ psi).real).max(initial=0.0) <= NORM_ATOL:  # a NaN fails too
            raise NormalizationError(
                f"parameter-shift rows have a real overlap with psi beyond {NORM_ATOL}"
            )
        return (bras @ g).real, float(np.vdot(psi, g).real) + constant, energy.real, residue, 0

    return read


def _parent_arrays(spec: AnsatzSpec, states, eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (P, 2**q) block of parent states and their (P,) eigenvalues on M."""
    block = _parent_block(states, 2**spec.num_qubits, np.complex128)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if eigenvalues.shape != (len(block),):
        raise ValueError(f"need one eigenvalue per parent state: {eigenvalues.shape} for {len(block)} states")
    return block, eigenvalues


# The cross term enters as |z|^2 rather than the literal complex square: both
# agree whenever states and operator are real (where the squared quantity is
# real), but the complex square depends on the ansatz's global phase, which a
# player can rotate freely to cancel or even invert its penalty.  Squaring the
# modulus keeps the penalty phase-invariant; the imaginary part is logged.


def _shifted_parents(
    m: PauliSum,
    sign: float,
    offset: float,
    parent_states: np.ndarray,
    denominators: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The game's kets and weights (A psi_j, -1/lambda_j), A = sign*M + offset*I.

    The game's objective <A> - sum_j |<psi|A|psi_j>|^2 / lambda_j is
    <psi|K psi> + offset with K = sign*M + sum_j w_j |A psi_j><A psi_j| and
    w_j = -1/lambda_j, from the (P, 2**q) parent block.  M is applied to the
    block once, and not at all without parents.  A denominator within
    ``PARENT_EIGENVALUE_GUARD`` of zero raises ``DegenerateParentError``.
    """
    for lam in denominators:
        if abs(lam) < PARENT_EIGENVALUE_GUARD:
            raise DegenerateParentError(
                f"cached parent eigenvalue {lam:.3e} is below the division guard"
            )
    a_parents = parent_states
    if len(parent_states):
        a_parents = sign * pauli_sum_apply(m, parent_states) + offset * parent_states
    return a_parents, -1.0 / np.asarray(denominators, dtype=np.float64)


def _game_evaluator(
    scale: float,
    kets: np.ndarray,
    weights: np.ndarray,
    constant: float,
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Sweep -> <A> + sum_j w_j |<r|A|psi_j>|^2 per shift row r, read out as the circuits would be.

    A = scale*M + constant*I is never built, and (kets, weights) are the
    game's (A psi_j, -1/lambda_j) (``_shifted_parents``).  Per row the
    read-outs are <M>, then Re and Im of each parent's cross term
    (interference circuit), each perturbed by the shot model in that order,
    and <A> is scale*read + constant.  The means and variances are the
    circuits' closed forms, from the sweep's base rows
    (``shift_row_moments``, and ``shift_row_products`` with the kets); the
    cross terms' variances take
    ||A r||^2 = ||M r||^2 + 2*scale*constant*<M> + constant^2.  The kets'
    ||A psi_j||^2 and the weights, each repeated for the Re and the Im
    read-out, are formed once here, for every row and iteration.  Without
    parents there are no cross read-outs.
    """
    has_parents = len(kets) > 0
    ket_second = np.vecdot(kets, kets).real
    read_weights = np.repeat(weights, 2)

    def evaluate(base: np.ndarray, m_base: np.ndarray) -> EvaluatorResult:
        mean, var, second, residue = shift_row_moments(base, m_base)
        if not has_parents:
            m_reads = perturb_readouts(shots, mean, var, rng)
            return scale * m_reads + constant, m_reads, residue, m_reads.size
        a_second = second + 2.0 * scale * constant * mean + constant * constant
        cross_mean, cross_var = interference_moments(shift_row_products(base, kets), a_second, ket_second)
        reads = perturb_readouts(
            shots, np.column_stack((mean, cross_mean)), np.column_stack((var, cross_var)), rng
        )
        penalty = reads[:, 1:] ** 2 @ read_weights
        return scale * reads[:, 0] + constant + penalty, reads[:, 0], residue, reads.size

    return evaluate


def _vqd_evaluator(
    scale: float,
    kets: np.ndarray,
    weights: Sequence[float],
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Sweep -> scale*<M> + sum_j w_j |<r|psi_j>|^2 per shift row r, overlaps read off the SwapTest.

    (kets, weights) are the parent states and their beta_j.  Per row the
    read-outs are <M>, then each parent's SwapTest p0 (closed form,
    Bernoulli variance), perturbed in that order; the scale multiplies the
    <M> read-out.  The means and variances come from the sweep's base rows
    (``shift_row_moments``, and ``shift_row_products`` with the kets); the
    penalty is one product with the (P,) weights.  Without parents there
    are no SwapTest read-outs.
    """
    has_parents = len(kets) > 0
    weights = np.asarray(weights, dtype=np.float64)

    def evaluate(base: np.ndarray, m_base: np.ndarray) -> EvaluatorResult:
        mean, var, _, residue = shift_row_moments(base, m_base)
        if not has_parents:
            m_reads = perturb_readouts(shots, mean, var, rng)
            return scale * m_reads, m_reads, residue, m_reads.size
        p0, p0_var = swap_test_moments(shift_row_products(base, kets))
        reads = perturb_readouts(
            shots, np.column_stack((mean, p0)), np.column_stack((var, p0_var)), rng
        )
        penalty = np.clip(2.0 * reads[:, 1:] - 1.0, 0.0, 1.0) @ weights
        return scale * reads[:, 0] + penalty, reads[:, 0], residue, reads.size

    return evaluate


def _ascend(
    m: PauliSum,
    spec: AnsatzSpec,
    state: QuantumPlayerState,
    cfg: SolverConfig,
    read: Read,
    eta: float,
    rng: np.random.Generator,
) -> QuantumPlayerState:
    """The shared parameter-shift loop over one player's objective <psi|K psi> + c.

    K = s*M + sum_j w_j |k_j><k_j| (``SolverConfig``), and the one sign
    rule: players pass a signed step ``eta``, positive to ascend the
    objective (the game) and negative to descend it (VQD).  ``state`` is the
    player's opened record, with its index, start theta, parent block, and
    in ``operator_rows`` the parent rows it applied M to before the loop.
    Each iteration prepares m + 1 states in one call
    (``parameter_shift_states``) and hands them to the player's ``read``,
    which gives the gradient, the objective and the <M> read-out on theta's
    row, the iteration's energy: no circuit is read twice.  Under an exact
    shot model the read applies M to theta's row alone and takes the
    gradient from one backward vector (``_backward_read``); under finite
    shots it applies M to all m + 1 rows and reads the 2m + 1 shift rows'
    circuits from them (``_sweep_read``).  Stops when the gradient norm
    reaches tolerance or the iteration budget runs out (partial result).
    On either exit the final theta's state is prepared, and M applied to
    it, once, and read as a one-row base: ``shift_row_moments`` gives the
    eigenvalue read (the last draw of the stream) and the residual, and
    ``shift_row_products`` with the parents' (P, 2**q) block
    ``state.parents`` the largest parent overlap.  Every draw site adds its
    read-outs to one count, stored with its shots at the end (0 and 0 when
    exact).

    The step is heavy-ball, vel <- beta_t vel + eta*grad and
    theta += vel, with beta_t and its restarts from ``HeavyBall``, the rule
    the classical player shares: no extra circuit.
    """
    values = state.theta.values.copy()
    vel = np.zeros_like(values)
    ball = HeavyBall()
    readouts = 0  # drawn by the read
    for _ in range(cfg.max_iterations):
        grad, value, energy, residue, drawn = read(parameter_shift_states(spec, values))
        state.max_imag_residue = max(state.max_imag_residue, residue)
        gnorm = math.sqrt(grad @ grad)
        if not math.isfinite(gnorm):  # a NaN or infinite entry of grad makes the norm so
            raise NumericalOverflowError("parameter-shift gradient stopped being finite")
        if not math.isfinite(value):
            raise NumericalOverflowError("objective stopped being finite")
        readouts += drawn
        state.grad_norm_history.append(gnorm)
        state.utility_history.append(value)
        state.energy_history.append(energy)
        if gnorm <= cfg.grad_tolerance:
            state.converged = True
            break
        step = eta * grad
        beta = ball.weight(state.iterations_used, float(step @ vel))
        vel = beta * vel + step if beta else step
        values = values + vel
        state.iterations_used += 1

    state.momentum_restarts = ball.restarts
    state.theta = ParameterTensor(values)
    final = apply_ansatz(spec, values[None, :])
    mean, var, _, _ = shift_row_moments(final, pauli_sum_apply(m, final))
    state.statevector = StateVector(spec.num_qubits, final[0])
    state.eigenvalue = float(perturb_readouts(cfg.shots, mean, var, rng)[0])
    state.residual = math.sqrt(var[0])
    overlaps = np.abs(shift_row_products(final, state.parents)) ** 2
    state.max_parent_overlap = float(overlaps.max(initial=0.0))
    sweeps, rows = len(state.energy_history), spec.num_parameters + 1
    state.prepared_rows = sweeps * rows + 1
    state.operator_rows += sweeps * (1 if cfg.shots.is_exact else rows) + 1
    if not cfg.shots.is_exact:
        state.readouts = readouts + 1  # and the eigenvalue read
        state.shots = state.readouts * cfg.shots.num_shots
    return state


def _game_shift(m: PauliSum, direction: Direction) -> tuple[float, float, float]:
    """(sign, offset, eta): the game ascends A = sign*M + offset*I with the step eta = 1/(2L).

    sign is +1 to maximize and -1 to minimize.  With [lo, hi] M's
    ``spectral_range``, an interval enclosing its spectrum, offset =
    hi + margin to minimize and -lo + margin to maximize.  Every eigenvalue
    of A is then at least the margin, so each parent's penalty denominator
    sign*lambda_j + offset stays positive whatever the sign of M's spectrum
    (a negative denominator would turn the penalty into a reward), and at
    most L = hi - lo + margin.  The enclosure can fall short of an end
    (rarely, and in tests by at most 0.6% of ||M||; see ``spectral_range``),
    so the margin scales with the operator:
    2 * RANGE_RESIDUAL_TOL * max(-lo, hi), about 2% of ||M||, and at least
    ``MIN_MODE_SHIFT_MARGIN``.  An absolute margin alone would let a large
    operator's shortfall exceed it.  The quantum error-accumulation
    harness states its bound on this A too.
    """
    sign = 1.0 if direction == "maximize" else -1.0
    lo, hi = m.spectral_range
    margin = max(MIN_MODE_SHIFT_MARGIN, 2.0 * RANGE_RESIDUAL_TOL * max(-lo, hi))
    offset = (-lo if sign > 0 else hi) + margin
    return sign, offset, 1.0 / (2.0 * (hi - lo + margin))


def quantumgame_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: ParameterTensor | Sequence[float],
    parent_states,
    parent_eigenvalues: Sequence[float],
    cfg: SolverConfig,
    index: int = 1,
) -> QuantumPlayerState:
    """Gradient ascent on the player utility via parameter-shift, parents frozen.

    ``parent_states`` is the (P, 2**q) block of parent states psi_j, or a
    list of them, and ``parent_eigenvalues`` their (P,) eigenvalues lambda_j
    on M, read when each parent was solved and never re-measured.  Both
    directions ascend the utility of A = sign*M + offset*I, whose sign,
    offset and step come from ``_game_shift``: every eigenvalue of A lies
    in [margin, L].  A caller-supplied parent whose eigenvalue lies farther
    outside M's enclosure than the margin, so that its denominator
    sign*lambda_j + offset is at or below ``PARENT_EIGENVALUE_GUARD``,
    raises ``DegenerateParentError`` before any circuit runs.  The
    objective is <psi|K psi> + offset with
    K = sign*M + sum_j w_j |A psi_j><A psi_j| and w_j = -1/lambda_j
    (``_shifted_parents``), and the player passes the step +1/(2L) to
    ascend it.  A is applied as algebra on M, never built: on the circuits'
    moments under finite shots (``_game_evaluator``) and on the backward
    vector under an exact model (``_backward_read``).  Energies are read
    on M.
    """
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    states, eigenvalues = _parent_arrays(spec, parent_states, parent_eigenvalues)
    sign, offset, eta = _game_shift(m, cfg.direction)
    denominators = sign * eigenvalues + offset
    if (denominators <= PARENT_EIGENVALUE_GUARD).any():
        raise DegenerateParentError(
            f"parent penalty denominator {denominators.min():.3e} is not positive: "
            "the parent's eigenvalue lies outside the operator's enclosure"
        )
    rng = cfg.shots.make_rng()
    kets, weights = _shifted_parents(m, sign, offset, states, denominators)
    if cfg.shots.is_exact:
        read = _backward_read(m, sign, kets, weights, offset)
    else:
        read = _sweep_read(m, _game_evaluator(sign, kets, weights, offset, cfg.shots, rng))
    state = QuantumPlayerState(index, theta, states, operator_rows=len(states))
    return _ascend(m, spec, state, cfg, read, eta, rng)


def _penalty_norm_bound(states: np.ndarray, betas: Sequence[float]) -> float:
    """Gershgorin's bound on ||sum_j beta_j |psi_j><psi_j|||, given the (P, 2**q) parent
    states: the largest row sum of sqrt(beta_j beta_l) |<psi_j|psi_l>|; 0 without parents."""
    root = np.sqrt(betas)
    gram = np.abs(states.conj() @ states.T) * np.outer(root, root)
    np.fill_diagonal(gram, betas)  # unit states: beta_j itself, not its rounded root squared
    return float(gram.sum(axis=1).max(initial=0.0))


def vqd_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: ParameterTensor | Sequence[float],
    parent_states,
    parent_eigenvalues: Sequence[float],
    cfg: SolverConfig,
    index: int = 1,
) -> QuantumPlayerState:
    """Overlap-penalized minimization: sign*<M> + sum_j beta_j |<psi|psi_j>|^2.

    The parents are given as in ``quantumgame_player``: a (P, 2**q) block
    of states psi_j, or a list of them, and their (P,) eigenvalues on M.
    The objective is <psi|K psi> with K = sign*M + sum_j beta_j |psi_j><psi_j|,
    sign = +1 to minimize and -1 to maximize, so both directions descend:
    the player passes the step -1/(2L).
    Fixed mode uses beta_j = cfg.beta.  Adaptive mode sets
    beta_j = 2 * (lambda_bound - a_j) where lambda_bound is the Pauli
    1-norm upper bound on the spectrum and a_j the parent's previously
    calculated eigenvalue on sign*M (lambda_j or -lambda_j), which always
    exceeds the gap the penalty must beat.  The step is 1/(2L), with L the
    bound max(-lo, hi) on ||M|| from ``spectral_range`` plus a Gershgorin
    bound on the penalty operator sum_j beta_j |psi_j><psi_j|: its nonzero
    spectrum is that of the weighted parent Gram matrix
    sqrt(beta_j beta_l) <psi_j|psi_l>, whose largest absolute row sum bounds
    it; for orthogonal parents that is max_j beta_j.  Under finite shots
    overlaps are SwapTest read-outs (``_vqd_evaluator``); under an exact
    model the gradient comes from the backward vector (``_backward_read``).
    Energies are read on M.
    """
    if cfg.beta is None and not cfg.adaptive_regularization:
        raise ValueError("vqd_player needs cfg.beta or adaptive_regularization")
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    states, eigenvalues = _parent_arrays(spec, parent_states, parent_eigenvalues)
    sign = -1.0 if cfg.direction == "maximize" else 1.0
    if cfg.adaptive_regularization:
        betas = 2.0 * (m.one_norm - sign * eigenvalues)
    else:
        betas = np.full(len(states), cfg.beta)
    # The penalized objective is the expectation of sign*M + sum_j beta_j P_j,
    # so 1/(2L) uses that operator's norm bound, not ||M|| alone.
    lo, hi = m.spectral_range
    eta = 1.0 / (2.0 * (max(-lo, hi) + _penalty_norm_bound(states, betas)))
    rng = cfg.shots.make_rng()
    if cfg.shots.is_exact:
        read = _backward_read(m, sign, states, betas, 0.0)
    else:
        read = _sweep_read(m, _vqd_evaluator(sign, states, betas, cfg.shots, rng))
    return _ascend(m, spec, QuantumPlayerState(index, theta, states), cfg, read, -eta, rng)


def _sequential_run(
    m: PauliSum,
    spec: AnsatzSpec,
    cfg: SolverConfig,
    k: int,
    seed: int,
    player_fn,
) -> SequentialResult:
    if k > 2**spec.num_qubits:
        raise ValueError(f"k={k} exceeds the register dimension {2**spec.num_qubits}")
    if m.spectral_range == (0.0, 0.0):
        raise ValueError("the zero operator has no leading eigenvectors: every state is one")

    def play(r: int, earlier: tuple[QuantumPlayerState, ...]) -> QuantumPlayerState:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        theta_init = spec.bind(rng.uniform(-np.pi, np.pi, size=spec.num_parameters))
        shots = replace(cfg.shots, rng_seed=int(rng.integers(0, 2**31 - 1)))
        states = [p.statevector.amplitudes for p in earlier]
        eigenvalues = [p.eigenvalue for p in earlier]
        return player_fn(m, spec, theta_init, states, eigenvalues, replace(cfg, shots=shots), index=r)

    return run_players(k, play, lambda: pauli_sum_hash(m))


def run_quantumgame(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Players 1..k in sequence; player r's parents are the states and eigenvalues of players 1..r-1.

    Each player is a parent of every later one whether or not it converged.
    The operator is hashed before and after the run: the whole point of the
    formulation is that no deflation step ever rewrites it.  Player r's
    start and shot stream come from ``SeedSequence(seed, spawn_key=(r,))``;
    ``cfg.shots.rng_seed`` is not read.
    """
    return _sequential_run(m, spec, cfg, k, seed, quantumgame_player)


def run_vqd(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Sequential VQD baseline with the same parents and seeding as ``run_quantumgame``."""
    return _sequential_run(m, spec, cfg, k, seed, vqd_player)
