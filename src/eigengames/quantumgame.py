"""Parameterized eigensolver players and their baselines.

The game player ascends a per-player utility whose penalty terms are built
from interference-circuit cross expectations against frozen parents, so no
operator is ever deflated.  The two baselines included for comparison are
overlap-penalized minimization (VQD) and explicit Hotelling deflation driven
by a pluggable single-component solver.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .eigengame_classical import SequentialResult, run_players
from .errors import DegenerateParentError, NonConvergenceError, NumericalOverflowError
from .hamiltonian import HermitianMatrix, PauliSum
from .quantum_sim import (
    AnsatzSpec,
    ParameterTensor,
    ShotModel,
    StateVector,
    apply_ansatz,
    interference_moments,
    parameter_shift_states,
    pauli_sum_apply,
    perturb_readouts,
    shift_rule_gradient,
    shot_noisy_expectation,
    state_moments,
    swap_test_moments,
)

PARENT_EIGENVALUE_GUARD = 1e-10
MIN_MODE_SHIFT_MARGIN = 1.0
# Plain parameter-shift steps before the heavy-ball velocity is first carried.
ASCENT_WARMUP = 20

Direction = Literal["maximize", "minimize"]


@dataclass(frozen=True)
class QuantumParent:
    """Broadcast record of a solved player: parameters, eigenvalue, prepared state.

    The eigenvalue is <psi(theta)| M |psi(theta)> with respect to the original
    operator, cached at broadcast time and never re-measured.
    """

    theta: ParameterTensor
    eigenvalue: float
    statevector: StateVector


@dataclass
class QuantumPlayerState:
    """One player's solve: final parameters, the state they prepare, and per-iteration histories.

    ``max_imag_residue`` is the largest imaginary interference read-out seen
    (0 for VQD and parentless players); ``momentum_restarts`` counts the
    times the ascent reset its velocity, 0 for budgets of at most
    ``ASCENT_WARMUP``.  ``readouts`` counts the finite-shot read-outs the
    player drew (the evaluator's, one energy read per iteration and the
    final eigenvalue read) and ``shots`` is ``readouts * num_shots``, the
    solve's shot cost; both are 0 under an exact shot model.
    """

    index: int
    theta: ParameterTensor
    parents: tuple[QuantumParent, ...]
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


@dataclass(frozen=True)
class SolverConfig:
    """Shared hyperparameters for the parameterized solvers.

    There is no step-size or momentum setting: both players run the one
    heavy-ball loop ``_ascend`` with gradient step 1/(2L), with L the
    spectral norm of the operator the loop actually optimizes (the shifted
    sign*M + offset*I for the game; for the penalized baseline, the bound
    ||M|| plus the overlap weights).  L comes in closed form from M's
    ``PauliSum.spectral_range``, one Lanczos run per operator shared by all
    players, so no operator is densified or diagonalized.  M is the only
    operator a solve applies: the sign and the offset act as scalars on its
    moments, and no other ``PauliSum`` is built.  ``direction``,
    "maximize" or "minimize", applies to both solvers.  ``beta`` >= 0 feeds
    the fixed-weight overlap penalty; ``adaptive_regularization`` instead
    sets the penalty weights to 2 * (spectral upper bound - parent
    eigenvalue on +-M), which needs no tuning, so the two may not be
    combined.
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be positive")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.beta is not None and self.adaptive_regularization:
            raise ValueError("beta and adaptive_regularization exclude each other")


def pauli_sum_hash(h: PauliSum) -> str:
    """Canonical content hash used by the structural no-mutation check."""
    blob = repr((h.num_qubits, tuple(h.terms))).encode()
    return hashlib.sha256(blob).hexdigest()


# A batch evaluator maps prepared (B, 2**q) state rows psi and the rows M psi
# to the objective at each row, the largest imaginary cross read-out, the
# exact <M> and Var(M) of each row, and the number of read-outs it drew.
EvaluatorResult = tuple[np.ndarray, float, np.ndarray, np.ndarray, int]
Evaluator = Callable[[np.ndarray, np.ndarray], EvaluatorResult]


def _parent_states(parents: tuple[QuantumParent, ...], num_qubits: int) -> np.ndarray:
    return np.array([p.statevector.amplitudes for p in parents]).reshape(len(parents), 2**num_qubits)


# The cross term enters as |z|^2 rather than the literal complex square: both
# agree whenever states and operator are real (where the squared quantity is
# real), but the complex square depends on the ansatz's global phase, which a
# player can rotate freely to cancel or even invert its penalty.  Squaring the
# modulus keeps the penalty phase-invariant; the imaginary part is logged.


def _game_evaluator(
    m: PauliSum,
    sign: float,
    offset: float,
    spec: AnsatzSpec,
    parents: tuple[QuantumParent, ...],
    denominators: Sequence[float],
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Rows -> <A> - sum_j |<psi|A|psi_j>|^2 / lambda_j, read out as the circuits would be.

    A = sign*M + offset*I is never built: from the rows' M psi
    (``state_moments``), <A> = sign*<M> + offset, Var(A) = Var(M) and
    ||A psi||^2 = ||M psi||^2 + 2*sign*offset*<M> + offset^2.  ``A psi_j`` is
    formed once here, for every row and iteration.  Per row the read-outs
    are <A>, then Re and Im of each parent's cross term (interference
    circuit), each perturbed by the shot model in that order; their means
    and variances are the circuits' closed forms.  Without parents there
    are no cross read-outs.
    """
    for lam in denominators:
        if abs(lam) < PARENT_EIGENVALUE_GUARD:
            raise DegenerateParentError(
                f"cached parent eigenvalue {lam:.3e} is below the division guard"
            )
    if parents:
        parent_states = _parent_states(parents, spec.num_qubits)
        a_parents = sign * pauli_sum_apply(m, parent_states) + offset * parent_states

    def evaluate(psi: np.ndarray, m_psi: np.ndarray) -> EvaluatorResult:
        mean, var, second = state_moments(psi, m_psi)
        a_mean = sign * mean + offset
        if not parents:
            return perturb_readouts(shots, a_mean, var, rng), 0.0, mean, var, a_mean.size
        a_second = second + 2.0 * sign * offset * mean + offset * offset
        cross_mean, cross_var = interference_moments(psi, a_second, a_parents)
        reads = perturb_readouts(
            shots, np.column_stack((a_mean, cross_mean)), np.column_stack((var, cross_var)), rng
        )
        value = reads[:, 0].copy()
        for j, lam in enumerate(denominators):
            value -= (reads[:, 1 + 2 * j] ** 2 + reads[:, 2 + 2 * j] ** 2) / lam
        return value, float(np.abs(reads[:, 2::2]).max()), mean, var, reads.size

    return evaluate


def _vqd_evaluator(
    sign: float,
    spec: AnsatzSpec,
    parents: tuple[QuantumParent, ...],
    betas: Sequence[float],
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Rows -> sign*<M> + sum_j beta_j |<psi|psi_j>|^2, the overlaps read off the SwapTest ancilla.

    Per row the read-outs are sign*<M>, then each parent's SwapTest p0
    (closed form, Bernoulli variance), perturbed in that order.
    """
    parent_states = _parent_states(parents, spec.num_qubits)

    def evaluate(psi: np.ndarray, m_psi: np.ndarray) -> EvaluatorResult:
        mean, var, _ = state_moments(psi, m_psi)
        p0, p0_var = swap_test_moments(psi, parent_states)
        reads = perturb_readouts(
            shots, np.column_stack((sign * mean, p0)), np.column_stack((var, p0_var)), rng
        )
        value = reads[:, 0].copy()
        for j, beta in enumerate(betas):
            value += beta * np.clip(2.0 * reads[:, 1 + j] - 1.0, 0.0, 1.0)
        return value, 0.0, mean, var, reads.size

    return evaluate


def _ascend(
    m: PauliSum,
    spec: AnsatzSpec,
    theta: ParameterTensor,
    parents: tuple[QuantumParent, ...],
    cfg: SolverConfig,
    index: int,
    evaluate: Evaluator,
    eta: float,
    sign: float,
    rng: np.random.Generator,
) -> QuantumPlayerState:
    """The shared parameter-shift loop; ``sign`` +1 ascends the objective, -1 descends it.

    Each iteration prepares m + 1 states and applies M to them once
    (``parameter_shift_states``), which gives the 2m shifted rows and theta's
    row; the evaluator reads the objective on all 2m + 1, and the energy <M>
    is read on theta's row from the moments the evaluator computed, with its
    own shot draw.  Stops when the gradient norm reaches tolerance or the
    iteration budget runs out (partial result).  The final state is theta's
    prepared row when the loop converged and is prepared once otherwise; the
    eigenvalue is read on it.  Every draw site adds its read-outs to one
    count, stored with its shots at the end (0 and 0 when exact).

    The step is heavy-ball: vel <- beta_t vel + sign*eta*grad, theta += vel,
    with beta_t = t/(t + 3) and t the steps since the start or the last
    restart.  A restart (vel and t back to 0, counted in
    ``momentum_restarts``) happens whenever the new gradient step points
    against vel, the gradient restart of O'Donoghue & Candes (*Adaptive
    Restart for Accelerated Gradient Schemes*, FoCM 15, 2015): it reads only
    the gradient already estimated, so no tuning and no extra circuit.  The
    first ``ASCENT_WARMUP`` steps are plain ascent (beta = 0, no restart), so
    any budget of at most that many is plain parameter-shift ascent.
    """
    state = QuantumPlayerState(index=index, theta=theta, parents=parents)
    values = theta.values.copy()
    vel = np.zeros_like(values)
    steps = 0  # since the start or the last restart
    readouts = 0  # drawn by the evaluator and the energy reads
    for _ in range(cfg.max_iterations):
        psi, m_psi = parameter_shift_states(spec, m, values)
        objective, residue, energy_mean, energy_var, drawn = evaluate(psi, m_psi)
        state.max_imag_residue = max(state.max_imag_residue, residue)
        grad = shift_rule_gradient(objective[:-1])
        gnorm = math.sqrt(grad @ grad)
        if not math.isfinite(gnorm):  # a NaN or infinite entry of grad makes the norm so
            raise NumericalOverflowError("parameter-shift gradient stopped being finite")
        value = float(objective[-1])
        if not np.isfinite(value):
            raise NumericalOverflowError("objective stopped being finite")
        energy = float(perturb_readouts(cfg.shots, energy_mean[-1:], energy_var[-1:], rng)[0])
        readouts += drawn + 1
        state.grad_norm_history.append(gnorm)
        state.utility_history.append(value)
        state.energy_history.append(energy)
        if gnorm <= cfg.grad_tolerance:
            state.converged = True
            break
        step = sign * eta * grad
        if state.iterations_used < ASCENT_WARMUP:
            vel = step
        elif step @ vel < 0.0:  # the gradient turned against the velocity: restart from rest
            vel = step
            steps = 0
            state.momentum_restarts += 1
        else:
            vel = steps / (steps + 3.0) * vel + step
        steps += 1
        values = values + vel
        state.iterations_used += 1

    state.theta = theta.with_values(values)
    # A converged loop stopped on the theta it last prepared; a spent budget stepped past it.
    state.statevector = (StateVector(spec.num_qubits, psi[-1]) if state.converged
                         else apply_ansatz(spec, state.theta))
    state.eigenvalue = shot_noisy_expectation(m, state.statevector, cfg.shots, rng)
    if not cfg.shots.is_exact:
        state.readouts = readouts + 1  # and the eigenvalue read
        state.shots = state.readouts * cfg.shots.num_shots
    return state


def quantumgame_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: ParameterTensor | Sequence[float],
    parents: Sequence[QuantumParent],
    cfg: SolverConfig,
    index: int = 1,
) -> QuantumPlayerState:
    """Gradient ascent on the player utility via parameter-shift, parents frozen.

    Both directions ascend the utility of A = sign*M + offset*I, sign +1 to
    maximize and -1 to minimize, with offset = |coefficients|_1 + margin.
    Every eigenvalue of A is then at least the margin, so each parent's
    penalty denominator sign*lambda_j + offset stays positive whatever the
    sign of M's spectrum (a negative denominator would turn the penalty into
    a reward).  A is applied as algebra on M's moments (``_game_evaluator``),
    never built; the denominators come from the cached M-eigenvalues without
    re-measuring, and energies are read on M.
    """
    parents = tuple(parents)
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    sign = 1.0 if cfg.direction == "maximize" else -1.0
    offset = m.one_norm + MIN_MODE_SHIFT_MARGIN
    game_denominators = tuple(sign * p.eigenvalue + offset for p in parents)
    # 1/(2L) with L = ||A||; every eigenvalue of A is at least 1, so L is its largest one.
    lo, hi = m.spectral_range
    eta = 1.0 / (2.0 * (offset + (hi if sign > 0 else -lo)))
    rng = cfg.shots.make_rng()
    evaluate = _game_evaluator(m, sign, offset, spec, parents, game_denominators, cfg.shots, rng)
    return _ascend(m, spec, theta, parents, cfg, index, evaluate, eta, 1.0, rng)


def vqd_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: ParameterTensor | Sequence[float],
    parents: Sequence[QuantumParent],
    cfg: SolverConfig,
    index: int = 1,
) -> QuantumPlayerState:
    """Overlap-penalized minimization: sign*<M> + sum_j beta_j |<psi|psi_j>|^2.

    sign = +1 to minimize and -1 to maximize, so both directions descend.
    Fixed mode uses beta_j = cfg.beta.  Adaptive mode sets
    beta_j = 2 * (lambda_bound - a_j) where lambda_bound is the Pauli
    1-norm upper bound on the spectrum and a_j the parent's previously
    calculated eigenvalue on sign*M (lambda_j or -lambda_j), which always
    exceeds the gap the penalty must beat.  Overlaps are SwapTest read-outs;
    energies are read on M.
    """
    parents = tuple(parents)
    if cfg.beta is None and not cfg.adaptive_regularization:
        raise ValueError("vqd_player needs cfg.beta or adaptive_regularization")
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    sign = -1.0 if cfg.direction == "maximize" else 1.0
    if cfg.adaptive_regularization:
        bound = m.one_norm
        betas = tuple(2.0 * (bound - sign * p.eigenvalue) for p in parents)
    else:
        betas = tuple(cfg.beta for _ in parents)
    # The penalized objective is the expectation of sign*M + sum_j beta_j P_j,
    # so 1/(2L) uses that operator's norm bound, not ||M|| alone.
    lo, hi = m.spectral_range
    eta = 1.0 / (2.0 * (max(-lo, hi) + sum(betas)))
    rng = cfg.shots.make_rng()
    evaluate = _vqd_evaluator(sign, spec, parents, betas, cfg.shots, rng)
    return _ascend(m, spec, theta, parents, cfg, index, evaluate, eta, -1.0, rng)


@dataclass
class DeflationResult:
    pairs: list[tuple[float, np.ndarray]]
    complete: bool
    failed_level: int | None = None


VqeSolver = Callable[[HermitianMatrix, int], np.ndarray]


def exact_top_eigenvector_solver(matrix: HermitianMatrix, iterations: int) -> np.ndarray:
    """Oracle single-component maximizer: the dense top eigenvector."""
    vals, vecs = np.linalg.eigh(matrix.entries)
    return vecs[:, -1]


def deflation_vqe(
    m: HermitianMatrix,
    k: int,
    vqe_solver: VqeSolver = exact_top_eigenvector_solver,
    t: int = 1000,
) -> DeflationResult:
    """Explicit Hotelling deflation: M_{j+1} = M_j - lambda_j |psi_j><psi_j|.

    Each level maximizes on its own private deflated copy; the input operator
    is never touched.  Solver failures yield a partial result flagged at the
    failing level.
    """
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    if k > m.dim:
        raise ValueError(f"k={k} exceeds dimension {m.dim}")
    work = m.entries.copy()
    result = DeflationResult(pairs=[], complete=True)
    for level in range(1, k + 1):
        try:
            psi = vqe_solver(HermitianMatrix(work), t)
        except NonConvergenceError:
            result.complete = False
            result.failed_level = level
            return result
        lam = float(np.vdot(psi, work @ psi).real)
        result.pairs.append((lam, psi))
        work = work - lam * np.outer(psi, psi.conj())
        work = 0.5 * (work + work.conj().T)
    return result


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

    def play(r: int, parents: tuple[QuantumParent, ...]) -> tuple[QuantumPlayerState, QuantumParent]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        theta_init = spec.bind(rng.uniform(-np.pi, np.pi, size=spec.num_parameters))
        shots = replace(cfg.shots, rng_seed=int(rng.integers(0, 2**31 - 1)))
        state = player_fn(m, spec, theta_init, parents, replace(cfg, shots=shots), index=r)
        return state, QuantumParent(state.theta, state.eigenvalue, state.statevector)

    return run_players(k, play, lambda: pauli_sum_hash(m))


def run_quantumgame(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Players 1..k in sequence; every player's (theta, eigenvalue) is broadcast onward.

    The operator is hashed before and after the run: the whole point of the
    formulation is that no deflation step ever rewrites it.
    """
    return _sequential_run(m, spec, cfg, k, seed, quantumgame_player)


def run_vqd(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Sequential VQD baseline with the same broadcast bookkeeping."""
    return _sequential_run(m, spec, cfg, k, seed, vqd_player)
