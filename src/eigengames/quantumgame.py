"""Parameterized eigensolver players and their baselines.

The game player ascends a per-player utility whose penalty terms are built
from interference-circuit cross expectations against frozen parents, so no
operator is ever deflated.  The two baselines included for comparison are
overlap-penalized minimization (VQD) and explicit Hotelling deflation driven
by a pluggable single-component solver.
"""

from __future__ import annotations

import hashlib
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
    energy_moments,
    interference_moments,
    parameter_shift_points,
    pauli_sum_apply,
    perturb_readouts,
    shift_rule_gradient,
    shot_noisy_expectation,
    swap_test_moments,
)

PARENT_EIGENVALUE_GUARD = 1e-10
MIN_MODE_SHIFT_MARGIN = 1.0

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
    """One player's solve: final parameters, the state they prepare, and per-iteration histories."""

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


@dataclass(frozen=True)
class SolverConfig:
    """Shared hyperparameters for the parameterized solvers.

    There is no step-size setting: both players step 1/(2L), with L the
    spectral norm of the operator the loop actually optimizes (the shifted
    operator for the game; +-M plus the weighted overlap projectors for the
    penalized baseline).  ``direction``, "maximize" or "minimize", applies
    to both solvers.  ``beta`` >= 0 feeds the fixed-weight overlap
    penalty; ``adaptive_regularization`` instead sets the penalty weights to
    2 * (spectral upper bound - parent eigenvalue on +-M), which needs no
    tuning, so the two may not be combined.
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


def _game_operator(m: PauliSum, direction: Direction) -> tuple[PauliSum, float, float]:
    """Operator the ascent actually runs on, with the sign and offset that make it.

    Both directions ascend A = sign*M + offset*I, sign +1 to maximize and -1
    to minimize, with offset = |coefficients|_1 + margin.  Every eigenvalue of
    A is then at least the margin, so each parent's penalty denominator
    sign*lambda_j + offset stays positive whatever the sign of M's spectrum
    (a negative denominator would turn the penalty into a reward).  Energies
    are read on M.
    """
    sign = 1.0 if direction == "maximize" else -1.0
    offset = m.one_norm + MIN_MODE_SHIFT_MARGIN
    return m.scaled(sign).plus_identity(offset), sign, offset


# A batch evaluator maps (B, m) parameter rows to the objective at each row,
# the prepared (B, 2**q) states, and the largest imaginary cross read-out.
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, float]]


def _parent_states(parents: tuple[QuantumParent, ...], num_qubits: int) -> np.ndarray:
    return np.array([p.statevector.amplitudes for p in parents]).reshape(len(parents), 2**num_qubits)


# The cross term enters as |z|^2 rather than the literal complex square: both
# agree whenever states and operator are real (where the squared quantity is
# real), but the complex square depends on the ansatz's global phase, which a
# player can rotate freely to cancel or even invert its penalty.  Squaring the
# modulus keeps the penalty phase-invariant; the imaginary part is logged.


def _game_evaluator(
    op: PauliSum,
    spec: AnsatzSpec,
    parents: tuple[QuantumParent, ...],
    denominators: Sequence[float],
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Rows -> <op> - sum_j |<psi|op|psi_j>|^2 / lambda_j, read out as the circuits would be.

    Per row the read-outs are <op>, then Re and Im of each parent's cross
    term (interference circuit), each perturbed by the shot model in that
    order; their means and variances are the circuits' closed forms.
    ``op psi_j`` is applied once here, for every row and iteration.
    """
    for lam in denominators:
        if abs(lam) < PARENT_EIGENVALUE_GUARD:
            raise DegenerateParentError(
                f"cached parent eigenvalue {lam:.3e} is below the division guard"
            )
    parent_states = _parent_states(parents, spec.num_qubits)
    op_parents = pauli_sum_apply(op, parent_states)

    def evaluate(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        psi = apply_ansatz(spec, rows)
        op_psi, mean, var = energy_moments(op, psi)
        cross_mean, cross_var = interference_moments(psi, op_psi, parent_states, op_parents)
        reads = perturb_readouts(
            shots, np.column_stack((mean, cross_mean)), np.column_stack((var, cross_var)), rng
        )
        value = reads[:, 0].copy()
        for j, lam in enumerate(denominators):
            value -= (reads[:, 1 + 2 * j] ** 2 + reads[:, 2 + 2 * j] ** 2) / lam
        residue = float(np.abs(reads[:, 2::2]).max()) if parents else 0.0
        return value, psi, residue

    return evaluate


def _vqd_evaluator(
    m: PauliSum,
    spec: AnsatzSpec,
    parents: tuple[QuantumParent, ...],
    betas: Sequence[float],
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Evaluator:
    """Rows -> <M> + sum_j beta_j |<psi|psi_j>|^2, the overlaps read off the SwapTest ancilla.

    Per row the read-outs are <M>, then each parent's SwapTest p0 (closed
    form, Bernoulli variance), perturbed in that order.
    """
    parent_states = _parent_states(parents, spec.num_qubits)

    def evaluate(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        psi = apply_ansatz(spec, rows)
        _, mean, var = energy_moments(m, psi)
        p0, p0_var = swap_test_moments(psi, parent_states)
        reads = perturb_readouts(
            shots, np.column_stack((mean, p0)), np.column_stack((var, p0_var)), rng
        )
        value = reads[:, 0].copy()
        for j, beta in enumerate(betas):
            value += beta * np.clip(2.0 * reads[:, 1 + j] - 1.0, 0.0, 1.0)
        return value, psi, 0.0

    return evaluate


def _spectral_norm(h: PauliSum) -> float:
    """||h||, the largest |eigenvalue| of h densified by applying it to the identity."""
    dense = pauli_sum_apply(h, np.eye(2**h.num_qubits)).T
    return float(np.abs(np.linalg.eigvalsh(dense)).max())


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

    Each iteration evaluates the 2m shift points and theta in one batch, then
    reads the energy <M> on the batch's theta row.  Stops when the gradient
    norm reaches tolerance or the iteration budget runs out (partial result).
    The final state is that row when the loop converged and is prepared once
    otherwise; the eigenvalue is read on it.
    """
    state = QuantumPlayerState(index=index, theta=theta, parents=parents)
    values = theta.values.copy()
    for _ in range(cfg.max_iterations):
        objective, psi, residue = evaluate(parameter_shift_points(values))
        state.max_imag_residue = max(state.max_imag_residue, residue)
        grad = shift_rule_gradient(objective[:-1])
        if not np.all(np.isfinite(grad)):
            raise NumericalOverflowError("parameter-shift gradient stopped being finite")
        gnorm = float(np.linalg.norm(grad))
        value = float(objective[-1])
        if not np.isfinite(value):
            raise NumericalOverflowError("objective stopped being finite")
        energy = float(shot_noisy_expectation(m, psi[-1:], cfg.shots, rng)[0])
        state.grad_norm_history.append(gnorm)
        state.utility_history.append(value)
        state.energy_history.append(energy)
        if gnorm <= cfg.grad_tolerance:
            state.converged = True
            break
        values = values + sign * eta * grad
        state.iterations_used += 1

    state.theta = theta.with_values(values)
    # A converged loop stopped on the theta it last prepared; a spent budget stepped past it.
    state.statevector = (StateVector(spec.num_qubits, psi[-1]) if state.converged
                         else apply_ansatz(spec, state.theta))
    state.eigenvalue = shot_noisy_expectation(m, state.statevector, cfg.shots, rng)
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

    Both directions run the same ascent on a shifted operator (see
    ``_game_operator``); parent penalty denominators are derived from the
    cached M-eigenvalues without re-measuring.
    """
    parents = tuple(parents)
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    game_op, sign, offset = _game_operator(m, cfg.direction)
    game_denominators = tuple(sign * p.eigenvalue + offset for p in parents)
    # 1/(2L) with L the norm of the operator the ascent actually runs on.
    eta = 1.0 / (2.0 * _spectral_norm(game_op))
    rng = cfg.shots.make_rng()
    evaluate = _game_evaluator(game_op, spec, parents, game_denominators, cfg.shots, rng)
    return _ascend(m, spec, theta, parents, cfg, index, evaluate, eta, 1.0, rng)


def vqd_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: ParameterTensor | Sequence[float],
    parents: Sequence[QuantumParent],
    cfg: SolverConfig,
    index: int = 1,
) -> QuantumPlayerState:
    """Overlap-penalized minimization: <A> + sum_j beta_j |<psi|psi_j>|^2.

    A = M to minimize and A = -M to maximize, so both directions descend.
    Fixed mode uses beta_j = cfg.beta.  Adaptive mode sets
    beta_j = 2 * (lambda_bound - a_j) where lambda_bound is the Pauli
    1-norm upper bound on the spectrum and a_j the parent's previously
    calculated eigenvalue on A (lambda_j or -lambda_j), which always exceeds
    the gap the penalty must beat.  Overlaps are SwapTest read-outs; energies
    are read on M.
    """
    parents = tuple(parents)
    if cfg.beta is None and not cfg.adaptive_regularization:
        raise ValueError("vqd_player needs cfg.beta or adaptive_regularization")
    theta = theta_init if isinstance(theta_init, ParameterTensor) else spec.bind(theta_init)
    op, sign = (m.scaled(-1.0), -1.0) if cfg.direction == "maximize" else (m, 1.0)
    if cfg.adaptive_regularization:
        bound = m.one_norm
        betas = tuple(2.0 * (bound - sign * p.eigenvalue) for p in parents)
    else:
        betas = tuple(cfg.beta for _ in parents)
    # The penalized objective is the expectation of A + sum_j beta_j P_j,
    # so 1/(2L) uses that operator's norm bound, not ||M|| alone.
    eta = 1.0 / (2.0 * (_spectral_norm(m) + sum(betas)))
    rng = cfg.shots.make_rng()
    evaluate = _vqd_evaluator(op, spec, parents, betas, cfg.shots, rng)
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
