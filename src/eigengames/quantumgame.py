"""Parameterized eigensolver players and their baseline.

The game player ascends a per-player utility whose penalty terms are built
from interference-circuit cross expectations against frozen parents, so no
operator is ever deflated.  The baseline included for comparison is
overlap-penalized minimization (VQD).  The two differ in one thing, the
penalty each puts on M, so each player only states its ``Objective`` and
names the circuit that reads its parent terms (``_interference`` for the
game, ``_swap_test`` for VQD); one loop, ``_ascend``, does the rest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .eigengame_classical import HeavyBall, PlayerResult, SequentialResult, _parent_block, check_player_count, run_players
from .errors import NumericalOverflowError, parent_denominators, real_number, whole_number
from .hamiltonian import RANGE_RESIDUAL_TOL, PauliSum
from .quantum_sim import (
    NORM_ATOL,
    AnsatzSpec,
    ParameterTensor,
    ShotModel,
    _sweep_reads,
    _sweep_states,
    apply_ansatz,
    check_sweep,
    interference_moments,
    pauli_sum_apply,
    perturb_readouts,
    shift_rule_gradient,
    swap_test_moments,
)

MIN_MODE_SHIFT_MARGIN = 1.0

Direction = Literal["maximize", "minimize"]


@dataclass(frozen=True)
class SolverConfig:
    """Shared hyperparameters for the parameterized solvers.

    Both players' objective is one expectation <psi|K psi> + c with
    K = s*M + sum_j w_j |k_j><k_j| (``Objective``): the game has
    k_j = A psi_j and w_j = -1/(sign*lambda_j + offset), with
    A = sign*M + offset*I and c = offset; VQD has k_j = psi_j, w_j = beta_j
    and c = 0.  Under finite shots the game reads its parent terms with the
    interference circuit and VQD with the SwapTest.  There is no step-size
    or momentum setting: both players run the one heavy-ball loop
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
    ``max_iterations`` is a whole number of at least 1
    (``errors.whole_number``), as ``ShotModel.num_shots`` is;
    ``grad_tolerance`` is a positive and ``beta`` a non-negative finite real
    number (``errors.real_number``).
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
        whole_number("max_iterations", self.max_iterations)
        real_number("grad_tolerance", self.grad_tolerance, "positive")
        if self.beta is not None:
            real_number("beta", self.beta, "non-negative")
        if self.beta is not None and self.adaptive_regularization:
            raise ValueError("beta and adaptive_regularization exclude each other")


def pauli_sum_hash(h: PauliSum) -> str:
    """Canonical content hash used by the structural no-mutation check."""
    blob = repr((h.num_qubits, tuple(h.terms))).encode()
    return hashlib.sha256(blob).hexdigest()


class Objective(NamedTuple):
    """One player's objective <psi|K psi> + c, K = s*M + sum_j w_j |k_j><k_j|, and its signed step.

    ``scale`` is s and ``constant`` c; ``kets`` is the (P, 2**q) block of
    the k_j and ``weights`` their (P,) float64 w_j.  ``eta`` is the signed
    step: positive to ascend the objective, negative to descend it.
    ``operator_rows`` counts the rows M was applied to in forming the kets.
    """

    scale: float
    kets: np.ndarray
    weights: np.ndarray
    constant: float
    eta: float
    operator_rows: int = 0


# A read maps one sweep's (m+1, 2**q) prepared rows phi_0, ..., phi_{m-1},
# psi (``parameter_shift_states``) to the objective's gradient in theta, the
# objective and the <M> read-out on theta's row psi, the largest imaginary
# residue it read, the number of finite-shot read-outs it drew and the
# number of rows it applied M to.  A one-row base is the single state psi,
# read with an empty gradient.  ``_ascend`` picks the read once per player:
# ``_backward_read`` under an exact shot model, ``_shot_read`` under finite
# shots.
ReadResult = tuple[np.ndarray, float, float, float, int, int]
Read = Callable[[np.ndarray], ReadResult]

# A circuit reads the parent terms |<r|k_j>|^2 of an objective on the shift
# rows r under finite shots.  Given the objective it returns two functions:
# ``moments`` maps the rows' (B, P) products <r|k_j>, their <M> and their
# ||M r||^2 to the (B, C) means and variances of the circuit's read-outs, C
# per parent, in the order they are read; ``penalty`` maps those read-outs,
# drawn, to sum_j w_j times the circuit's estimate of |<r|k_j>|^2, per row.
Circuit = Callable[[Objective], tuple[Callable, Callable]]


def _backward_read(m: PauliSum, objective: Objective) -> Read:
    """The exact read of the objective <psi|K psi> + c, K = s*M + sum_j w_j |k_j><k_j|.

    M is applied to theta's row alone, as a vector.  Each parameter drives
    one Pauli rotation, so d_k psi = phi_k / 2 and the gradient is
    Re<phi_k|g> with g = K psi = s*M psi + sum_j w_j <k_j|psi> k_j: one
    product of the conjugated phi_k with g.  An imaginary part of
    <psi|M psi> beyond ``NORM_ATOL`` raises ``ValueError``, as
    ``sweep_reads`` does.  The objective is Re<psi|g> + c and the energy
    Re<psi|M psi>; nothing is drawn.  The rows' norms and the rotation
    guard, Re<psi|phi_k> = 0, are ``check_sweep``'s, which ``_ascend`` runs
    on its last sweep.
    """
    scale, kets, weights, constant, _, _ = objective
    ket_bras = kets.conj()

    def read(prepared: np.ndarray) -> ReadResult:
        phi, psi = prepared[:-1], prepared[-1]
        m_psi = pauli_sum_apply(m, psi)
        energy = complex(np.vdot(psi, m_psi))
        residue = abs(energy.imag)
        if residue > NORM_ATOL:
            raise ValueError(f"expectation has imaginary residue {residue:.3e}")
        g = scale * m_psi + ((ket_bras @ psi) * weights) @ kets
        return (phi.conj() @ g).real, float(np.vdot(psi, g).real) + constant, energy.real, residue, 0, 1

    return read


# The cross term enters as |z|^2 rather than the literal complex square: both
# agree whenever states and operator are real (where the squared quantity is
# real), but the complex square depends on the ansatz's global phase, which a
# player can rotate freely to cancel or even invert its penalty.  Squaring the
# modulus keeps the penalty phase-invariant; the imaginary part is logged.


def _interference(objective: Objective) -> tuple[Callable, Callable]:
    """The game's circuit: Re and Im of each cross term <r|A|psi_j>, A = s*M + c*I, per row.

    The kets are the game's A psi_j (``_game_objective``), so the products
    <r|k_j> are the cross terms, and A is never built.  The read-outs'
    means and variances are the circuit's closed forms
    (``interference_moments``), with ||A r||^2 = ||M r||^2 + 2*s*c*<M> + c^2
    (s = +-1) and the kets' own ||A psi_j||^2.  Each weight counts twice,
    once on the Re and once on the Im read-out squared.  The kets' second
    moments and the repeated weights are formed once, for every row and
    iteration.
    """
    scale, kets, weights, constant, _, _ = objective
    ket_second = np.vecdot(kets, kets).real
    read_weights = np.repeat(weights, 2)

    def moments(products: np.ndarray, mean: np.ndarray, second: np.ndarray):
        a_second = second + 2.0 * scale * constant * mean + constant * constant
        return interference_moments(products, a_second, ket_second)

    def penalty(reads: np.ndarray) -> np.ndarray:
        return reads**2 @ read_weights

    return moments, penalty


def _swap_test(objective: Objective) -> tuple[Callable, Callable]:
    """VQD's circuit: each parent's SwapTest p0 = (1 + |<r|psi_j>|^2)/2, per row.

    The kets are the parent states, and the read-outs have the SwapTest's
    closed-form mean and Bernoulli variance (``swap_test_moments``); each
    estimate 2*p0 - 1 of the squared overlap is clipped to [0, 1].
    """
    weights = objective.weights

    def moments(products: np.ndarray, mean: np.ndarray, second: np.ndarray):
        return swap_test_moments(products)

    def penalty(reads: np.ndarray) -> np.ndarray:
        # np.clip's bits, without its per-call dispatch.
        return np.minimum(np.maximum(2.0 * reads - 1.0, 0.0), 1.0) @ weights

    return moments, penalty


def _shot_read(
    m: PauliSum,
    objective: Objective,
    circuit: Circuit,
    shots: ShotModel,
    rng: np.random.Generator | None,
) -> Read:
    """The finite-shot read of the objective on the 2m + 1 shift rows r, then the shift rule.

    Per row the read-outs are <M>, then the circuit's read-outs of each
    parent term, perturbed by the shot model in that order in one draw;
    their means and variances come from the rows' moments and their
    products with the kets (``sweep_reads``).  Row r's objective is
    s*<M> + c + sum_j w_j * (the circuit's estimate of |<r|k_j>|^2), and its
    energy its <M> read-out.  Without parents the draw is the rows' <M>
    read-outs alone, the same normals in the same order, and no product
    with the kets, circuit moment or penalty is formed.  ``rng`` may be
    ``None`` only under an exact ``shots`` model (``perturb_readouts``).
    The rows are read without ``check_sweep``, which ``_ascend`` runs on its
    last sweep.
    """
    scale, kets, _, constant, _, _ = objective
    moments, penalty = circuit(objective)
    kets = kets if len(kets) else None

    def read(prepared: np.ndarray) -> ReadResult:
        (mean, var, second, residue), products, applied = _sweep_reads(m, prepared, kets)
        if products is None:
            reads = perturb_readouts(shots, mean, var, rng)
            value = scale * reads + constant
            energy = reads[-1]
        else:
            cross_mean, cross_var = moments(products, mean, second)
            # Column 0 is each row's <M>, the rest its circuit's read-outs.
            pair = np.empty((2, len(mean), 1 + cross_mean.shape[1]))
            pair[0, :, 0] = mean
            pair[1, :, 0] = var
            pair[0, :, 1:] = cross_mean
            pair[1, :, 1:] = cross_var
            reads = perturb_readouts(shots, pair[0], pair[1], rng)
            value = scale * reads[:, 0] + constant + penalty(reads[:, 1:])
            energy = reads[-1, 0]
        return shift_rule_gradient(value[:-1]), float(value[-1]), float(energy), residue, reads.size, applied

    return read


def _parent_arrays(spec: AnsatzSpec, states, eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (P, 2**q) block of parent states and their (P,) eigenvalues on M.

    The states pass the one parent intake, ``_parent_block``, at
    ``NORM_ATOL``: a state off unit norm by more than that (NaN too) raises
    ``NormalizationError``.
    """
    block = _parent_block(states, 2**spec.num_qubits, np.complex128, NORM_ATOL)
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if eigenvalues.shape != (len(block),):
        raise ValueError(f"need one eigenvalue per parent state: {eigenvalues.shape} for {len(block)} states")
    return block, eigenvalues


def _ascend(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: Sequence[float] | np.ndarray,
    parents: np.ndarray,
    cfg: SolverConfig,
    objective: Objective,
    circuit: Circuit,
    index: int,
) -> PlayerResult:
    """One player's solve, once its objective is stated: the shared parameter-shift loop.

    The player passes its (P, 2**q) parent block, its ``Objective`` and the
    ``Circuit`` that reads its parent terms under finite shots; the one sign
    rule is the objective's signed step, positive to ascend (the game) and
    negative to descend (VQD).  Here the start theta is bound, the shot
    stream opened from ``cfg.shots`` when its shots are finite (an exact
    model draws nothing), and the read picked: under an exact
    shot model ``_backward_read``, which applies M to theta's row alone and
    takes the gradient from one backward vector; under finite shots
    ``_shot_read``, which reads the 2m + 1 shift rows' circuits.  Each
    iteration prepares its m + 1 states in one call
    (``quantum_sim._sweep_states``, the core of ``parameter_shift_states``
    without its check) and reads the gradient, the objective and the <M>
    read-out on theta's row, the iteration's energy, from them: no circuit
    is read twice.  Stops when the gradient norm
    reaches tolerance or the iteration budget runs out (partial result).

    The loop checks its invariants once per player, not per sweep: theta
    is bound finite, the gates are Pauli rotations, and the gradient and
    objective are tested finite on every pass, so the sweeps' unit norms
    and the rotation guard (``check_sweep``) run on the last sweep alone,
    after the loop and before the result is built.  A sweep that lost unit
    norm or has a real overlap with psi still raises
    ``NormalizationError`` before the player returns.  The public
    ``parameter_shift_states`` and ``sweep_reads`` check every call.

    On either exit the final theta's state is prepared (``apply_ansatz``,
    which checks it), and M applied to it, once, and read as a one-row
    base: the eigenvalue read (the last draw of the stream), the residual
    and, from its products with the parents, the largest parent overlap.
    Every draw site adds its read-outs to one count, stored with its shots
    at the end (0 and 0 when exact), and every preparation and read its
    rows to the row counts.

    The step is heavy-ball, vel <- beta_t vel + eta*grad and
    theta += vel, with beta_t and its restarts from ``HeavyBall``, the rule
    the classical player shares: no extra circuit.  A layout with no
    parameters raises ``ValueError`` before anything is prepared: its empty
    gradient would pass the stop test on the initial state.
    """
    if not spec.num_parameters:
        raise ValueError("the ansatz layout has no parameters to optimize")
    theta = spec.bind(theta_init)
    exact = cfg.shots.is_exact
    rng = None if exact else cfg.shots.make_rng()  # an exact model draws nothing
    read = _backward_read(m, objective) if exact else _shot_read(m, objective, circuit, cfg.shots, rng)
    vel = np.zeros_like(theta)
    ball = HeavyBall()
    eta, tolerance = objective.eta, cfg.grad_tolerance
    grad_norms, utilities, energies = [], [], []
    add_grad_norm, add_utility, add_energy = grad_norms.append, utilities.append, energies.append
    steps = readouts = prepared_rows = 0  # readouts: drawn by the read
    operator_rows = objective.operator_rows
    residue_max = 0.0
    stopped = False
    for _ in range(cfg.max_iterations):
        prepared = _sweep_states(spec, theta)
        grad, value, energy, residue, drawn, applied = read(prepared)
        residue_max = max(residue_max, residue)
        gnorm = math.sqrt(grad @ grad)
        if not math.isfinite(gnorm):  # a NaN or infinite entry of grad makes the norm so
            raise NumericalOverflowError("parameter-shift gradient stopped being finite")
        if not math.isfinite(value):
            raise NumericalOverflowError("objective stopped being finite")
        readouts += drawn
        prepared_rows += len(prepared)
        operator_rows += applied
        add_grad_norm(gnorm)
        add_utility(value)
        add_energy(energy)
        if gnorm <= tolerance:
            stopped = True
            break
        step = eta * grad
        beta = ball.weight(steps, float(step @ vel))
        vel = beta * vel + step
        theta = theta + vel
        steps += 1

    check_sweep(prepared)
    final = apply_ansatz(spec, theta[None, :])
    final.flags.writeable = False
    (mean, var, _, _), products, applied = _sweep_reads(m, final, parents)
    eigenvalue = float(perturb_readouts(cfg.shots, mean, var, rng)[0])
    shots = 0
    if not exact:
        readouts += 1  # the eigenvalue read
        shots = readouts * cfg.shots.num_shots
    return PlayerResult(
        index, parents, final[0], eigenvalue, residual=math.sqrt(var[0]),
        max_parent_overlap=float((np.abs(products) ** 2).max(initial=0.0)),
        iterations_used=steps, converged=stopped, stopped=stopped, momentum_restarts=ball.restarts,
        readouts=readouts, shots=shots, prepared_rows=prepared_rows + len(final),
        operator_rows=operator_rows + applied, theta=ParameterTensor(theta),
        energy_history=energies, utility_history=utilities, grad_norm_history=grad_norms,
        max_imag_residue=residue_max,
    )


def _game_objective(
    m: PauliSum, states: np.ndarray, eigenvalues: Sequence[float], direction: Direction
) -> Objective:
    """The game's objective: the utility of A = sign*M + offset*I, ascended with the step 1/(2L).

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
    operator's shortfall exceed it.

    ``states`` is the (P, 2**q) parent block psi_j and ``eigenvalues`` their
    (P,) eigenvalues lambda_j on M.  The utility
    <A> - sum_j |<psi|A|psi_j>|^2 / (sign*lambda_j + offset) is the
    objective <psi|K psi> + offset with K = sign*M + sum_j w_j |A psi_j><A psi_j|
    and w_j = -1/(sign*lambda_j + offset).  M is applied to the block once;
    without parents the block is empty and no row is counted.  Each
    denominator must pass ``errors.parent_denominators``, the classical
    game matrix's rule too, on scale 1 since the margin is at least 1: one
    at or below ``PARENT_DENOMINATOR_FLOOR`` (1e-10), or NaN, raises
    ``DegenerateParentError``, since the parent's eigenvalue then lies
    farther outside M's enclosure than the margin.
    The quantum error-accumulation harness and the test oracle build the
    game's objective here too.
    """
    sign = 1.0 if direction == "maximize" else -1.0
    lo, hi = m.spectral_range
    margin = max(MIN_MODE_SHIFT_MARGIN, 2.0 * RANGE_RESIDUAL_TOL * max(-lo, hi))
    offset = (-lo if sign > 0 else hi) + margin
    denominators = sign * np.asarray(eigenvalues, dtype=np.float64) + offset
    parent_denominators(denominators, "the parent's eigenvalue lies outside the operator's enclosure")
    kets = sign * pauli_sum_apply(m, states) + offset * states
    eta = 1.0 / (2.0 * (hi - lo + margin))
    return Objective(sign, kets, -1.0 / denominators, offset, eta, len(states))


def quantumgame_player(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_init: Sequence[float] | np.ndarray,
    parent_states,
    parent_eigenvalues: Sequence[float],
    cfg: SolverConfig,
    index: int = 1,
) -> PlayerResult:
    """Gradient ascent on the player utility via parameter-shift, parents frozen.

    ``parent_states`` is the (P, 2**q) block of parent states psi_j, or a
    list of them, and ``parent_eigenvalues`` their (P,) eigenvalues lambda_j
    on M, read when each parent was solved and never re-measured.  Both
    directions ascend the utility of A = sign*M + offset*I, every
    eigenvalue of which lies in [margin, L], with the step +1/(2L)
    (``_game_objective``).  A caller-supplied parent whose eigenvalue lies
    farther outside M's enclosure than the margin raises
    ``DegenerateParentError`` before any circuit runs.  A is applied as
    algebra on M, never built: on the interference circuits' moments under
    finite shots (``_interference``) and on the backward vector under an
    exact model.  Energies are read on M.
    """
    states, eigenvalues = _parent_arrays(spec, parent_states, parent_eigenvalues)
    objective = _game_objective(m, states, eigenvalues, cfg.direction)
    return _ascend(m, spec, theta_init, states, cfg, objective, _interference, index)


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
    theta_init: Sequence[float] | np.ndarray,
    parent_states,
    parent_eigenvalues: Sequence[float],
    cfg: SolverConfig,
    index: int = 1,
) -> PlayerResult:
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
    overlaps are SwapTest read-outs (``_swap_test``); under an exact model
    the gradient comes from the backward vector.  Energies are read on M.
    """
    if cfg.beta is None and not cfg.adaptive_regularization:
        raise ValueError("vqd_player needs cfg.beta or adaptive_regularization")
    states, eigenvalues = _parent_arrays(spec, parent_states, parent_eigenvalues)
    sign = -1.0 if cfg.direction == "maximize" else 1.0
    if cfg.adaptive_regularization:
        betas = 2.0 * (m.one_norm - sign * eigenvalues)
    else:
        betas = np.full(len(states), cfg.beta, dtype=np.float64)
    # The penalized objective is the expectation of sign*M + sum_j beta_j P_j,
    # so 1/(2L) uses that operator's norm bound, not ||M|| alone.
    lo, hi = m.spectral_range
    eta = 1.0 / (2.0 * (max(-lo, hi) + _penalty_norm_bound(states, betas)))
    objective = Objective(sign, states, betas, 0.0, -eta)
    return _ascend(m, spec, theta_init, states, cfg, objective, _swap_test, index)


def _sequential_run(
    m: PauliSum,
    spec: AnsatzSpec,
    cfg: SolverConfig,
    k: int,
    seed: int,
    player_fn,
) -> SequentialResult:
    """What the two quantum runners add to ``run_players``: the seed and operator checks and each player's start.

    ``run_players`` holds k to the register dimension 2**q and hands player
    r the states and eigenvalues of players 1..r-1.  Player r's start
    theta and shot stream come from ``SeedSequence(seed, spawn_key=(r,))``.
    """
    whole_number("seed", seed, minimum=0)
    check_player_count(k, 2**spec.num_qubits)  # before the Lanczos run of ``spectral_range``
    if m.spectral_range == (0.0, 0.0):
        raise ValueError("the zero operator has no leading eigenvectors: every state is one")

    def play(r: int, states: list[np.ndarray], eigenvalues: list[float]) -> PlayerResult:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        theta_init = rng.uniform(-np.pi, np.pi, size=spec.num_parameters)
        shots = replace(cfg.shots, rng_seed=int(rng.integers(0, 2**31 - 1)))
        return player_fn(m, spec, theta_init, states, eigenvalues, replace(cfg, shots=shots), index=r)

    return run_players(k, 2**spec.num_qubits, play, lambda: pauli_sum_hash(m))


def run_quantumgame(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Players 1..k in sequence; player r's parents are the states and eigenvalues of players 1..r-1.

    Each player is a parent of every later one whether or not it converged.
    The operator is hashed before and after the run: the whole point of the
    formulation is that no deflation step ever rewrites it.  Player r's
    start and shot stream come from ``SeedSequence(seed, spawn_key=(r,))``;
    ``cfg.shots.rng_seed`` is not read.  ``seed`` must be a non-negative
    integer and ``k`` a whole number (``errors.whole_number``) of at most
    2**q (``run_players``), checked before any player runs.
    """
    return _sequential_run(m, spec, cfg, k, seed, quantumgame_player)


def run_vqd(m: PauliSum, spec: AnsatzSpec, cfg: SolverConfig, k: int, seed: int) -> SequentialResult:
    """Sequential VQD baseline with the same parents and seeding as ``run_quantumgame``."""
    return _sequential_run(m, spec, cfg, k, seed, vqd_player)
