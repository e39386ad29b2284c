"""Numeric evaluators for the solver's convergence and error-accumulation bounds.

These are proof-level constants, not tight estimates: the iteration bounds in
particular carry factorial/eigengap products that dwarf observed counts.  The
measurement harnesses below sample gradients and check the corresponding
inequality with zero tolerance for violations.

The quantum bounds carry the classical ones into parameter space through the
circuit's parameter count m.  Each parameter drives one Pauli rotation
R(t) = exp(-i t P / 2), and R(t + pi) = -i P R(t), so the derivative of the
prepared state is half another prepared state: d_k psi = phi_k / 2 with
phi_k = psi(theta + pi e_k), a unit vector.  A utility f whose state-space
gradient is g (df = Re<g|d psi>, so g = 2 G psi where the classical game has
2 G v) then has d_k f = Re<g|phi_k> / 2, hence |d_k f| <= ||g|| / 2 and
||grad_theta f|| <= sqrt(m) ||g|| / 2 <= sqrt(m) ||g||.  The paper's
sqrt(layers * qubits) is the case of one rotation per qubit per layer;
stated on m, a circuit's bounds do not depend on how its gates are grouped
into layers.  The code applies the factor in one place per bound:
``lipschitz_bound_quantum`` is sqrt(m) times ``lipschitz_bound_classical`` at
sigma = 0, and ``error_accumulation_bound_quantum`` is sqrt(m) times the
classical parent sum (``_parent_error_sum``) at sigma = 0 on the prepared
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateParentError, real_number, whole_number
from .eigengame_classical import RAYLEIGH_GUARD, _as_symmetric_array, ascended_matrix, finite_diff_gradient
from .hamiltonian import PauliSum, build_powerlaw_hamiltonian, hermitian_array, pauli_sum_to_matrix
from .quantum_sim import AnsatzSpec, apply_ansatz, parameter_shift_states
from .quantumgame import _backward_read, _game_objective


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the bound formulas.

    ``kappa`` is the spectral ratio lambda_top / lambda_(i-1,i-1) of the last
    parent; ``c`` is the parent-accuracy constant in [0, 1/16]; ``sigma`` the
    forward-differences perturbation; ``diag_norm`` = ||diag(M)||_2;
    ``num_parameters`` is the circuit's parameter count m, read only by the
    quantum bound.  ``player_index`` (1-based, at most ``len(gaps)``) and
    ``num_parameters`` are whole numbers of at least 1
    (``errors.whole_number``).  ``lambda_top`` and ``kappa`` are finite real
    numbers, each gap a positive and ``c``, ``sigma`` and ``diag_norm``
    non-negative ones (``errors.real_number``), ``c`` at most 1/16; anything
    else, NaN included, raises ``ValueError``.
    """

    lambda_top: float
    gaps: tuple[float, ...]
    player_index: int
    kappa: float = 1.0
    c: float = 0.0
    sigma: float = 0.0
    num_parameters: int = 1
    diag_norm: float = 0.0

    def __post_init__(self):
        real_number("c", self.c, "non-negative")
        if self.c > 1.0 / 16.0:
            raise ValueError(f"c must be at most 1/16, got {self.c!r}")
        for j, g in enumerate(self.gaps):
            real_number(f"gaps[{j}]", g, "positive")
        real_number("lambda_top", self.lambda_top)
        if self.gaps and not self.lambda_top >= max(self.gaps):
            raise ValueError("lambda_top must be at least the largest gap")
        whole_number("player_index", self.player_index)
        whole_number("num_parameters", self.num_parameters)
        real_number("kappa", self.kappa)
        real_number("sigma", self.sigma, "non-negative")
        real_number("diag_norm", self.diag_norm, "non-negative")
        if self.player_index > len(self.gaps):
            raise ValueError(f"player_index must be at most len(gaps) = {len(self.gaps)}, got {self.player_index!r}")

    @property
    def gap_i(self) -> float:
        return self.gaps[self.player_index - 1]


def lipschitz_bound_classical(p: BoundParams) -> float:
    """Gradient-norm bound with accurate parents:
    4 (lambda_top * i + (1 + kappa) c g_i) + sigma (||diag(M)|| + 2 (i-1) lambda_top kappa).
    """
    i = p.player_index
    noiseless = 4.0 * (p.lambda_top * i + (1.0 + p.kappa) * p.c * p.gap_i)
    error = p.sigma * (p.diag_norm + 2.0 * (i - 1) * p.lambda_top * p.kappa)
    return noiseless + error


def lipschitz_bound_quantum(p: BoundParams) -> float:
    """Parameter-space analog: sqrt(m) times the sigma=0 classical bound.

    ||grad_theta f|| <= sqrt(m) ||g|| (module docstring) with ||g|| at most
    the classical gradient-norm bound.
    """
    return math.sqrt(p.num_parameters) * lipschitz_bound_classical(replace(p, sigma=0.0))


def _iteration_bracket(lambda_top: float, gaps: Sequence[float], c_k: float) -> float:
    """Shared factor [(16 lambda_top)^{k-1} (k-1)! / prod(g_j) / (16 c_k)].

    A gap or ``c_k`` that is not a positive finite real number raises
    ``ZeroDivisionError`` (``errors.real_number``), as the bound divides by
    it; empty ``gaps``, no player, raise ``ValueError``.
    """
    if not gaps:
        raise ValueError("the iteration bounds need at least one player's gap")
    real_number("lambda_top", lambda_top)
    k = len(gaps)
    gap_product = 1.0
    for j, g in enumerate(gaps):
        real_number(f"gaps[{j}]", g, "positive", error=ZeroDivisionError)
        gap_product *= g
    real_number("c_k", c_k, "positive", error=ZeroDivisionError)
    return (16.0 * lambda_top) ** (k - 1) * math.factorial(k - 1) / gap_product / (16.0 * c_k)


def iteration_bound_classical(
    lipschitz_zero: Sequence[float],
    lipschitz_sigma: Sequence[float],
    lambda_top: float,
    gaps: Sequence[float],
    c_k: float,
) -> int:
    """ceil( sum_i 5 pi^2 (L_i(0)/L_i(sigma)) * bracket^2 ), the pre-big-O total.

    The bound is stated for plain gradient ascent.  ``eigengame_player`` runs
    Riemannian heavy-ball ascent with restart (``HeavyBall``) after a plain
    warm-up of ``ASCENT_WARMUP`` steps; its counts fall below plain ascent's.
    Every Lipschitz value must be a positive finite real number
    (``errors.real_number``).
    """
    if len(lipschitz_zero) != len(lipschitz_sigma) or len(lipschitz_zero) != len(gaps):
        raise ValueError("need one L_i(0), L_i(sigma), and gap per player")
    for j, (l0, ls) in enumerate(zip(lipschitz_zero, lipschitz_sigma)):
        real_number(f"lipschitz_zero[{j}]", l0, "positive")
        real_number(f"lipschitz_sigma[{j}]", ls, "positive")
    bracket = _iteration_bracket(lambda_top, gaps, c_k)
    total = sum(
        5.0 * math.pi**2 * (l0 / ls) * bracket**2
        for l0, ls in zip(lipschitz_zero, lipschitz_sigma)
    )
    return math.ceil(total)


def iteration_bound_quantum(
    lipschitz_theta: Sequence[float],
    num_parameters: int,
    lambda_top: float,
    gaps: Sequence[float],
    c_k: float,
) -> int:
    """ceil( sum_i 4 pi^2 (L_theta_i^2 / sqrt(m)) * bracket^2 ), m = ``num_parameters``.

    The paper states the divisor as sqrt(layers * qubits), which counts the
    rotations only when there is one per qubit per layer; m counts them for
    any circuit.

    The bound is stated for plain parameter-shift ascent.  The quantum
    players run the same heavy-ball rule (``HeavyBall``) after a plain
    warm-up of ``ASCENT_WARMUP`` steps; their counts fall below plain
    ascent's (2-4x on noiseless H2), so they stay below this bound as well.
    Every Lipschitz value must be a positive finite real number
    (``errors.real_number``).
    """
    whole_number("num_parameters", num_parameters)
    if len(lipschitz_theta) != len(gaps):
        raise ValueError("need one L_theta and gap per player")
    for j, lip in enumerate(lipschitz_theta):
        real_number(f"lipschitz_theta[{j}]", lip, "positive")
    bracket = _iteration_bracket(lambda_top, gaps, c_k)
    scale = math.sqrt(num_parameters)
    total = sum(4.0 * math.pi**2 * (lt**2 / scale) * bracket**2 for lt in lipschitz_theta)
    return math.ceil(total)


def _parent_error_sum(mat: np.ndarray, parents_true: Sequence, parents_hat: Sequence, sigma: float) -> float:
    """2||M|| sum_j (2 ||v_j|| ||w_j|| + ||w_j||^2) lambda_top/lambda_jj
    + sigma sum_j (2 ||M v_j|| ||M w_j|| + ||M w_j||^2) / lambda_jj.

    ``mat`` is a checked Hermitian array, real or complex; w_j = v_hat_j - v_j
    is the parent displacement and lambda_jj = <v_j|M v_j> the true parent's
    Rayleigh quotient.  The first sum bounds ||v_j w_j^T|| + ||w_j v_j^T|| +
    ||w_j w_j^T|| by norms of rank-one maps.  One ``eigvalsh`` gives both
    lambda_top and ||M||_2 = max(-lambda_min, lambda_max).  The factor
    lambda_top/lambda_jj holds only when lambda_jj has lambda_top's sign, as
    in the paper's positive-definite setting; a parent with a near-zero or
    opposite-sign lambda_jj raises ``DegenerateParentError``.
    """
    eigenvalues = np.linalg.eigvalsh(mat)
    lambda_top = float(eigenvalues[-1])
    norm_m = max(-float(eigenvalues[0]), lambda_top)
    total = 0.0
    for v_j, v_hat in zip(parents_true, parents_hat):
        w_j = np.subtract(v_hat, v_j)
        mv, mw = mat @ v_j, mat @ w_j
        lambda_jj = float(np.vdot(v_j, mv).real)
        if abs(lambda_jj) < RAYLEIGH_GUARD or lambda_jj * lambda_top <= 0:
            raise DegenerateParentError(
                f"true parent's Rayleigh quotient {lambda_jj:g} is near zero or not of lambda_top's sign ({lambda_top:g})"
            )
        nv, nw = float(np.linalg.norm(v_j)), float(np.linalg.norm(w_j))
        nmv, nmw = float(np.linalg.norm(mv)), float(np.linalg.norm(mw))
        total += 2.0 * norm_m * (2.0 * nv * nw + nw * nw) * lambda_top / lambda_jj
        total += sigma * (2.0 * nmv * nmw + nmw**2) / lambda_jj
    return total


def _ascended(m) -> np.ndarray:
    """The matrix A = M + c I that ``run_sequential``'s players ascend (``ascended_matrix``).

    ``m`` must be real symmetric, as a ``HermitianMatrix`` or an array
    (``_as_symmetric_array``); anything else raises ``HermiticityError``.
    """
    mat = _as_symmetric_array(m)
    return ascended_matrix(mat, np.linalg.eigvalsh(mat))[0]


def error_accumulation_bound_classical(
    m,
    parents_true: Sequence[np.ndarray],
    parents_hat: Sequence[np.ndarray],
    sigma: float,
) -> float:
    """Bound on the child-gradient change caused by mis-specified parents.

    The parent sum of ``_parent_error_sum`` on the matrix the players
    ascend, A = M + c I (``ascended_matrix``): A = M when M is positive
    definite, and otherwise every eigenvalue of A is at least ||M||_2, so
    each parent's Rayleigh quotient has lambda_top's sign, as the bound
    assumes.  ``m`` must be real symmetric, as a ``HermitianMatrix`` or an
    array; anything else raises ``HermiticityError``.
    """
    return _parent_error_sum(_ascended(m), parents_true, parents_hat, sigma)


def error_accumulation_bound_quantum(
    m,
    spec: AnsatzSpec,
    parents_true_theta: Sequence,
    parents_hat_theta: Sequence,
) -> float:
    """Parameter-space analog: sqrt(spec.num_parameters) times the sigma=0
    classical sum on the prepared states, so w_j is the statevector
    displacement v(theta_hat_j) - v(theta_j).

    The state-space sum bounds the change of the gradient g, and each
    parameter-space component is Re<delta g|phi_k> / 2, so the change of
    grad_theta is at most sqrt(spec.num_parameters) times it (module
    docstring).  ``m`` must be Hermitian, as a ``HermitianMatrix`` or an
    array that ``hermitian_array`` passes.  It is the operator
    whose gradient the bound covers: ``measure_error_accumulation_quantum``
    passes the game's A = sign*M + offset*I, whose every eigenvalue is
    positive, as the paper's theory assumes.  Each theta is bound to
    ``spec`` and the parent states are prepared in one ``apply_ansatz``
    call, true parents first."""
    mat = hermitian_array(m)
    thetas = [spec.bind(theta) for theta in (*parents_true_theta, *parents_hat_theta)]
    states = apply_ansatz(spec, np.reshape(thetas, (len(thetas), spec.num_parameters)))
    v_true, v_hat = np.split(states, [len(parents_true_theta)])
    return math.sqrt(spec.num_parameters) * _parent_error_sum(mat, v_true, v_hat, 0.0)


# ---------------------------------------------------------------------------
# Measurement harnesses (drive the invariant suites and the diagnostics command)
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticRow:
    """One checked inequality; the error-accumulation rows also carry their parent perturbation epsilon."""

    bound_name: str
    parameters: str
    bound_value: float
    measured_value: float
    epsilon: float | None = None

    @property
    def passed(self) -> bool:
        return self.measured_value <= self.bound_value


def _rotate_towards(v: np.ndarray, direction_seed: np.random.Generator, angle: float) -> np.ndarray:
    """Rotate a unit vector by a given angle towards a random orthogonal direction.

    The angle is read as a Python float, so a float32 angle still yields a
    float64 vector of unit norm to rounding.
    """
    delta = direction_seed.standard_normal(v.shape[0])
    delta -= (delta @ v) * v
    delta /= np.linalg.norm(delta)
    angle = float(angle)
    return np.cos(angle) * v + np.sin(angle) * delta


def sampled_lipschitz_check(
    dim: int,
    num_samples: int,
    seed: int,
    sigmas: Sequence[float] = (0.0, 1e-3, 1e-2, 1e-1),
    c: float = 1.0 / 16.0,
) -> list[DiagnosticRow]:
    """Sample gradients with accurate parents and compare against the Lipschitz bound.

    Parents are oracle eigenvectors perturbed within the accurate-parents
    hypothesis angle c * g_i / ((i-1) * lambda_top); the child vector is drawn
    uniformly on the sphere.  ``num_samples`` is a whole number of at least
    1 (``errors.whole_number``); ``build_powerlaw_hamiltonian`` checks
    ``seed``.
    """
    whole_number("num_samples", num_samples)
    matrix, (levels, vectors) = build_powerlaw_hamiltonian(dim, seed=seed)
    mat = matrix.entries
    gaps = -np.diff(levels)
    lambda_top = float(levels[0])
    diag_norm = float(np.linalg.norm(np.diag(mat)))
    rng = np.random.default_rng(seed + 1)
    rows = []
    for draw in range(num_samples):
        i = int(rng.integers(1, min(dim - 1, 6) + 1))
        sigma = float(rng.choice(np.asarray(sigmas)))
        g_i = float(gaps[i - 1])
        if i > 1:
            phi_max = min(c * g_i / ((i - 1) * lambda_top), math.sqrt(0.5))
        else:
            phi_max = 0.0
        parents = [
            _rotate_towards(vectors[:, j], rng, float(rng.uniform(0.0, phi_max)))
            for j in range(i - 1)
        ]
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        grad = finite_diff_gradient(v, parents, mat, sigma)
        params = BoundParams(
            lambda_top=lambda_top,
            gaps=tuple(float(g) for g in gaps),
            player_index=i,
            kappa=lambda_top / float(levels[max(i - 2, 0)]),
            c=c,
            sigma=sigma,
            diag_norm=diag_norm,
        )
        rows.append(
            DiagnosticRow(
                bound_name="lipschitz_classical",
                parameters=f"dim={dim} i={i} sigma={sigma:g} draw={draw}",
                bound_value=lipschitz_bound_classical(params),
                measured_value=float(np.linalg.norm(grad)),
            )
        )
    return rows


def _epsilon_rows(bound_name: str, label: str, epsilons: Sequence[float], samples_per_epsilon: int,
                  draw: Callable[[float], tuple[float, float]]) -> list[DiagnosticRow]:
    """One row per (epsilon, draw): ``draw(eps)`` gives its (bound, measured) pair.

    The draws run epsilon by epsilon, ``samples_per_epsilon`` times each, in
    that order, and each row's parameters read ``label``, the epsilon and
    the draw's number.  ``samples_per_epsilon`` is a whole number of at
    least 1 (``errors.whole_number``) and each epsilon a positive finite
    real number (``errors.real_number``), checked before the first draw.
    """
    whole_number("samples_per_epsilon", samples_per_epsilon)
    for j, eps in enumerate(epsilons):
        real_number(f"epsilons[{j}]", eps, "positive")
    return [DiagnosticRow(bound_name, f"{label}eps={eps:g} draw={d}", *draw(eps), epsilon=eps)
            for eps in epsilons for d in range(samples_per_epsilon)]


def measure_error_accumulation_classical(
    dim: int,
    epsilons: Sequence[float],
    seed: int,
    sigma: float = 1e-2,
    player_index: int = 3,
    samples_per_epsilon: int = 20,
) -> list[DiagnosticRow]:
    """Measure the child-gradient change under parent rotations of angle epsilon.

    The measured value is the tangential norm of the gradient difference with
    perturbed versus exact parents, on the matrix the players ascend; the
    bound is the error-accumulation formula evaluated on the same
    displacements and the same matrix.  Each draw rotates the true parents
    and draws a child (``_epsilon_rows`` runs the draws and checks
    ``samples_per_epsilon`` and the epsilons).  ``player_index`` (1-based,
    at most ``dim``) is a whole number of at least 1
    (``errors.whole_number``) and ``sigma`` a non-negative finite real
    number (``errors.real_number``); ``build_powerlaw_hamiltonian`` checks
    ``dim`` and ``seed``.
    """
    whole_number("player_index", player_index)
    real_number("sigma", sigma, "non-negative")
    matrix, (_, vectors) = build_powerlaw_hamiltonian(dim, seed=seed)
    if player_index > dim:
        raise ValueError(f"player_index must be at most dim = {dim}, got {player_index!r}")
    mat = _ascended(matrix)
    rng = np.random.default_rng(seed + 17)
    true_parents = [vectors[:, j] for j in range(player_index - 1)]

    def draw(eps: float) -> tuple[float, float]:
        hat_parents = [_rotate_towards(v, rng, eps) for v in true_parents]
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        g_true = finite_diff_gradient(v, true_parents, mat, sigma)
        g_hat = finite_diff_gradient(v, hat_parents, mat, sigma)
        diff = (g_hat - g_true) - ((g_hat - g_true) @ v) * v
        bound = error_accumulation_bound_classical(matrix, true_parents, hat_parents, sigma)
        return bound, float(np.linalg.norm(diff))

    return _epsilon_rows("error_accumulation_classical", f"dim={dim} ", epsilons, samples_per_epsilon, draw)


def measure_error_accumulation_quantum(
    h: PauliSum,
    spec: AnsatzSpec,
    epsilons: Sequence[float],
    seed: int,
    samples_per_epsilon: int = 5,
) -> list[DiagnosticRow]:
    """Same inequality in parameter space, on the operator the game ascends.

    A maximizing game ascends A = sign*M + offset*I, not M, so both sides
    are stated on A.  Each draw takes a parent, a parent moved by epsilon and
    a child's sweep.  Each gradient is the game's exact read of the child's
    sweep: ``_backward_read`` of the objective ``_game_objective`` builds for
    the one parent, the player's own builder, given the parent's eigenvalue
    on M.  Both parents share the m + 1 rows one ``parameter_shift_states``
    call prepares.  The bound is ``error_accumulation_bound_quantum`` on
    A's dense array, with the sign and offset of the game's objective
    without parents.  A parent's denominator is its eigenvalue on A, at
    least the game's margin.  ``seed`` is a non-negative integer
    (``errors.whole_number``); ``_epsilon_rows`` runs the draws and checks
    ``samples_per_epsilon`` and the epsilons.
    """
    whole_number("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    dim = 2**h.num_qubits
    sign, _, _, offset, _, _ = _game_objective(h, np.empty((0, dim), dtype=np.complex128), (), "maximize")
    m_dense = pauli_sum_to_matrix(h)
    a_dense = sign * m_dense + offset * np.eye(dim)

    def gradient(theta: np.ndarray, sweep: np.ndarray) -> np.ndarray:
        block = apply_ansatz(spec, theta[None, :])
        eigenvalue = np.vdot(block[0], m_dense @ block[0]).real
        return _backward_read(h, _game_objective(h, block, [eigenvalue], "maximize"))(sweep)[0]

    def draw(eps: float) -> tuple[float, float]:
        theta_parent = rng.uniform(-np.pi, np.pi, size=spec.num_parameters)
        direction = rng.standard_normal(spec.num_parameters)
        theta_hat = theta_parent + eps * direction / np.linalg.norm(direction)
        sweep = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, size=spec.num_parameters))
        g_true, g_hat = gradient(theta_parent, sweep), gradient(theta_hat, sweep)
        bound = error_accumulation_bound_quantum(a_dense, spec, [theta_parent], [theta_hat])
        return bound, float(np.linalg.norm(g_hat - g_true))

    return _epsilon_rows("error_accumulation_quantum", "", epsilons, samples_per_epsilon, draw)


def loglog_slope(rows: Sequence[DiagnosticRow]) -> float:
    """Least-squares slope of log(mean measured value) against log(epsilon).

    Rows are grouped by their ``epsilon`` and each group's measured values
    averaged; the fit needs at least two distinct epsilons.
    """
    groups: dict[float, list[float]] = {}
    for r in rows:
        groups.setdefault(r.epsilon, []).append(r.measured_value)
    if len(groups) < 2:
        raise ValueError("loglog_slope needs rows at two or more epsilons")
    epsilons = sorted(groups)
    x = np.log(np.asarray(epsilons, dtype=np.float64))
    y = np.log([float(np.mean(groups[e])) for e in epsilons])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
