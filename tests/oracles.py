"""Reference oracles the tests check the library against.

None of this runs on a solve path.  The gate-by-gate simulators of the
interference and SwapTest circuits are what the closed-form read-outs in
``eigengames.quantum_sim`` must reproduce; the parameter-shift points, every one
prepared, check the sweep's m + 1 base rows; ``rebuild_shift_rows`` builds
the 2m + 1 shift rows from those, and reading them row by row checks both
forms of the library's sweep read (``sweep_reads``); the scalar
parameter-shift loop and the literal forward-difference quotient check the
batched and closed-form gradients; ``row_moments`` reads <M> and Var(M)
of independent state rows one at a time, the reference for the library's
one moments read ``sweep_reads``, and ``state_energy`` is its <M> on
one state; ``product_state`` builds |0...0> and |+...+>, the reference for
``AnsatzSpec.initial_factors``; ``classical_game_terms`` and
``classical_error_term`` are the per-parent block expressions the classical
game matrix folds together; ``vector_eigengame_player`` is the classical
player's ascent written on whole vectors, the loop the library's fused
three-call iteration must reproduce, returned as the library's one
``PlayerResult`` record; ``quantum_utility`` is the maximizing
game's objective on one state, the game's finite-shot read on a one-row base; ``hotelling_levels`` is explicit Hotelling deflation on a
dense copy, the step the game does without; ``compiled_pauli_sum`` is the
per-term builder the stacked ``PauliSum.compiled`` form is checked against;
``scalar_perturb_readouts`` is the circuit-by-circuit shot draw the one
vector draw of ``perturb_readouts`` must equal bit for bit;
``allclose_hermitian`` is the ``np.allclose`` Hermiticity rule the one-pass
``check_hermitian`` must agree with, and ``identity_shifted`` is
M + c I formed with a dense identity, which ``run_sequential``'s shift on
a copy's diagonal must reproduce.

Conventions match ``eigengames.quantum_sim``: qubit t is bit (q - 1 - t) of
the amplitude index, and ancilla qubits are appended as the last position
unless a circuit says otherwise.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from eigengames.eigengame_classical import (
    UNIT_NORM_ATOL,
    GameConfig,
    HeavyBall,
    PlayerResult,
    _as_symmetric_array,
    _parent_block,
    _read_out,
    _twice_game_matrix,
    utility,
)
from eigengames.errors import (
    DimensionMismatchError,
    EigenGamesError,
    NormalizationError,
    NumericalOverflowError,
)
from eigengames.hamiltonian import HERMITICITY_ATOL, PauliSum
from eigengames.quantum_sim import (
    NORM_ATOL,
    AnsatzSpec,
    ShotModel,
    apply_ansatz,
    pauli_sum_apply,
    shift_rule_gradient,
)
from eigengames.quantumgame import _game_objective, _interference, _shot_read


class InvalidPerturbationError(EigenGamesError):
    """Forward differences need a strictly positive step."""


# ---------------------------------------------------------------------------
# Shot noise, one read-out at a time
# ---------------------------------------------------------------------------

def scalar_perturb_readouts(
    shots: ShotModel,
    means: np.ndarray,
    variances: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """``perturb_readouts`` as a loop: one ``ShotModel.perturb`` per read-out, in C order."""
    if shots.is_exact:
        return means
    draws = [
        shots.perturb(mean, var, rng)
        for mean, var in zip(means.ravel().tolist(), variances.ravel().tolist())
    ]
    return np.array(draws).reshape(means.shape)


# ---------------------------------------------------------------------------
# Moments of independent state rows
# ---------------------------------------------------------------------------

def row_moments(rows: np.ndarray, h_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(<M>, Var(M), ||M psi||^2, residue) of each row psi of a (B, d) array, given the rows M psi.

    Each row is read on its own with ``np.vdot``.  ``residue`` is the largest
    |Im<psi|M psi>| and raises above ``NORM_ATOL``; Var(M) = ||M psi||^2 - <M>^2
    is clamped at 0 and the unclamped second moment is returned too, as
    ``sweep_reads`` does for its rows.
    """
    value = np.array([np.vdot(row, h_row) for row, h_row in zip(rows, h_rows)], dtype=np.complex128)
    second = np.array([np.vdot(h_row, h_row).real for h_row in h_rows], dtype=np.float64)
    residue = float(np.abs(value.imag).max(initial=0.0))
    if residue > NORM_ATOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    mean = value.real
    return mean, np.maximum(second - mean * mean, 0.0), second, residue


def state_energy(h: PauliSum, psi: np.ndarray) -> float:
    """<psi|M|psi> of one state's amplitudes: ``row_moments``'s mean on the one row psi."""
    rows = np.asarray(psi)[None, :]
    return float(row_moments(rows, pauli_sum_apply(h, rows))[0][0])


def product_state(kind: str, num_qubits: int) -> np.ndarray:
    """|0...0> (``kind`` "zero") or |+...+> (``kind`` "plus") as 2**num_qubits complex amplitudes."""
    if kind == "plus":
        return np.full(2**num_qubits, 2.0 ** (-num_qubits / 2.0), dtype=np.complex128)
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


# ---------------------------------------------------------------------------
# Compiled Pauli form
# ---------------------------------------------------------------------------

def compiled_pauli_sum(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """``PauliSum.compiled`` one term at a time: masks read character by character,
    each term's sign parity summed bit by bit, one weight row per x-mask in the
    order the masks first appear."""
    q = h.num_qubits
    index = np.arange(2**q)
    weights: dict[int, np.ndarray] = {}
    for coeff, string in h.terms:
        x_mask = z_mask = 0
        for t, ch in enumerate(string):
            bit = 1 << (q - 1 - t)
            if ch in "XY":
                x_mask |= bit
            if ch in "ZY":
                z_mask |= bit
        parity = np.zeros(2**q, dtype=np.int64)
        source = (index ^ x_mask) & z_mask
        for t in range(q):
            parity ^= (source >> t) & 1
        phase = (1j) ** string.count("Y") * (1 - 2 * parity)
        if x_mask not in weights:
            weights[x_mask] = np.zeros(2**q, dtype=np.complex128)
        weights[x_mask] += coeff * phase
    perms = np.array([index ^ x_mask for x_mask in weights], dtype=index.dtype).reshape(-1, 2**q)
    rows = np.array(list(weights.values()), dtype=np.complex128).reshape(-1, 2**q)
    return perms, rows


# ---------------------------------------------------------------------------
# Gate application on raw amplitude arrays
# ---------------------------------------------------------------------------

def _single_qubit_gate(amps: np.ndarray, gate: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit of a dense amplitude vector."""
    before = 2**qubit
    after = 2 ** (num_qubits - qubit - 1)
    work = amps.reshape(before, 2, after)
    return np.einsum("ab,ibj->iaj", gate, work).reshape(-1)


def _cnot(amps: np.ndarray, control: int, target: int, num_qubits: int) -> np.ndarray:
    """CNOT on a dense vector; it only moves entries, so it also permutes an index vector."""
    work = amps.reshape((2,) * num_qubits).copy()
    sel: list = [slice(None)] * num_qubits
    sel[control] = 1
    # Indexing drops the control axis, shifting later axes down by one.
    flip_axis = target - 1 if target > control else target
    work[tuple(sel)] = np.flip(work[tuple(sel)], axis=flip_axis).copy()
    return work.reshape(-1)


def rotation_gate(kind: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=np.complex128)
    raise ValueError(f"unknown rotation kind {kind!r}")


HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Inner-product circuits
# ---------------------------------------------------------------------------

def _num_qubits(psi: np.ndarray) -> int:
    return int(psi.shape[0]).bit_length() - 1


def _interference_states(psi_r: np.ndarray, psi_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla circuit states for the Re and Im read-outs of <psi_r| M |psi_j>, given their amplitudes.

    Builds (|psi_j>|0> + |psi_r>|1>)/sqrt(2) on q+1 qubits (ancilla last),
    then applies H to the ancilla; the Im variant applies S before H.
    """
    if psi_r.shape != psi_j.shape:
        raise DimensionMismatchError("states act on different qubit counts")
    q = _num_qubits(psi_r)
    superposed = np.zeros(2 ** (q + 1), dtype=np.complex128)
    superposed[0::2] = psi_j / np.sqrt(2.0)
    superposed[1::2] = psi_r / np.sqrt(2.0)
    re_state = _single_qubit_gate(superposed, HADAMARD, q, q + 1)
    im_state = _single_qubit_gate(superposed, S_GATE, q, q + 1)
    im_state = _single_qubit_gate(im_state, HADAMARD, q, q + 1)
    return re_state, im_state


def _extend_with_ancilla_z(h: PauliSum) -> PauliSum:
    """M x Z on q+1 qubits: each string gains a trailing 'Z' on the ancilla."""
    return PauliSum(h.num_qubits + 1, tuple((c, s + "Z") for c, s in h.terms))


def mixed_expectation_states(h: PauliSum, psi_r: np.ndarray, psi_j: np.ndarray) -> complex:
    """<psi_r| M |psi_j> from two expectations of M x Z on the ancilla circuit."""
    if 2**h.num_qubits != psi_r.shape[0]:
        raise DimensionMismatchError("operator and states act on different qubit counts")
    re_state, im_state = _interference_states(psi_r, psi_j)
    observable = _extend_with_ancilla_z(h)
    re_val = float(np.vdot(re_state, pauli_sum_apply(observable, re_state)).real)
    im_val = float(np.vdot(im_state, pauli_sum_apply(observable, im_state)).real)
    return complex(re_val, im_val)


def mixed_expectation(
    h: PauliSum,
    spec: AnsatzSpec,
    theta_r: Sequence[float],
    theta_j: Sequence[float],
) -> complex:
    """<psi(theta_r)| M |psi(theta_j)> via the (q+1)-qubit interference circuit."""
    return mixed_expectation_states(
        h, apply_ansatz(spec, theta_r).amplitudes, apply_ansatz(spec, theta_j).amplitudes
    )


def swap_test_overlap(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>|^2 read off a simulated (2q+1)-qubit SwapTest.

    The ancilla-0 probability satisfies P(0) = 1/2 + |<psi1|psi2>|^2 / 2, so
    the overlap is 2 P(0) - 1.
    """
    if psi1.shape != psi2.shape:
        raise DimensionMismatchError("states act on different qubit counts")
    p0 = _swap_test_p0(psi1, psi2)
    return float(np.clip(2.0 * p0 - 1.0, 0.0, 1.0))


def _swap_test_p0(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """Ancilla-0 probability of the SwapTest circuit (ancilla first, H-cSWAP-H), given the two states' amplitudes."""
    q = _num_qubits(psi1)
    block = np.kron(psi1, psi2)
    amps = np.zeros(2 ** (2 * q + 1), dtype=np.complex128)
    amps[: block.size] = block
    amps = _single_qubit_gate(amps, HADAMARD, 0, 2 * q + 1)
    work = amps.reshape(2, 2**q, 2**q)
    work[1] = work[1].T.copy()  # controlled register swap
    amps = _single_qubit_gate(work.reshape(-1), HADAMARD, 0, 2 * q + 1)
    return float(np.sum(np.abs(amps[: 2 ** (2 * q)]) ** 2))


# ---------------------------------------------------------------------------
# Scalar gradients
# ---------------------------------------------------------------------------

def parameter_shift_points(theta: np.ndarray) -> np.ndarray:
    """The (2m+1, m) rows theta + s e_0, theta - s e_0, ..., theta - s e_{m-1}, theta.

    s = pi/2, the shift for a Pauli rotation, whose generator has eigenvalues
    +-1/2.  The first 2m rows feed ``shift_rule_gradient``; the last row is
    theta itself.  Preparing every row is the reference for the shift rows
    whose reads ``sweep_reads`` forms from the m + 1 states
    ``parameter_shift_states`` prepares.
    """
    theta = np.asarray(theta, dtype=np.float64)
    m = theta.shape[0]
    shift = np.pi / 2.0
    rows = np.tile(theta, (2 * m + 1, 1))
    k = np.arange(m)
    rows[2 * k, k] += shift
    rows[2 * k + 1, k] -= shift
    return rows


def _shift_combine(base: np.ndarray) -> np.ndarray:
    phi, psi = base[:-1], base[-1]
    m = phi.shape[0]
    rows = np.empty((2 * m + 1, base.shape[1]), dtype=np.complex128)
    pairs = rows[:-1].reshape(m, 2, -1)
    np.add(psi, phi, out=pairs[:, 0])
    np.subtract(psi, phi, out=pairs[:, 1])
    rows[:-1] *= np.sqrt(0.5)
    rows[-1] = psi
    return rows


def rebuild_shift_rows(base: np.ndarray, h_base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2m+1, d) shift rows of psi and of M psi from the (m+1, d) base rows phi_0, ..., phi_{m-1}, psi.

    A Pauli rotation R(t) = cos(t/2) I - i sin(t/2) P satisfies
    R(t +- pi/2) = (R(t) +- R(t + pi)) / sqrt(2), and a parameter that feeds
    exactly one such gate carries this through the circuit, so with
    phi_k = psi(theta + pi e_k), row 2k is (psi + phi_k)/sqrt(2), row 2k+1 is
    (psi - phi_k)/sqrt(2) and the last row is psi; M is linear, so the same
    holds for M psi.  Then <psi|phi_k> is imaginary and every row has unit
    norm; a row off unit norm to ``NORM_ATOL`` (another gate, or NaN) raises.
    Building the rows is the reference both forms of the library's reads of
    them (``sweep_reads``) are checked against.
    """
    rows = _shift_combine(base)
    deviation = np.abs(np.linalg.norm(rows, axis=1) - 1.0).max()
    if not deviation <= NORM_ATOL:  # a NaN norm fails too
        raise NormalizationError(
            f"rebuilt parameter-shift state norms deviate from 1 beyond {NORM_ATOL}"
        )
    return rows, _shift_combine(h_base)


def parameter_shift_gradient(objective: Callable[[np.ndarray], float], theta: np.ndarray) -> np.ndarray:
    """Exact gradient for Pauli-rotation circuits: [f(theta + pi/2 e_k) - f(theta - pi/2 e_k)] / 2.

    Exact whenever the objective is a first-harmonic trigonometric polynomial
    in each parameter, which holds for expectation values of rotation-gate
    circuits where every parameter feeds exactly one gate.  Uses 2m objective
    evaluations, one per shift point, in ``parameter_shift_points`` order.
    """
    rows = parameter_shift_points(theta)[:-1]
    values = np.array([objective(row.copy()) for row in rows], dtype=np.float64)
    return shift_rule_gradient(values)


def _classical_parent_block(parents, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, n) products M v_j and (P,) Rayleigh quotients v_j^T M v_j of raw parent vectors."""
    n = m.shape[0]
    vs = np.array([np.asarray(p, dtype=np.float64) for p in parents]).reshape(len(parents), n)
    mvs = vs @ m.T
    return mvs, np.einsum("jk,jk->j", vs, mvs)


def classical_game_terms(v: np.ndarray, parents, m: np.ndarray) -> tuple[float, np.ndarray]:
    """(utility, exact gradient) of v against the parents, from the parent block.

    With c_j = v^T M v_j / v_j^T M v_j: the utility is v^T M v - sum_j c_j v^T M v_j
    and the gradient 2 (M v - sum_j c_j M v_j).
    """
    v = np.asarray(v, dtype=np.float64)
    mvs, rayleighs = _classical_parent_block(parents, m)
    mv = m @ v
    cross = mvs @ v
    weights = cross / rayleighs
    return float(v @ mv - cross @ weights), 2.0 * (mv - weights @ mvs)


def classical_error_term(parents, m: np.ndarray) -> np.ndarray:
    """The forward-differences error term diag(M) - sum_j (M v_j)^{o2} / v_j^T M v_j."""
    mvs, rayleighs = _classical_parent_block(parents, m)
    return np.diag(m) - np.sum(mvs**2 / rayleighs[:, None], axis=0)


def numeric_forward_difference(v: np.ndarray, parents, m, sigma: float) -> np.ndarray:
    """Literal forward quotient [f(v + sigma e_k) - f(v)] / sigma, two utility calls per component.

    The perturbed point is deliberately not renormalized: the utility is a
    quadratic in each component, which makes this quotient algebraically equal
    to ``finite_diff_gradient``.
    """
    if sigma <= 0:
        raise InvalidPerturbationError("sigma must be strictly positive")
    v = np.asarray(v, dtype=np.float64)
    grad = np.empty_like(v)
    for k in range(v.shape[0]):
        shifted = v.copy()
        shifted[k] += sigma
        grad[k] = (utility(shifted, parents, m) - utility(v, parents, m)) / sigma
    return grad


def quantum_utility(
    m: PauliSum,
    spec: AnsatzSpec,
    theta_r: Sequence[float],
    parent_states,
    parent_eigenvalues: Sequence[float],
    shots: ShotModel = ShotModel(),
    rng: np.random.Generator | None = None,
) -> float:
    """The maximizing game's objective at theta_r, shot model applied throughout.

    <A> - sum_j |<psi_r|A|psi_j>|^2 / (lambda_j + offset) on the operator
    the game ascends, A = M + offset*I, with the offset and the parent
    terms from the player's own builder (``_game_objective``).  Cross terms
    are the interference circuit's real and imaginary read-outs; the parents
    are a (P, 2**q) block of states psi_j, or a list of them, and lambda_j
    their given eigenvalues on M, as a player receives them.  This is the
    game's finite-shot read of the one-row base psi_r.
    """
    values = np.asarray(theta_r, dtype=np.float64)
    block = _parent_block(parent_states, 2**spec.num_qubits, np.complex128, NORM_ATOL)
    objective = _game_objective(m, block, parent_eigenvalues, "maximize")
    psi = apply_ansatz(spec, values[None, :])
    return _shot_read(m, objective, _interference, shots, rng)(psi)[1]


# ---------------------------------------------------------------------------
# Explicit deflation, the step the game does without
# ---------------------------------------------------------------------------

def hotelling_levels(entries: np.ndarray, k: int) -> list[float]:
    """Top k levels by Hotelling deflation: M_{j+1} = M_j - lambda_j |psi_j><psi_j|.

    Each level is the top eigenpair of the working copy from ``eigh``; the
    input is not modified.  k must lie in [1, dim]: past dim the working copy
    is zero and its "levels" would be rounding noise.
    """
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    if k > len(entries):
        raise ValueError(f"k={k} exceeds dimension {len(entries)}")
    work = np.array(entries, dtype=np.complex128)
    levels = []
    for _ in range(k):
        vals, vecs = np.linalg.eigh(work)
        lam, psi = float(vals[-1]), vecs[:, -1]
        levels.append(lam)
        work -= lam * np.outer(psi, psi.conj())
    return levels


# ---------------------------------------------------------------------------
# The classical ascent on whole vectors
# ---------------------------------------------------------------------------

def vector_eigengame_player(m, init: np.ndarray, parents, cfg: GameConfig, mode: str = "exact") -> PlayerResult:
    """``eigengame_player``'s ascent on whole vectors: each scalar from its own dot product.

    Per iteration: w = alpha g from one matvec on 2 alpha G (plus the bias
    alpha sigma diag(G) in zeroth-order mode), the tangent step
    t = w - (w . v) v formed in place, the stop test on ||t|| / alpha, the
    heavy-ball weight from t . vel, and v <- (v + t + beta vel) / ||...||.
    ``final_riemannian_norm`` is the last ||t|| / alpha tested.
    """
    mat = _as_symmetric_array(m)
    parents = _parent_block(parents, mat.shape[0], np.float64, UNIT_NORM_ATOL)
    v = np.asarray(init, dtype=np.float64).copy()
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_NORM_ATOL:
        raise NormalizationError("init vector must be unit norm")
    alpha = cfg.step_size
    scaled_game = alpha * _twice_game_matrix(mat, parents)
    bias = cfg.sigma * (0.5 * np.diag(scaled_game)) if mode == "zeroth_order" else None
    state = PlayerResult(1, parents, v)
    ball = HeavyBall()
    vel = np.zeros_like(v)
    for _ in range(cfg.max_iterations_per_player + 1):
        w = scaled_game.dot(v)
        if bias is not None:
            w += bias
        radial = float(w.dot(v))
        if not math.isfinite(radial):
            raise NumericalOverflowError("gradient stopped being finite")
        w -= radial * v
        state.final_riemannian_norm = math.sqrt(w.dot(w)) / alpha
        if state.final_riemannian_norm <= cfg.grad_tolerance:
            state.converged = True
            break
        if state.iterations_used >= cfg.max_iterations_per_player:
            break
        beta = ball.weight(state.iterations_used, float(w.dot(vel)))
        w += v
        if beta:
            w += beta * vel
        w /= math.sqrt(w.dot(w))
        vel, v = w - v, w
        state.iterations_used += 1
    state.momentum_restarts = ball.restarts
    state.vector = v
    return _read_out(state, mat)


# ---------------------------------------------------------------------------
# Dense-operator references
# ---------------------------------------------------------------------------

def allclose_hermitian(entries: np.ndarray) -> bool:
    """The Hermiticity rule as ``np.allclose(M, M^H)`` with rtol 0 and atol HERMITICITY_ATOL."""
    return bool(np.allclose(entries, entries.conj().T, rtol=0.0, atol=HERMITICITY_ATOL))


def identity_shifted(mat: np.ndarray) -> np.ndarray:
    """``mat + shift * np.eye(dim)``, with ``run_sequential``'s shift c = ||M||_2 - lambda_min when lambda_min <= 0."""
    eigenvalues = np.linalg.eigvalsh(mat)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    shift = max(abs(lam_min), abs(lam_max)) - lam_min if lam_min <= 0 else 0.0
    return mat + shift * np.eye(len(mat))
