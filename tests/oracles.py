"""Reference oracles the tests check the library against.

None of this runs on a solve path.  The gate-by-gate simulators of the
interference and SwapTest circuits are what the closed-form read-outs in
``eigengames.quantum_sim`` must reproduce; the parameter-shift points, every one
prepared, check the rebuilt shift states, and the scalar parameter-shift
loop and the literal forward-difference quotient check the batched and
closed-form gradients; ``classical_game_terms`` and
``classical_error_term`` are the per-parent block expressions the classical
game matrix folds together; ``quantum_utility`` is one row of the game's
batch evaluator; ``power_iteration_solver`` is a substitute single-component
solver for ``deflation_vqe``; ``compiled_pauli_sum`` is the per-term
builder the stacked ``PauliSum.compiled`` form is checked against;
``scalar_perturb_readouts`` is the circuit-by-circuit shot draw the one
vector draw of ``perturb_readouts`` must equal bit for bit.

Conventions match ``eigengames.quantum_sim``: qubit t is bit (q - 1 - t) of
the amplitude index, and ancilla qubits are appended as the last position
unless a circuit says otherwise.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from eigengames.eigengame_classical import utility
from eigengames.errors import DimensionMismatchError, EigenGamesError, NonConvergenceError
from eigengames.hamiltonian import HermitianMatrix, PauliSum
from eigengames.quantum_sim import (
    AnsatzSpec,
    ParameterTensor,
    ShotModel,
    StateVector,
    apply_ansatz,
    pauli_sum_apply,
    shift_rule_gradient,
)
from eigengames.quantumgame import QuantumParent, _game_evaluator


class InvalidPerturbationError(EigenGamesError):
    """Forward differences need a strictly positive step."""


# ---------------------------------------------------------------------------
# Shot noise, one read-out at a time
# ---------------------------------------------------------------------------

def scalar_perturb_readouts(
    shots: ShotModel,
    means: np.ndarray,
    variances: np.ndarray | None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``perturb_readouts`` as a loop: one ``ShotModel.perturb`` per read-out, in C order."""
    if shots.is_exact:
        return means
    rng = shots.make_rng() if rng is None else rng
    draws = [
        shots.perturb(mean, var, rng)
        for mean, var in zip(means.ravel().tolist(), variances.ravel().tolist())
    ]
    return np.array(draws).reshape(means.shape)


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

def _interference_states(psi_r: StateVector, psi_j: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla circuit states for the Re and Im read-outs of <psi_r| M |psi_j>.

    Builds (|psi_j>|0> + |psi_r>|1>)/sqrt(2) on q+1 qubits (ancilla last),
    then applies H to the ancilla; the Im variant applies S before H.
    """
    if psi_r.num_qubits != psi_j.num_qubits:
        raise DimensionMismatchError("states act on different qubit counts")
    q = psi_r.num_qubits
    superposed = np.zeros(2 ** (q + 1), dtype=np.complex128)
    superposed[0::2] = psi_j.amplitudes / np.sqrt(2.0)
    superposed[1::2] = psi_r.amplitudes / np.sqrt(2.0)
    re_state = _single_qubit_gate(superposed, HADAMARD, q, q + 1)
    im_state = _single_qubit_gate(superposed, S_GATE, q, q + 1)
    im_state = _single_qubit_gate(im_state, HADAMARD, q, q + 1)
    return re_state, im_state


def _extend_with_ancilla_z(h: PauliSum) -> PauliSum:
    """M x Z on q+1 qubits: each string gains a trailing 'Z' on the ancilla."""
    return PauliSum(h.num_qubits + 1, tuple((c, s + "Z") for c, s in h.terms))


def mixed_expectation_states(h: PauliSum, psi_r: StateVector, psi_j: StateVector) -> complex:
    """<psi_r| M |psi_j> from two expectations of M x Z on the ancilla circuit."""
    if h.num_qubits != psi_r.num_qubits:
        raise DimensionMismatchError("operator and states act on different qubit counts")
    re_state, im_state = _interference_states(psi_r, psi_j)
    observable = _extend_with_ancilla_z(h)
    re_val = float(np.vdot(re_state, pauli_sum_apply(observable, re_state)).real)
    im_val = float(np.vdot(im_state, pauli_sum_apply(observable, im_state)).real)
    return complex(re_val, im_val)


def mixed_expectation(
    h: PauliSum,
    spec: AnsatzSpec,
    theta_r: ParameterTensor | Sequence[float],
    theta_j: ParameterTensor | Sequence[float],
) -> complex:
    """<psi(theta_r)| M |psi(theta_j)> via the (q+1)-qubit interference circuit."""
    return mixed_expectation_states(h, apply_ansatz(spec, theta_r), apply_ansatz(spec, theta_j))


def swap_test_overlap(psi1: StateVector, psi2: StateVector) -> float:
    """|<psi1|psi2>|^2 read off a simulated (2q+1)-qubit SwapTest.

    The ancilla-0 probability satisfies P(0) = 1/2 + |<psi1|psi2>|^2 / 2, so
    the overlap is 2 P(0) - 1.
    """
    if psi1.num_qubits != psi2.num_qubits:
        raise DimensionMismatchError("states act on different qubit counts")
    p0 = _swap_test_p0(psi1, psi2)
    return float(np.clip(2.0 * p0 - 1.0, 0.0, 1.0))


def _swap_test_p0(psi1: StateVector, psi2: StateVector) -> float:
    """Ancilla-0 probability of the SwapTest circuit (ancilla first, H-cSWAP-H)."""
    q = psi1.num_qubits
    block = np.kron(psi1.amplitudes, psi2.amplitudes)
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
    theta itself.  Preparing every row is the reference that
    ``parameter_shift_states`` rebuilds from m + 1 prepared states.
    """
    theta = np.asarray(theta, dtype=np.float64)
    m = theta.shape[0]
    shift = np.pi / 2.0
    rows = np.tile(theta, (2 * m + 1, 1))
    k = np.arange(m)
    rows[2 * k, k] += shift
    rows[2 * k + 1, k] -= shift
    return rows


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
    theta_r: ParameterTensor | Sequence[float],
    parents: Sequence[QuantumParent],
    shots: ShotModel = ShotModel(),
    rng: np.random.Generator | None = None,
) -> float:
    """<psi_r|M|psi_r> - sum_j |<psi_r|M|psi_j>|^2 / <psi_j|M|psi_j>, shot model applied throughout.

    Cross terms are the interference circuit's real and imaginary read-outs;
    parent denominators are the cached broadcast eigenvalues.  This is one
    row of the game's batch evaluator.
    """
    parents = tuple(parents)
    values = theta_r.values if isinstance(theta_r, ParameterTensor) else np.asarray(theta_r, dtype=np.float64)
    evaluate = _game_evaluator(m, 1.0, 0.0, spec, parents, [p.eigenvalue for p in parents], shots, rng)
    psi = apply_ansatz(spec, values[None, :])
    return float(evaluate(psi, pauli_sum_apply(m, psi))[0][0])


# ---------------------------------------------------------------------------
# Substitute solver for deflation_vqe
# ---------------------------------------------------------------------------

def power_iteration_solver(matrix: HermitianMatrix, iterations: int, tol: float = 1e-12) -> np.ndarray:
    """Plain power iteration; needs a dominant eigenvalue of largest magnitude."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(matrix.dim) + 1j * rng.standard_normal(matrix.dim)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = matrix.entries @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            raise NonConvergenceError("power iteration collapsed to zero")
        w = w / norm
        if 1.0 - abs(complex(np.vdot(v, w))) < tol:
            return w
        v = w
    raise NonConvergenceError(f"power iteration did not converge in {iterations} steps")
