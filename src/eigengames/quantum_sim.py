"""Dense statevector simulation: ansatz circuits, Pauli expectations, shot noise,
parameter-shift states, and the two inner-product circuits' read-outs.

Ansatz states are prepared in batches, one row per parameter vector, from
the layout's cached gate plan (``AnsatzSpec.gate_plan``), and Pauli sums
apply through their compiled form (``PauliSum.compiled``).
``parameter_shift_states`` prepares m + 1 states per sweep and rebuilds the
2m + 1 shift rows from them.  ``state_moments`` computes <M> and Var(M)
over state rows given M applied to them; ``energy_moments`` applies M first,
and ``expectation`` and its siblings are its one-row cases.
``perturb_readouts`` draws every shot, one vector draw per batch of
read-outs; the callers count the read-outs they draw.  The interference and
SwapTest circuits are read out in closed form (``interference_moments``,
``swap_test_moments``); their gate-by-gate simulations live with the tests,
as the oracles these closed forms are checked against.

Conventions: qubit t corresponds to character t of a Pauli string and to bit
(q - 1 - t) of the amplitude index, i.e. string character order matches the
Kronecker factor order of the dense form.  Ancilla qubits are appended as the
last (least significant) position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BindingError,
    DimensionMismatchError,
    InvalidShotCountError,
    NormalizationError,
)
from .hamiltonian import PauliSum

NORM_ATOL = 1e-10

ROTATION_KINDS = ("RX", "RY", "RZ")

# A rotation R(theta) maps each amplitude pair (a0, a1) of its qubit to
# cos(theta/2) * (a0, a1) + sin(theta/2) * phase * partner, where partner is
# (a1, a0) for RX/RY and (a0, a1) for RZ, so RZ is diagonal.
_PARTNER_PHASES = {"RX": (-1j, -1j), "RY": (-1.0, 1.0), "RZ": (-1j, 1j)}


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over 2**num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise NormalizationError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def zero_state(num_qubits: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def plus_state(num_qubits: int) -> StateVector:
    amps = np.full(2**num_qubits, 2.0 ** (-num_qubits / 2.0), dtype=np.complex128)
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# Ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzSpec:
    """Fixed circuit layout: per-layer parameterized rotations plus a CNOT ring.

    ``layer_rotations[l]`` lists (gate kind, target qubit, slot) triples; slot s
    of layer l reads parameter l * slots_per_layer + s, so every slot is used
    exactly once.
    """

    num_qubits: int
    num_layers: int
    layer_rotations: tuple[tuple[tuple[str, int, int], ...], ...]
    entangler_pairs: tuple[tuple[int, int], ...]
    initial_state: str = "plus"  # 'plus' or 'zero'
    seed: int | None = None

    def __post_init__(self):
        if self.initial_state not in ("plus", "zero"):
            raise ValueError("initial_state must be 'plus' or 'zero'")
        if len(self.layer_rotations) != self.num_layers:
            raise ValueError("layer_rotations length must equal num_layers")
        seen = set()
        for layer in self.layer_rotations:
            for kind, qubit, slot in layer:
                if kind not in ROTATION_KINDS:
                    raise ValueError(f"unknown gate kind {kind!r}")
                if not 0 <= qubit < self.num_qubits:
                    raise ValueError(f"qubit {qubit} out of range")
                if slot in seen:
                    raise ValueError(f"parameter slot {slot} referenced twice")
                seen.add(slot)
        if seen != set(range(len(seen))):
            raise ValueError("parameter slots must be 0..m-1 with no holes")

    @property
    def num_parameters(self) -> int:
        return sum(len(layer) for layer in self.layer_rotations)

    @cached_property
    def entangler_permutation(self) -> np.ndarray | None:
        """The whole CNOT ring as one gather index: ``amps[..., perm]`` applies every pair in order.

        A CNOT flips the target bit of every index whose control bit is set;
        it is its own inverse, so each pair composes as one more gather.
        ``None`` when the ring is empty.
        """
        if not self.entangler_pairs:
            return None
        q = self.num_qubits
        index = np.arange(2**q)
        perm = index
        for c, t in self.entangler_pairs:
            perm = perm[index ^ (((index >> (q - 1 - c)) & 1) << (q - 1 - t))]
        perm.flags.writeable = False
        return perm

    @cached_property
    def gate_plan(self) -> tuple[np.ndarray, tuple[tuple[tuple[int, int, bool], ...], ...]]:
        """Read-only gate plan: each slot's partner phases and each layer's (qubit, slot, diagonal) gates.

        ``phases[s]`` (2, 1, 1) holds the two factors sin(theta_s/2) takes on
        the partner amplitudes of slot s's gate, so one product with all sines
        gives every gate's coefficients; a gate is diagonal when it is an RZ.
        """
        phases = np.empty((self.num_parameters, 2, 1, 1), dtype=np.complex128)
        for layer in self.layer_rotations:
            for kind, _, slot in layer:
                phases[slot, :, 0, 0] = _PARTNER_PHASES[kind]
        phases.flags.writeable = False
        layers = tuple(
            tuple((qubit, slot, kind == "RZ") for kind, qubit, slot in layer)
            for layer in self.layer_rotations
        )
        return phases, layers

    @cached_property
    def initial_amplitudes(self) -> np.ndarray:
        """Read-only amplitudes of the layout's initial state, built once per layout."""
        return (plus_state if self.initial_state == "plus" else zero_state)(self.num_qubits).amplitudes

    def bind(self, values: Sequence[float]) -> "ParameterTensor":
        return ParameterTensor.for_spec(self, values)

    def describe(self) -> str:
        """Structured text form, one line per layer, for run manifests."""
        lines = [
            f"ansatz qubits={self.num_qubits} layers={self.num_layers} "
            f"parameters={self.num_parameters} initial={self.initial_state} seed={self.seed}"
        ]
        for l, layer in enumerate(self.layer_rotations):
            gates = "; ".join(f"{kind} q{qubit} slot{slot}" for kind, qubit, slot in layer)
            ent = ", ".join(f"({c},{t})" for c, t in self.entangler_pairs)
            lines.append(f"layer {l}: {gates} | cnot ring: {ent if ent else 'none'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ParameterTensor:
    """Flat real parameter vector with its per-layer slot counts."""

    values: np.ndarray
    slots_per_layer: tuple[int, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.ndim != 1:
            raise BindingError("parameter values must be a flat vector")
        if vals.shape[0] != sum(self.slots_per_layer):
            raise BindingError(
                f"got {vals.shape[0]} values for a layout of {sum(self.slots_per_layer)} slots"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @staticmethod
    def for_spec(spec: AnsatzSpec, values: Sequence[float]) -> "ParameterTensor":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (spec.num_parameters,):
            raise BindingError(
                f"spec has {spec.num_parameters} parameters, got vector of shape {values.shape}"
            )
        return ParameterTensor(values, tuple(len(layer) for layer in spec.layer_rotations))

    def with_values(self, values: np.ndarray) -> "ParameterTensor":
        return ParameterTensor(values, self.slots_per_layer)


def _ring_pairs(num_qubits: int) -> tuple[tuple[int, int], ...]:
    if num_qubits < 2:
        return ()
    if num_qubits == 2:
        return ((0, 1),)
    return tuple((i, (i + 1) % num_qubits) for i in range(num_qubits))


def random_layers_ansatz(
    num_qubits: int,
    num_layers: int,
    rotations_per_layer: int,
    seed: int,
    initial_state: str = "plus",
) -> AnsatzSpec:
    """Per layer: seeded-random rotation axes on seeded-random qubits, then a CNOT ring."""
    rng = np.random.default_rng(seed)
    layers = []
    slot = 0
    for _ in range(num_layers):
        gates = []
        for _ in range(rotations_per_layer):
            kind = ROTATION_KINDS[int(rng.integers(0, 3))]
            qubit = int(rng.integers(0, num_qubits))
            gates.append((kind, qubit, slot))
            slot += 1
        layers.append(tuple(gates))
    return AnsatzSpec(
        num_qubits=num_qubits,
        num_layers=num_layers,
        layer_rotations=tuple(layers),
        entangler_pairs=_ring_pairs(num_qubits),
        initial_state=initial_state,
        seed=seed,
    )


def layered_ansatz(num_qubits: int, num_layers: int, initial_state: str = "plus") -> AnsatzSpec:
    """Deterministic RY+RZ-per-qubit layers with a CNOT ring; expressive on small registers."""
    layers = []
    slot = 0
    for _ in range(num_layers):
        gates = []
        for qubit in range(num_qubits):
            gates.append(("RY", qubit, slot)); slot += 1
            gates.append(("RZ", qubit, slot)); slot += 1
        layers.append(tuple(gates))
    return AnsatzSpec(
        num_qubits=num_qubits,
        num_layers=num_layers,
        layer_rotations=tuple(layers),
        entangler_pairs=_ring_pairs(num_qubits),
        initial_state=initial_state,
    )


def _norm_deviation(rows: np.ndarray) -> float:
    """The largest | ||row|| - 1 | over the rows of a (B, d) array; NaN when a row has a NaN."""
    return float(np.abs(np.sqrt(np.vecdot(rows, rows).real) - 1.0).max())


def apply_ansatz(
    spec: AnsatzSpec, theta: ParameterTensor | Sequence[float] | np.ndarray
) -> StateVector | np.ndarray:
    """Prepare |psi(theta)> by running the layout's layers on its initial state.

    A flat parameter vector (or ``ParameterTensor``) gives a ``StateVector``.
    A (B, m) array prepares B states in one pass and gives their (B, 2**q)
    amplitudes, row b from parameter row b; the single-vector call is the
    B = 1 case.  Every row must keep unit norm to ``NORM_ATOL``.
    """
    values = theta.values if isinstance(theta, ParameterTensor) else np.asarray(theta, dtype=np.float64)
    single = values.ndim == 1
    rows = values[None, :] if single else values
    if rows.ndim != 2 or rows.shape[1] != spec.num_parameters:
        raise BindingError(
            f"spec has {spec.num_parameters} parameters, got values of shape {values.shape}"
        )
    batch = rows.shape[0]
    phases, layers = spec.gate_plan
    # Every gate's coefficients in one pass, (m, 2, 1, B): the partner term
    # sin(theta/2) * phase, and for a diagonal gate the whole diagonal cos + it.
    half = rows.T / 2.0
    cos = np.cos(half)
    partner_terms = phases * np.sin(half)[:, None, None, :]
    diagonals = partner_terms + cos[:, None, None, :]
    # Work amplitude-major, (2**q, B), so every gate's innermost axis is the
    # batch.  Gates update amps in place, a partner term goes through the
    # spare buffer, and a CNOT ring gathers into it before the two swap.
    amps = np.repeat(spec.initial_amplitudes[:, None], batch, axis=1)
    spare = np.empty_like(amps)
    perm = spec.entangler_permutation
    for layer in layers:
        for qubit, slot, diagonal in layer:
            work = amps.reshape(2**qubit, 2, -1, batch)
            if diagonal:
                work *= diagonals[slot]
                continue
            partner = spare.reshape(work.shape)
            np.multiply(work[:, ::-1], partner_terms[slot], out=partner)
            work *= cos[slot]
            work += partner
        if perm is not None:
            # "clip" takes straight into out; the default mode buffers the copy.
            amps.take(perm, axis=0, out=spare, mode="clip")
            amps, spare = spare, amps
    amps = np.ascontiguousarray(amps.T)
    if not _norm_deviation(amps) <= NORM_ATOL:  # a NaN norm fails too
        raise NormalizationError(f"prepared state norms deviate from 1 beyond {NORM_ATOL}")
    return StateVector(spec.num_qubits, amps[0]) if single else amps


# ---------------------------------------------------------------------------
# Pauli expectations and the shot-noise model
# ---------------------------------------------------------------------------

def pauli_sum_apply(h: PauliSum, amps: np.ndarray) -> np.ndarray:
    """M applied along the last axis of a (..., 2**q) array, via the compiled form.

    ``PauliSum.apply`` after checking the last axis: one stacked product for
    a single vector, one gather and multiply per distinct x-mask for a batch;
    the dense matrix is never built.
    """
    if amps.shape[-1] != 2**h.num_qubits:
        raise DimensionMismatchError(
            f"operator acts on {h.num_qubits} qubits, amplitudes have length {amps.shape[-1]}"
        )
    return h.apply(amps)


def state_moments(
    rows: np.ndarray, h_rows: np.ndarray, variance: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(<M>, Var(M), ||M psi||^2) for each row psi of a (B, 2**q) array, given the rows M psi.

    The one computation of either moment.  <M> = <psi|M psi> must be real for
    Hermitian M; an imaginary residue above ``NORM_ATOL`` raises.
    Var(M) = ||M psi||^2 - <M>^2, clamped at 0; the unclamped second moment
    ||M psi||^2 is returned too.  ``variance=False`` skips both and gives
    ``None``, for exact read-outs.
    """
    value = np.einsum("bi,bi->b", rows.conj(), h_rows)
    residue = np.abs(value.imag).max()
    if residue > NORM_ATOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    mean = value.real
    if not variance:
        return mean, None, None
    second = np.einsum("bi,bi->b", h_rows.conj(), h_rows).real
    return mean, np.maximum(second - mean * mean, 0.0), second


def energy_moments(h: PauliSum, rows: np.ndarray, variance: bool = True) -> tuple[np.ndarray, ...]:
    """(M psi, <M>, Var(M)) for each row psi of a (B, 2**q) array: M applied once, then ``state_moments``."""
    h_rows = pauli_sum_apply(h, rows)
    mean, var, _ = state_moments(rows, h_rows, variance)
    return h_rows, mean, var


def expectation(h: PauliSum, psi: StateVector) -> float:
    """Exact <psi| M |psi>, the one-row case of ``energy_moments``."""
    return float(energy_moments(h, psi.amplitudes[None, :], variance=False)[1][0])


def expectation_and_variance(h: PauliSum, psi: StateVector) -> tuple[float, float]:
    """(<M>, Var(M)), the one-row case of ``energy_moments``."""
    _, mean, var = energy_moments(h, psi.amplitudes[None, :])
    return float(mean[0]), float(var[0])


@dataclass(frozen=True)
class ShotModel:
    """Finite-shot estimator noise: Gaussian with std sqrt(Var(M)/N).

    ``num_shots=None`` means exact (infinite-shot) evaluation.  The seed only
    fixes the stream produced by ``make_rng``; callers running trajectories
    hold one generator for the whole run.
    """

    num_shots: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_shots is not None and self.num_shots < 1:
            raise InvalidShotCountError("num_shots must be >= 1 when finite")

    @property
    def is_exact(self) -> bool:
        return self.num_shots is None

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)

    def perturb(self, mean: float, variance: float, rng: np.random.Generator) -> float:
        """One read-out: the one-element case of ``perturb_readouts``, bit for bit.

        A variance at or below zero, -0.0 included, clamps to +0.0 as
        ``np.maximum`` does; a NaN variance propagates.
        """
        if self.is_exact:
            return mean
        return mean + rng.standard_normal() * math.sqrt(
            (0.0 if variance <= 0.0 else variance) / self.num_shots
        )


def perturb_readouts(
    shots: ShotModel,
    means: np.ndarray,
    variances: np.ndarray | None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Shot noise on an array of readouts: one standard-normal draw for the whole batch.

    Every finite-shot draw of the library is made here.  Exact models return
    the means untouched and never read ``variances``.  Finite models add
    sqrt(max(Var, 0)/N) times one standard normal per read-out, drawn in C
    order as one vector, which gives the values a circuit-by-circuit loop of
    ``ShotModel.perturb`` calls over the same read-outs would, bit for bit.
    The draw comes from ``rng`` or, when none is given, from one
    ``make_rng()`` for the call.  Negative variances clamp to 0; NaN means
    or variances propagate.
    """
    if shots.is_exact:
        return means
    rng = shots.make_rng() if rng is None else rng
    return means + rng.standard_normal(means.shape) * np.sqrt(
        np.maximum(variances, 0.0) / shots.num_shots
    )


def shot_noisy_expectation(
    h: PauliSum,
    psi: StateVector | np.ndarray,
    shots: ShotModel,
    rng: np.random.Generator | None = None,
) -> float | np.ndarray:
    """<M> plus Gaussian noise of std sqrt(Var(M)/N); exact when Var(M) = 0.

    A ``StateVector`` gives one float.  A (B, 2**q) array of state rows gives
    B reads, drawn in row order; the single state is the B = 1 case.  The
    draws come from ``rng`` or, without it, from a fresh ``shots.make_rng()``.
    """
    rows = psi.amplitudes[None, :] if isinstance(psi, StateVector) else psi
    _, mean, var = energy_moments(h, rows, variance=not shots.is_exact)
    reads = perturb_readouts(shots, mean, var, rng)
    return float(reads[0]) if isinstance(psi, StateVector) else reads


# ---------------------------------------------------------------------------
# Inner-product circuits, read out in closed form
# ---------------------------------------------------------------------------

def interference_moments(
    rows: np.ndarray, row_second: np.ndarray, m_parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and variance of the interference circuit's two M x Z read-outs.

    ``rows`` (B, 2**q) are player states and ``row_second`` (B,) their second
    moments ||M psi_r||^2; ``m_parents`` (P, 2**q) is the operator applied to
    each parent state.  The circuit's Re and Im read-outs have means Re/Im
    <psi_r|M|psi_j> and variances (||M psi_r||^2 + ||M psi_j||^2)/2 - mean^2.
    Both (B, 2P) results interleave Re and Im per parent, the order the
    circuit is read.
    """
    cross = rows.conj() @ m_parents.T
    means = np.empty((rows.shape[0], 2 * m_parents.shape[0]))
    means[:, 0::2] = cross.real
    means[:, 1::2] = cross.imag
    parent_second = np.einsum("pi,pi->p", m_parents.conj(), m_parents).real
    second = np.repeat(0.5 * (row_second[:, None] + parent_second[None, :]), 2, axis=1)
    return means, second - means**2


def swap_test_moments(rows: np.ndarray, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form SwapTest ancilla-0 probability p0 = (1 + |<psi|psi_j>|^2)/2 and its variance p0(1 - p0).

    ``rows`` (B, 2**q) against ``parents`` (P, 2**q); both results are (B, P).
    """
    p0 = 0.5 * (1.0 + np.abs(rows.conj() @ parents.T) ** 2)
    return p0, p0 * (1.0 - p0)


# ---------------------------------------------------------------------------
# Parameter-shift gradients
# ---------------------------------------------------------------------------

def parameter_shift_states(
    spec: AnsatzSpec, h: PauliSum, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, M psi) for the (2m+1, 2**q) parameter-shift states, from m + 1 prepared ones.

    The rows are psi at theta + s e_0, theta - s e_0, ..., theta - s e_{m-1},
    then theta; s = pi/2, the shift for a Pauli rotation, whose generator
    has eigenvalues +-1/2.  Only the m + 1 states psi(theta + pi e_k) and
    psi(theta) are prepared, in one ``apply_ansatz`` call, and M is applied
    to those alone; ``rebuild_shift_rows`` forms the 2m shifted rows of both
    by linearity.  The last row is the prepared psi(theta) itself.
    """
    theta = np.asarray(theta, dtype=np.float64)
    m = theta.shape[0]
    base = np.repeat(theta[None, :], m + 1, axis=0)
    base.reshape(-1)[: m * m : m + 1] += np.pi  # the diagonal of the first m rows
    prepared = apply_ansatz(spec, base)
    return rebuild_shift_rows(prepared, pauli_sum_apply(h, prepared))


def _shift_combine(base: np.ndarray) -> np.ndarray:
    phi, psi = base[:-1], base[-1]
    m = phi.shape[0]
    rows = np.empty((2 * m + 1, base.shape[1]), dtype=np.complex128)
    pairs = rows[:-1].reshape(m, 2, -1)  # written in place: no (m, d) temporaries
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
    """
    rows = _shift_combine(base)
    if not _norm_deviation(rows) <= NORM_ATOL:  # a NaN norm fails too
        raise NormalizationError(
            f"rebuilt parameter-shift state norms deviate from 1 beyond {NORM_ATOL}"
        )
    return rows, _shift_combine(h_base)


def shift_rule_gradient(shifted_values: np.ndarray) -> np.ndarray:
    """[f(+s e_k) - f(-s e_k)] / 2 from the objective at the first 2m shift rows."""
    return 0.5 * (shifted_values[0::2] - shifted_values[1::2])
