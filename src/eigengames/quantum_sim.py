"""Dense statevector simulation: ansatz circuits, Pauli expectations, shot noise,
parameter-shift states, and the two inner-product circuits' read-outs.

Ansatz states are prepared in batches, one row per parameter vector, by the
layout's gate loop from its cached gate plan (``AnsatzSpec.gate_plan``).  The
state is a product until the first CNOT ring, so the loop runs the first
layer on the initial state's per-qubit factors (``AnsatzSpec.initial_factors``),
and the rest one gate at a time on the amplitudes; a layout without entangler
pairs takes the same path, its ring the identity gather.  Pauli sums apply
through their compiled form (``PauliSum.compiled``), to a single vector or a
batch of rows by one rule.
A parameter-shift sweep is m + 1 states, psi(theta + pi e_k) for k < m and
psi(theta), and ``parameter_shift_states`` and the players' loop prepare it
through one core, ``_sweep_states``.  Every parameter drives one Pauli
rotation, so a state is a fixed combination of 2**m branch states weighted by
products of cos(theta_k/2) and sin(theta_k/2); the shift by pi swaps each
factor's cos and sin, up to a sign, so every shifted state is the branch
table with one bit of its row index flipped and its rows signed.  A small
layout's sweep plan (``AnsatzSpec.sweep_plan``) holds all m + 1 of those
tables side by side, and its sweep is summed from theta's branch weights
alone; ``BRANCH_TABLE_ENTRIES`` says how small.  Any other layout's sweep
runs the gate loop on the m + 1 shifted rows.  The choice is made once per
layout, on its first sweep, and kept with the plan's views as its sweep
function (``AnsatzSpec.sweep_function``).  The tests check the plan
against a gate-by-gate oracle and against the gate loop.  The public entry
points check every call: ``apply_ansatz`` binds its parameters finite and its
states to unit norm, ``parameter_shift_states`` binds theta and checks its
sweep (``check_sweep``), and ``sweep_reads`` checks its base the same way
before M is applied.  The players' loop checks those invariants once per
player, on its last sweep.
``sweep_reads`` reads the 2m + 1 shift rows a sweep stands for, in one of two
forms that give the same reads to rounding.  The products form applies M
to the m + 1 prepared rows and forms every read from their products, with
no shift row built.  The explicit form builds the 2m + 1 rows and applies
M to them: m more rows of M per sweep, in fewer array calls.  The explicit
form is the faster one on small registers, and ``EXPLICIT_SHIFT_ROWS_WORK``
says how small.  A one-row base is a plain state, so ``sweep_reads`` is
also the read of a single prepared state.  ``perturb_readouts`` draws every
shot, one vector draw per batch of read-outs; the callers count the
read-outs they draw.  The interference and SwapTest circuits are read out
in closed form from the products they measure (``interference_moments``,
``swap_test_moments``); their gate-by-gate simulations live with the
tests, as the oracles these closed forms are checked against.

Conventions: qubit t corresponds to character t of a Pauli string and to bit
(q - 1 - t) of the amplitude index, i.e. string character order matches the
Kronecker factor order of the dense form.  Ancilla qubits are appended as the
last (least significant) position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BindingError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidShotCountError,
    NormalizationError,
    unit_norm,
    whole_number,
)
from .hamiltonian import PauliSum

NORM_ATOL = 1e-10


def check_unit_rows(name: str, amplitudes: np.ndarray) -> None:
    """Raise ``NormalizationError`` unless each row of a C-ordered complex block (or one vector) has unit norm.

    The rule is ``errors.unit_norm`` at ``NORM_ATOL``.  Each squared norm is
    a sum of squares over the float64 view, with no cross terms, so an inf
    amplitude reads inf, not NaN behind NumPy's invalid-value warning.
    """
    parts = amplitudes.view(np.float64)
    unit_norm(name, np.vecdot(parts, parts), NORM_ATOL)


# ``sweep_reads`` builds the 2m + 1 shift rows and applies M to them when that
# costs at most this many more multiply-adds of M than applying it to the
# m + 1 prepared rows: m*K*2**q, with K the x-masks of ``PauliSum.compiled``.
# Below it the explicit form's fewer array calls win; the crossover lies
# between about 4e3 (level or faster) and 1e4 (slower), per the table of
# ``tools/shot_read_crossover.py`` in CHANGES.md.  H2 (72) builds its rows,
# the 8-qubit ``wide`` sum (253 952) does not; ``tests/test_perfbench_reads.py``
# holds the constant between them.
EXPLICIT_SHIFT_ROWS_WORK = 4096

# A layout with m >= 2 parameters prepares its parameter-shift sweeps from its
# sweep plan when its branch table holds at most this many amplitudes,
# 2**m * 2**q; larger layouts run the gate loop on the m + 1 shifted rows.
# The plan's products grow with 2**m while the loop's array calls grow with
# m, and the preparation table of ``tools/shot_read_crossover.py`` (in
# CHANGES.md) puts the crossover at about this size.  H2's 9-parameter layout
# (2048) sums its plan, the 32-parameter 8-qubit ``wide`` layout (2**40) runs
# the loop; ``tests/test_perfbench_reads.py`` holds the constant between them.
BRANCH_TABLE_ENTRIES = 4096

ROTATION_KINDS = ("RX", "RY", "RZ")

# A rotation R(theta) maps each amplitude pair (a0, a1) of its qubit to
# cos(theta/2) * (a0, a1) + sin(theta/2) * phase * partner, where partner is
# (a1, a0) for RX/RY and (a0, a1) for RZ, so RZ is diagonal.
_PARTNER_PHASES = {"RX": (-1j, -1j), "RY": (-1.0, 1.0), "RZ": (-1j, 1j)}


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over 2**num_qubits basis states.

    The amplitudes must have unit norm to ``NORM_ATOL`` (``check_unit_rows``,
    ``NormalizationError``; NaN fails too).
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, got {amps.shape}"
            )
        check_unit_rows("state", amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


# ---------------------------------------------------------------------------
# Ansatz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzSpec:
    """Fixed circuit layout: per-layer parameterized rotations plus a CNOT ring.

    ``layer_rotations[l]`` lists (gate kind, target qubit) pairs.  Parameter
    k drives the k-th rotation in circuit order, layer by layer, so every
    parameter feeds exactly one gate.  Each gate's qubit and both qubits of
    each entangler pair are non-negative integers (``errors.whole_number``)
    below ``num_qubits``, and a pair's two qubits differ.
    """

    num_qubits: int
    layer_rotations: tuple[tuple[tuple[str, int], ...], ...]
    entangler_pairs: tuple[tuple[int, int], ...]
    initial_state: str = "plus"  # 'plus' or 'zero'
    seed: int | None = None

    def __post_init__(self):
        whole_number("num_qubits", self.num_qubits, error=InvalidDimensionError)
        if self.initial_state not in ("plus", "zero"):
            raise ValueError("initial_state must be 'plus' or 'zero'")
        for layer in self.layer_rotations:
            for kind, qubit in layer:  # any other gate shape fails to unpack: ValueError
                if kind not in ROTATION_KINDS:
                    raise ValueError(f"unknown gate kind {kind!r}")
                whole_number("qubit", qubit, minimum=0)
                if not qubit < self.num_qubits:
                    raise ValueError(f"qubit {qubit} out of range")
        for control, target in self.entangler_pairs:
            whole_number("entangler pair control", control, minimum=0)
            whole_number("entangler pair target", target, minimum=0)
            if not (control < self.num_qubits and target < self.num_qubits):
                raise ValueError(f"entangler pair ({control}, {target}) has a qubit out of range")
            if control == target:
                raise ValueError(f"entangler pair ({control}, {target}) has control equal to target")

    @property
    def num_layers(self) -> int:
        return len(self.layer_rotations)

    @property
    def num_parameters(self) -> int:
        return sum(len(layer) for layer in self.layer_rotations)

    @cached_property
    def entangler_permutation(self) -> np.ndarray:
        """The whole CNOT ring as one gather index: ``amps[..., perm]`` applies every pair in order.

        A CNOT flips the target bit of every index whose control bit is set;
        it is its own inverse, so each pair composes as one more gather.  An
        empty ring is the identity gather.
        """
        q = self.num_qubits
        index = np.arange(2**q)
        perm = index
        for c, t in self.entangler_pairs:
            perm = perm[index ^ (((index >> (q - 1 - c)) & 1) << (q - 1 - t))]
        perm.flags.writeable = False
        return perm

    @cached_property
    def gate_plan(self) -> tuple[np.ndarray, tuple[tuple[tuple[int, int, bool], ...], ...]]:
        """Read-only gate plan: each parameter's partner phases and each layer's (qubit, parameter, diagonal) gates.

        ``phases[k]`` (2, 1, 1) holds the two factors sin(theta_k/2) takes on
        the partner amplitudes of the k-th gate in circuit order, so one
        product with all sines gives every gate's coefficients; a gate is
        diagonal when it is an RZ.
        """
        phases = np.array(
            [_PARTNER_PHASES[kind] for layer in self.layer_rotations for kind, _ in layer],
            dtype=np.complex128,
        ).reshape(-1, 2, 1, 1)
        phases.flags.writeable = False
        k = count()
        layers = tuple(
            tuple((qubit, next(k), kind == "RZ") for kind, qubit in layer)
            for layer in self.layer_rotations
        )
        return phases, layers

    @cached_property
    def sweep_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only factor index and (2**m, (m+1) * 2**q) sweep plan, built once per layout.

        Each rotation is cos(theta_k/2) I - i sin(theta_k/2) P_k, so
        psi(theta) = sum_S w_S(theta) psi_S with branch weights
        w_S = prod_{k in S} sin(theta_k/2) prod_{k not in S} cos(theta_k/2),
        where psi_S is the layout's state with theta_k = pi for k in S and 0
        otherwise, parameter k at bit m - 1 - k of S.  The gate loop builds
        the branch table of every psi_S with every cos and sin 0 or 1, so
        each entry is exact: 0, or +-1 or +-i times an initial amplitude.

        cos((t + pi)/2) = -sin(t/2) and sin((t + pi)/2) = cos(t/2), so the
        shifted state phi_k = psi(theta + pi e_k) is sum_S w_S(theta) c_k(S) psi_{S xor k},
        with c_k(S) = -1 when k is in S.  Row S of ``plan`` holds
        c_k(S) psi_{S xor k} in block k < m and psi_S in block m, so the
        branch weights of theta alone give the whole sweep
        phi_0, ..., phi_{m-1}, psi.  Every entry is a signed copy of a table
        entry, written in place block by block.

        The weights factor over the halves of the parameters, 0..l-1 and
        l..m-1 with l = m // 2: the weight of row S is the product of the two
        halves' Kronecker rows of (cos, sin) pairs at S's high and low bits.
        ``index`` (m - l, 2**l + 2**(m-l)) lists the factors of every entry of
        both rows, one column per entry, as positions in
        [cos_0..cos_{m-1}, sin_0..sin_{m-1}, 1]; the first half's entries are
        padded with the final 1.
        """
        m = self.num_parameters
        bits = _branch_bits(m).astype(np.float64)
        table = np.ascontiguousarray(_gate_loop(self, 1.0 - bits, bits).T)
        low, high = m // 2, m - m // 2
        index = np.full((high, 2**low + 2**high), 2 * m)  # the final 1
        # Factor k of an entry is cos_k, or sin_k at m + k where the entry's bit for k is set.
        index[:low, : 2**low] = np.arange(low)[:, None] + m * _branch_bits(low)
        index[:, 2**low :] = np.arange(low, m)[:, None] + m * _branch_bits(high)
        branches, dim = table.shape
        plan = np.empty((branches, m + 1, dim), dtype=np.complex128)
        for k in range(m):
            # Parameter k's bit splits the rows into halves: a row without it
            # takes +psi of its partner with it, a row with it -psi of its partner.
            rows = plan.reshape(2**k, 2, -1, m + 1, dim)
            halves = table.reshape(2**k, 2, -1, dim)
            rows[:, 0, :, k] = halves[:, 1]
            np.negative(halves[:, 0], out=rows[:, 1, :, k])
        plan[:, m] = table
        plan = plan.reshape(branches, -1)
        index.flags.writeable = False
        plan.flags.writeable = False
        return index, plan

    @cached_property
    def sweep_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """The layout's sweep preparation, a bound (m,) theta to its unchecked (m+1, 2**q) rows, chosen once per layout.

        A layout of m >= 2 parameters whose branch table holds at most
        ``BRANCH_TABLE_ENTRIES`` amplitudes, 2**m * 2**q, sums its sweep
        plan (``_plan_sweep``); any other runs the gate loop on the m + 1
        shifted rows (``_loop_sweep``), so it never builds the plan.  Built
        on first use and kept on the layout.
        """
        m = self.num_parameters
        if m >= 2 and 2 ** (m + self.num_qubits) <= BRANCH_TABLE_ENTRIES:
            return _plan_sweep(self)
        return partial(_loop_sweep, self)

    @cached_property
    def initial_factors(self) -> np.ndarray:
        """Read-only (q, 2) per-qubit factors of the layout's initial state, |0...0> or |+...+>, built once per layout.

        Row t holds qubit t's two amplitudes, and their Kronecker product,
        qubit 0 outermost, is the state.  |+...+> puts its whole
        normalization 2**(-q/2) on qubit 0's factor and leaves the others
        (1, 1), so every amplitude of the product is 2**(-q/2) exactly.
        """
        if self.initial_state == "plus":
            factors = np.ones((self.num_qubits, 2), dtype=np.complex128)
            factors[0] = 2.0 ** (-self.num_qubits / 2.0)
        else:
            factors = np.zeros((self.num_qubits, 2), dtype=np.complex128)
            factors[:, 0] = 1.0
        factors.flags.writeable = False
        return factors

    def bind(self, values: Sequence[float]) -> np.ndarray:
        """``values`` as a read-only float64 copy.

        Raises ``BindingError`` unless it has one finite value per gate; a
        NaN or inf is named by its index before any state is prepared.
        """
        values = np.array(values, dtype=np.float64)
        if values.shape != (self.num_parameters,):
            raise BindingError(
                f"spec has {self.num_parameters} parameters, got vector of shape {values.shape}"
            )
        _check_finite(values)
        values.flags.writeable = False
        return values

    def describe(self) -> str:
        """Structured text form, one line per layer, for run manifests."""
        lines = [
            f"ansatz qubits={self.num_qubits} layers={self.num_layers} "
            f"parameters={self.num_parameters} initial={self.initial_state} seed={self.seed}"
        ]
        k = count()
        for l, layer in enumerate(self.layer_rotations):
            gates = "; ".join(f"{kind} q{qubit} p{next(k)}" for kind, qubit in layer)
            ent = ", ".join(f"({c},{t})" for c, t in self.entangler_pairs)
            lines.append(f"layer {l}: {gates} | cnot ring: {ent if ent else 'none'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ParameterTensor:
    """Read-only flat real parameter vector: the type of a quantum player's ``PlayerResult.theta``."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.ndim != 1:
            raise BindingError("parameter values must be a flat vector")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


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
    """Per layer: seeded-random rotation axes on seeded-random qubits, then a CNOT ring.

    ``seed`` must be a non-negative integer, and the two counts whole
    numbers of at least 1 (``errors.whole_number``), or ``ValueError`` is
    raised: a count of 0 would build a layout with no parameters, whose
    empty gradient every player would read as converged.  ``num_qubits``
    is checked as ``AnsatzSpec`` checks it, before the draws read it.
    """
    whole_number("num_qubits", num_qubits, error=InvalidDimensionError)
    whole_number("seed", seed, minimum=0)
    whole_number("num_layers", num_layers)
    whole_number("rotations_per_layer", rotations_per_layer)
    rng = np.random.default_rng(seed)
    layers = tuple(
        tuple(
            (ROTATION_KINDS[int(rng.integers(0, 3))], int(rng.integers(0, num_qubits)))
            for _ in range(rotations_per_layer)
        )
        for _ in range(num_layers)
    )
    return AnsatzSpec(num_qubits, layers, _ring_pairs(num_qubits), initial_state, seed)


def layered_ansatz(num_qubits: int, num_layers: int, initial_state: str = "plus") -> AnsatzSpec:
    """Deterministic RY+RZ-per-qubit layers with a CNOT ring; expressive on small registers.

    ``num_layers`` must be a whole number of at least 1, as in ``random_layers_ansatz``.
    """
    whole_number("num_layers", num_layers)
    layer = tuple(gate for qubit in range(num_qubits) for gate in (("RY", qubit), ("RZ", qubit)))
    return AnsatzSpec(num_qubits, (layer,) * num_layers, _ring_pairs(num_qubits), initial_state)


def _branch_bits(n: int) -> np.ndarray:
    """(n, 2**n) zeros and ones: column S holds the bits of S, row k the bit n - 1 - k."""
    return (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1


def _check_finite(values: np.ndarray) -> None:
    """Raise ``BindingError`` naming the first NaN or inf of a parameter vector or (B, m) block by its index."""
    if not np.isfinite(values).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise BindingError(f"theta[{', '.join(map(str, where))}] must be finite, got {float(values[where])!r}")


def apply_ansatz(spec: AnsatzSpec, theta: Sequence[float] | np.ndarray) -> StateVector | np.ndarray:
    """Prepare |psi(theta)> from the layout's initial state by its gate loop.

    A flat parameter vector gives a ``StateVector``.  A (B, m) array
    prepares B states in one pass and gives their (B, 2**q) amplitudes, row
    b from parameter row b, B = 0 included; the single-vector call is the
    B = 1 case, bit for bit.  The loop runs its first layer on per-qubit
    factors and the rest one gate at a time, an empty CNOT ring as the
    identity gather; the tests hold it to a gate-by-gate oracle.  A
    parameter array of the wrong shape, or with a NaN or inf entry (named
    by its index, as ``AnsatzSpec.bind`` names it), raises ``BindingError``
    before any state is prepared, and every row must keep unit norm to
    ``NORM_ATOL`` (``check_unit_rows``) or ``NormalizationError`` is raised.
    """
    values = np.asarray(theta, dtype=np.float64)
    single = values.ndim == 1
    rows = values[None, :] if single else values
    m = len(spec.gate_plan[0])  # one phase row per parameter
    if rows.ndim != 2 or rows.shape[1] != m:
        raise BindingError(f"spec has {m} parameters, got values of shape {values.shape}")
    _check_finite(values)
    amps = _prepare(spec, rows)
    check_unit_rows("prepared state", amps)
    return StateVector(spec.num_qubits, amps[0]) if single else amps


def _prepare(spec: AnsatzSpec, rows: np.ndarray) -> np.ndarray:
    """The (B, 2**q) states of (B, m) finite parameter rows by the gate loop, unchecked."""
    half = rows.T / 2.0
    return np.ascontiguousarray(_gate_loop(spec, np.cos(half), np.sin(half)).T)


def _plan_sweep(spec: AnsatzSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The sweep function of a layout's sweep plan: ``_table_sum`` bound to the plan's factor index and to
    its float64 view split at the first half's 2**(m // 2) rows."""
    index, plan = spec.sweep_plan
    return partial(_table_sum, index, plan.view(np.float64).reshape(2 ** (spec.num_parameters // 2), -1))


def _table_sum(index: np.ndarray, floats: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The (m+1, 2**q) sweep of an (m,) theta: the sum over the sweep plan of theta's branch weights.

    ``index`` is ``AnsatzSpec.sweep_plan``'s factor index and ``floats`` the
    plan's float64 view as (2**l, 2**(m-l) * (m+1) * 2**q * 2), l = m // 2
    (``_plan_sweep``).  One gather and one product give both halves'
    Kronecker rows of weights; the first half's row then sums over the
    plan's high bits and the second half's over its low bits.  The weights
    are real, so both products run on the float64 view.
    """
    m = theta.shape[0]
    half = theta / 2.0
    factors = np.empty(2 * m + 1)
    np.cos(half, out=factors[:m])
    np.sin(half, out=factors[m:-1])
    factors[-1] = 1.0
    weights = factors.take(index).prod(axis=0)
    split = len(floats)
    summed = np.matmul(weights[:split], floats)
    amps = np.matmul(weights[split:], summed.reshape(len(weights) - split, -1))
    return amps.view(np.complex128).reshape(m + 1, -1)


def _gate_loop(spec: AnsatzSpec, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The (2**q, B) amplitudes of the layout's gates, given each gate's (m, B) cos(theta/2) and sin(theta/2).

    The state is a product until the first CNOT ring, so the first layer
    acts on its (q, 2, B) per-qubit factors; q - 1 Kronecker products then
    form the amplitudes, and every ring, an empty one included, and the
    later layers run one gate at a time.  Both paths apply a gate through
    one update, ``rotate``, on a view whose second axis is the gate's qubit.
    """
    phases, layers = spec.gate_plan
    q, batch = spec.num_qubits, cos.shape[1]
    # Every gate's partner term sin(theta/2) * phase in one pass, (m, 2, 1, B).
    partner_terms = phases * sin[:, None, None, :]

    def rotate(work: np.ndarray, k: int, diagonal: bool, partner: np.ndarray | None = None) -> None:
        """Gate k in place on a (a, 2, b, B) view; the partner term goes into ``partner`` when given.

        Each gate runs once, so a diagonal gate turns its own partner term
        into its whole diagonal, cos + it, in place.
        """
        if diagonal:
            partner_terms[k] += cos[k]
            work *= partner_terms[k]
            return
        partner = np.multiply(work[:, ::-1], partner_terms[k], out=partner)
        work *= cos[k]
        work += partner

    perm = spec.entangler_permutation
    factors = spec.initial_factors[:, :, None].repeat(batch, axis=2)
    for layer in layers[:1]:
        for qubit, k, diagonal in layer:
            rotate(factors[qubit][None, :, None], k, diagonal)
    amps = factors[0]
    for t in range(1, q):
        # Every size explicit, so that an empty batch reshapes too.
        amps = (amps[:, None, :] * factors[t]).reshape(2 ** (t + 1), batch)
    # Work amplitude-major, (2**q, B), so every gate's innermost axis is the
    # batch.  Gates update amps in place, a partner term goes through the
    # spare buffer, and a CNOT ring gathers into it before the two swap.
    spare = np.empty_like(amps)
    for l, layer in enumerate(layers):
        for qubit, k, diagonal in layer if l else ():  # the first layer ran on the factors
            shape = (2**qubit, 2, 2 ** (q - qubit - 1), batch)
            rotate(amps.reshape(shape), k, diagonal, spare.reshape(shape))
        # "clip" takes straight into out; the default mode buffers the copy.
        amps.take(perm, axis=0, out=spare, mode="clip")
        amps, spare = spare, amps
    return amps


# ---------------------------------------------------------------------------
# Pauli expectations and the shot-noise model
# ---------------------------------------------------------------------------

def pauli_sum_apply(h: PauliSum, amps: np.ndarray) -> np.ndarray:
    """M applied along the last axis of a (..., 2**q) array, via the compiled form.

    ``PauliSum.apply`` after checking the last axis: one stacked product for
    a batch up to ``hamiltonian.STACKED_APPLY_ENTRIES`` gathered entries, one
    gather and multiply per distinct x-mask above it; the dense matrix is
    never built.
    """
    if amps.shape[-1] != 2**h.num_qubits:
        raise DimensionMismatchError(
            f"operator acts on {h.num_qubits} qubits, amplitudes have length {amps.shape[-1]}"
        )
    return h.apply(amps)


@dataclass(frozen=True)
class ShotModel:
    """Finite-shot estimator noise: Gaussian with std sqrt(Var(M)/N).

    ``num_shots=None`` means exact (infinite-shot) evaluation; a finite
    count is a whole number of at least 1 (``errors.whole_number``), or
    ``InvalidShotCountError`` is raised.  ``rng_seed`` is a non-negative
    integer (``errors.whole_number``), or ``ValueError`` is raised.  The
    seed only fixes the stream produced by ``make_rng``; callers running
    trajectories hold one generator for the whole run.  ``rng_seed`` seeds
    direct player calls only: the runners (``run_quantumgame``,
    ``run_vqd``) replace it with a seed each player derives from the run's
    ``seed``.
    """

    num_shots: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_shots is not None:
            whole_number("num_shots", self.num_shots, error=InvalidShotCountError)
        whole_number("rng_seed", self.rng_seed, minimum=0)

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
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Shot noise on an array of readouts: one standard-normal draw for the whole batch.

    Every finite-shot draw of the library is made here.  Exact models return
    the means untouched and never read ``variances`` or ``rng``, so only they
    may pass ``None`` for either; a finite model given ``rng=None`` raises
    ``ValueError``.  Finite models add sqrt(max(Var, 0)/N) times one
    standard normal per read-out, drawn from ``rng`` in C order as one
    vector, which gives the values a circuit-by-circuit loop of
    ``ShotModel.perturb`` calls over the same read-outs would, bit for bit.
    The caller holds the generator, so
    successive calls draw independent noise.  Negative variances clamp to
    0; NaN means or variances propagate.
    """
    if shots.is_exact:
        return means
    if rng is None:
        raise ValueError(f"a {shots.num_shots}-shot model needs a random generator, got rng=None")
    return means + rng.standard_normal(means.shape) * np.sqrt(
        np.maximum(variances, 0.0) / shots.num_shots
    )


# ---------------------------------------------------------------------------
# Inner-product circuits, read out in closed form
# ---------------------------------------------------------------------------

def interference_moments(
    cross: np.ndarray, row_second: np.ndarray, parent_second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and variance of the interference circuit's two M x Z read-outs.

    ``cross`` (B, P) holds the products <psi_r|M|psi_j> of B player states
    with P parents, ``row_second`` (B,) the rows' second moments
    ||M psi_r||^2 and ``parent_second`` (P,) the parents' ||M psi_j||^2.
    The circuit's Re and Im read-outs have means Re/Im <psi_r|M|psi_j> and
    variances (||M psi_r||^2 + ||M psi_j||^2)/2 - mean^2.  Both (B, 2P)
    results interleave Re and Im per parent, the order the circuit is read,
    which is the float64 view of the complex products.
    """
    means = np.ascontiguousarray(cross).view(np.float64)
    second = (0.5 * (row_second[:, None] + parent_second[None, :])).repeat(2, axis=1)
    return means, second - means**2


def swap_test_moments(overlaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form SwapTest ancilla-0 probability p0 = (1 + |<psi|psi_j>|^2)/2 and its variance p0(1 - p0).

    ``overlaps`` holds the products <psi|psi_j>; both results have its shape.
    """
    p0 = 0.5 * (1.0 + np.abs(overlaps) ** 2)
    return p0, p0 * (1.0 - p0)


# ---------------------------------------------------------------------------
# Parameter-shift gradients
# ---------------------------------------------------------------------------

def parameter_shift_states(spec: AnsatzSpec, theta: Sequence[float] | np.ndarray) -> np.ndarray:
    """The (m+1, 2**q) states of one parameter-shift sweep, as the players' loop prepares them.

    The rows are phi_0, ..., phi_{m-1}, psi, with phi_k = psi(theta + pi e_k)
    and psi = psi(theta).  theta is bound as ``AnsatzSpec.bind`` binds it,
    the sweep prepared by the loop's own core (``_sweep_states``) and checked
    by ``check_sweep``, which the loop runs once per player.

    A finite-shot read passes the rows to ``sweep_reads``.  An exact read
    applies M to psi alone: each parameter drives one Pauli rotation, so
    d_k psi = phi_k / 2, and the gradient of <psi|K psi> for a Hermitian K
    is Re<phi_k|K psi>, one product of the phi_k with one vector.
    """
    sweep = _sweep_states(spec, spec.bind(theta))
    check_sweep(sweep)
    return sweep


def _shifted_rows(theta: np.ndarray) -> np.ndarray:
    """The (m+1, m) parameter rows of a sweep: theta + pi e_k for k < m, then theta."""
    m = theta.shape[0]
    rows = theta[None, :].repeat(m + 1, axis=0)
    rows.reshape(-1)[: m * m : m + 1] += np.pi  # the diagonal of the first m rows
    return rows


def _loop_sweep(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """A gate-loop layout's sweep: the gate loop on the m + 1 shifted rows, as ``apply_ansatz`` prepares them."""
    return _prepare(spec, _shifted_rows(theta))


def _sweep_states(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The (m+1, 2**q) sweep of a bound (m,) theta, unchecked: the layout's ``AnsatzSpec.sweep_function``.

    The choice between the two preparations is made once per layout, on
    its first sweep.  A layout with a sweep plan sums it with the branch
    weights of theta alone: m cosines and sines, one gather-product and two
    matrix products give all m + 1 rows, equal to the gate loop's on the
    shifted rows to rounding.  Any other layout runs the gate loop on the
    m + 1 shifted rows (``_shifted_rows``), as ``apply_ansatz`` prepares
    them, bit for bit.
    """
    return spec.sweep_function(theta)


def check_sweep(base: np.ndarray) -> None:
    """Raise ``NormalizationError`` unless a sweep's base rows and its 2m + 1 shift rows keep unit norm.

    ``base`` is a C-ordered complex block of the (m+1, d) rows phi_0, ...,
    phi_{m-1}, psi of ``parameter_shift_states``; a one-row base is the
    plain state psi.  Three rules run in order.  Every base row has unit norm to
    ``NORM_ATOL`` (``check_unit_rows``), so a NaN or inf amplitude is named
    before any product is formed.  Every Re<psi|phi_k>, 0 for a Pauli
    rotation, is at most ``NORM_ATOL`` in size.  Every shift row
    (psi +- phi_k)/sqrt(2) has unit norm to ``NORM_ATOL``
    (``errors.unit_norm``), its squared norm formed from the base rows as
    (||psi||^2 + ||phi_k||^2)/2 +- Re<psi|phi_k>.  ``parameter_shift_states``
    checks every sweep it prepares and ``sweep_reads`` every base it reads;
    the players' loop checks its last sweep, once per player.  A base with
    no rows, not even psi, raises ``DimensionMismatchError``.
    """
    if not len(base):
        raise DimensionMismatchError("a sweep needs at least the row psi, got no rows")
    check_unit_rows("prepared state", base)
    parts = base.view(np.float64)
    own = np.vecdot(parts, parts)
    overlap = np.vecdot(parts[:-1], parts[-1])  # Re<psi|phi_k>, on the float64 view
    if not np.maximum.reduce(np.abs(overlap), initial=0.0) <= NORM_ATOL:
        raise NormalizationError(f"parameter-shift rows have a real overlap with psi beyond {NORM_ATOL}")
    norms = np.empty(2 * len(base) - 1)
    norms[-1] = own[-1]
    _pair_rows(norms, 0.5 * (own[:-1] + own[-1]), overlap)
    unit_norm("parameter-shift row", norms, NORM_ATOL)


def sweep_reads(
    h: PauliSum, base: np.ndarray, kets: np.ndarray | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], np.ndarray | None, int]:
    """((<M>, Var(M), ||M r||^2, residue), <r|k_j>, rows of M) of the 2m + 1 shift rows r of a sweep.

    ``base`` holds the (m+1, d) rows phi_0, ..., phi_{m-1}, psi of
    ``parameter_shift_states``.  A Pauli rotation R(t) = cos(t/2) I - i sin(t/2) P
    satisfies R(t +- pi/2) = (R(t) +- R(t + pi)) / sqrt(2), and every
    ``AnsatzSpec`` parameter feeds exactly one such gate, so shift row 2k is
    r+ = (psi + phi_k)/sqrt(2), row 2k+1 is r- = (psi - phi_k)/sqrt(2) and
    the last row is psi.  The first result holds each row's <M>, its
    variance clamped at 0, its unclamped second moment and the largest
    |Im<r|M r>|, rounding for Hermitian M; the second the (2m+1, P) products
    with the (P, d) ``kets``, ``None`` for ``None``; the third the number of
    rows M was applied to.

    When m*K*2**q (K the x-masks of ``PauliSum.compiled``) is at most
    ``EXPLICIT_SHIFT_ROWS_WORK`` the rows are built and M applied to all
    2m + 1 of them; otherwise M is applied to the m + 1 base rows and every
    read formed from their products.  A one-row base (m = 0) is the plain
    state psi, and the reads are its own.  The base is checked first
    (``check_sweep``): a row or shift row off unit norm to ``NORM_ATOL``, a
    NaN or inf amplitude, or a real overlap of a phi_k with psi raises
    ``NormalizationError`` before M is applied.  A residue above
    ``NORM_ATOL`` raises ``ValueError``.  The players' loop reads through
    the same core without the check.
    """
    base = np.ascontiguousarray(base, dtype=np.complex128)
    check_sweep(base)
    return _sweep_reads(h, base, kets)


def _sweep_reads(
    h: PauliSum, base: np.ndarray, kets: np.ndarray | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], np.ndarray | None, int]:
    """``sweep_reads`` without ``check_sweep``."""
    if (len(base) - 1) * h.compiled[0].size <= EXPLICIT_SHIFT_ROWS_WORK:
        rows = _shift_rows(base)
        moments = _built_row_moments(rows, pauli_sum_apply(h, rows))
        return moments, None if kets is None else rows.conj() @ kets.T, len(rows)
    moments = _shift_row_moments(base, pauli_sum_apply(h, base))
    return moments, None if kets is None else _shift_row_products(base, kets), len(base)


def _pair_rows(rows: np.ndarray, centre: np.ndarray, cross: np.ndarray) -> None:
    """Write the shift-row pairs in place: centre_k + cross_k to row 2k, centre_k - cross_k to row 2k+1.

    ``centre`` or ``cross`` may be the even rows themselves; the last row is left as it is.
    """
    np.subtract(centre, cross, out=rows[1::2])
    np.add(centre, cross, out=rows[:-1:2])


def _shift_rows(base: np.ndarray) -> np.ndarray:
    """The (2m+1, d) shift rows themselves, built from the (m+1, d) base rows; a one-row base gives psi alone."""
    rows = np.empty((base.shape[0] * 2 - 1, base.shape[1]), dtype=np.complex128)
    _pair_rows(rows, base[-1], base[:-1])
    rows[:-1] *= math.sqrt(0.5)
    rows[-1] = base[-1]
    return rows


def _moments(value: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(<M>, Var(M), ||M r||^2, residue) from each row's complex <r|M r> and real ||M r||^2.

    A largest |Im<r|M r>| above ``NORM_ATOL`` raises ``ValueError``;
    Var(M) = ||M r||^2 - <M>^2 is clamped at 0.
    """
    residue = float(np.maximum.reduce(np.abs(value.imag)))
    if residue > NORM_ATOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}")
    mean = value.real
    return mean, np.maximum(second - mean * mean, 0.0), second, residue


def _built_row_moments(
    rows: np.ndarray, h_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The explicit form's moments: <r|M r> and ||M r||^2 of built (B, d) rows, one row-wise product each."""
    return _moments(np.vecdot(rows, h_rows), np.vecdot(h_rows, h_rows).real)


def _shift_row_moments(
    base: np.ndarray, h_base: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The products form's moments of the 2m + 1 shift rows, from the (m+1, d) base rows and M on them.

    Each read of a row is a fixed combination of products of base rows:
    <r+-|M r+-> = (<psi|M psi> + <phi_k|M phi_k>)/2 +- (<psi|M phi_k> + <phi_k|M psi>)/2 and
    ||M r+-||^2 = (||M psi||^2 + ||M phi_k||^2)/2 +- Re<M psi|M phi_k>.
    The residue covers the cross terms' imaginary parts.
    """
    m = base.shape[0] - 1
    phi, h_phi, psi, h_psi = base[:-1], h_base[:-1], base[-1], h_base[-1]
    # Columns <r|M r> and ||M r||^2, one row per shift row.  The even rows
    # first take each base row's own products (phi_k at row 2k, psi at the
    # last), then the centres (own_psi + own_phi_k)/2.  The real part of the
    # last column is the one read.
    reads = np.empty((2 * m + 1, 2), dtype=np.complex128)
    own = reads[::2]
    np.vecdot(base, h_base, out=own[:, 0])
    np.vecdot(h_base, h_base, out=own[:, 1])
    cross = np.empty((m, 2), dtype=np.complex128)
    np.vecdot(psi, h_phi, out=cross[:, 0])  # <psi|M phi_k>
    cross[:, 0] += np.vecdot(phi, h_psi)  # <phi_k|M psi>
    cross[:, 0] *= 0.5
    np.vecdot(h_psi, h_phi, out=cross[:, 1])  # <M psi|M phi_k>
    centre = own[:-1]
    centre += own[-1]
    centre *= 0.5
    _pair_rows(reads, centre, cross)
    value, second = reads.T
    return _moments(value, second.real)


def _shift_row_products(base: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """The products form's (2m+1, P) <r|k_j>: (<psi|k_j> +- <phi_k|k_j>)/sqrt(2), from the base rows."""
    rows = np.empty((base.shape[0] * 2 - 1, kets.shape[0]), dtype=np.complex128)
    np.vecdot(base[:, None, :], kets, out=rows[::2])  # <b|k_j>: phi_k at row 2k, psi at the last
    _pair_rows(rows, rows[-1], rows[:-1:2])
    rows[:-1] *= math.sqrt(0.5)
    return rows


def shift_rule_gradient(shifted_values: np.ndarray) -> np.ndarray:
    """[f(+s e_k) - f(-s e_k)] / 2 from the objective at the first 2m shift rows."""
    return 0.5 * (shifted_values[0::2] - shifted_values[1::2])
