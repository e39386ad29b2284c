"""Statevector simulator: gates, expectations, noise model, circuits, gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from eigengames import hamiltonian, quantum_sim
from eigengames.errors import (
    BindingError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidShotCountError,
    NormalizationError,
)
from eigengames.hamiltonian import (
    STACKED_APPLY_ENTRIES,
    PauliSum,
    bundled_h2_path,
    load_pauli_sum,
    pauli_sum_to_matrix,
)
from eigengames.quantum_sim import (
    BRANCH_TABLE_ENTRIES,
    NORM_ATOL,
    ROTATION_KINDS,
    AnsatzSpec,
    ShotModel,
    StateVector,
    _built_row_moments,
    _shift_row_moments,
    _shift_row_products,
    _shift_rows,
    apply_ansatz,
    check_sweep,
    interference_moments,
    layered_ansatz,
    parameter_shift_states,
    pauli_sum_apply,
    perturb_readouts,
    random_layers_ansatz,
    swap_test_moments,
    sweep_reads,
)

from oracles import (
    _cnot,
    _extend_with_ancilla_z,
    _interference_states,
    _single_qubit_gate,
    _swap_test_p0,
    compiled_pauli_sum,
    mixed_expectation,
    mixed_expectation_states,
    parameter_shift_gradient,
    parameter_shift_points,
    product_state,
    rebuild_shift_rows,
    rotation_gate,
    row_moments,
    scalar_perturb_readouts,
    swap_test_overlap,
)

Z1 = PauliSum(1, ((1.0, "Z"),))


def random_state(num_qubits, rng):
    amps = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return amps / np.linalg.norm(amps)


def noisy_energy(h, psi, shots):
    """One read-out of <M> on psi as the players draw it: ``sweep_reads`` on psi, then ``perturb_readouts``."""
    (mean, var, _, _), _, _ = sweep_reads(h, psi[None, :], None)
    return float(perturb_readouts(shots, mean, var, shots.make_rng())[0])


def exact_energy(h, psi):
    """<M> on psi as the library reads one state: ``sweep_reads``' mean on the one-row base psi."""
    return noisy_energy(h, psi, ShotModel())


def central_difference_gradient(objective, theta, step=1e-5):
    """Independent oracle for circuit gradients."""
    grad = np.empty_like(theta)
    for k in range(theta.shape[0]):
        plus = theta.copy()
        minus = theta.copy()
        plus[k] += step
        minus[k] -= step
        grad[k] = (objective(plus) - objective(minus)) / (2.0 * step)
    return grad


class TestApplyAnsatz:
    def test_zero_rotation_is_identity(self):
        spec = AnsatzSpec(2, ((("RY", 0), ("RY", 1)),), (), "zero")
        out = apply_ansatz(spec, [0.0, 0.0])
        assert np.allclose(out.amplitudes, product_state("zero", 2), atol=1e-15)

    def test_ry_pi_flips_qubit(self):
        spec = AnsatzSpec(1, ((("RY", 0),),), (), "zero")
        out = apply_ansatz(spec, [np.pi])
        assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-12

    def test_norm_preserved_for_random_parameters(self):
        spec = random_layers_ansatz(3, 4, 5, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            out = apply_ansatz(spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_parameter_length_mismatch_rejected(self):
        spec = random_layers_ansatz(2, 2, 3, seed=0)
        with pytest.raises(BindingError):
            apply_ansatz(spec, [0.0, 0.0])

    def test_plus_initial_state(self):
        spec = AnsatzSpec(2, ((("RZ", 0),),), (), "plus")
        out = apply_ansatz(spec, [0.0])
        assert np.allclose(np.abs(out.amplitudes), 0.5, atol=1e-12)

    @pytest.mark.parametrize(
        "theta, where", [([np.nan, 0.0, 0.0, 0.0], "0"), ([[0.1, 0.2, 0.3, 0.4], [0.0, np.nan, 0.0, 0.0]], "1, 1")],
        ids=["single", "batch-row"],
    )
    def test_nan_parameter_rejected(self, theta, where):
        # NaN amplitudes used to come back: their NaN norms passed the check.  The
        # cause is now named at intake, before the symptom (a NaN state norm).
        with pytest.raises(BindingError, match=rf"^theta\[{where}\] must be finite, got nan$"):
            apply_ansatz(layered_ansatz(2, 1), np.array(theta))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_non_finite_parameter_named_before_any_preparation(self, monkeypatch, value, batch):
        # An inf parameter used to reach cos and sin: NumPy's "invalid value
        # encountered in cos", an error under the suite's warning filter.
        def no_preparation(*args):
            raise AssertionError("a state was prepared")

        monkeypatch.setattr(quantum_sim, "_prepare", no_preparation)
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        theta = np.full((3, 9), 0.1) if batch else np.full(9, 0.1)
        theta[(2, 4) if batch else 4] = value
        where = "2, 4" if batch else "4"
        with pytest.raises(BindingError, match=rf"^theta\[{where}\] must be finite, got {value!r}$"):
            apply_ansatz(spec, theta)


def cnot_ring(q):
    """The CNOT ring ``AnsatzSpec`` layouts carry: one pair on two qubits, none on one."""
    return tuple((i, (i + 1) % q) for i in range(q if q > 2 else q - 1))


@st.composite
def table_layouts(draw):
    """A layout with a branch table and sweep plan (1-4 qubits, m >= 2 and 2**m * 2**q at most
    ``BRANCH_TABLE_ENTRIES``, either initial state) with a batch of 0, 1 or 9 rows."""
    q = draw(st.integers(1, 4))
    m = draw(st.integers(2, BRANCH_TABLE_ENTRIES.bit_length() - 1 - q))
    gates = draw(st.lists(
        st.tuples(st.sampled_from(ROTATION_KINDS), st.integers(0, q - 1)), min_size=m, max_size=m))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=3)))
    spec = AnsatzSpec(
        num_qubits=q,
        layer_rotations=tuple(tuple(gates[a:b]) for a, b in zip([0, *cuts], [*cuts, m])),
        entangler_pairs=cnot_ring(q),
        initial_state=draw(st.sampled_from(["plus", "zero"])),
    )
    return spec, draw(st.sampled_from([0, 1, 9])), draw(st.integers(0, 2**32 - 1))


def per_gate_ansatz(spec, values):
    """Reference preparation: one 2x2 gate or CNOT at a time, in circuit order."""
    amps = product_state(spec.initial_state, spec.num_qubits)
    params = iter(values)  # parameter k drives the k-th rotation in circuit order
    for layer in spec.layer_rotations:
        for kind, qubit in layer:
            amps = _single_qubit_gate(amps, rotation_gate(kind, next(params)), qubit, spec.num_qubits)
        for control, target in spec.entangler_pairs:
            amps = _cnot(amps, control, target, spec.num_qubits)
    return amps


class TestBatchedAnsatz:
    @pytest.mark.parametrize("initial_state", ["plus", "zero"])
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda init: random_layers_ansatz(3, 4, 5, seed=2, initial_state=init),
            lambda init: random_layers_ansatz(4, 2, 6, seed=7, initial_state=init),
            lambda init: layered_ansatz(1, 2, initial_state=init),
            lambda init: layered_ansatz(2, 3, initial_state=init),
            lambda init: layered_ansatz(3, 2, initial_state=init),
            lambda init: random_layers_ansatz(8, 2, 12, seed=5, initial_state=init),
            # The gate loop runs the first layer (every layer, without a CNOT
            # ring) on per-qubit factors; these layouts are too large for a
            # branch table, so the loop prepares them.
            pytest.param(lambda init: layered_ansatz(8, 2, initial_state=init), id="wide"),
            pytest.param(lambda init: AnsatzSpec(3, (
                (("RY", 0), ("RX", 1), ("RZ", 2), ("RX", 0)),
                (("RZ", 0), ("RY", 1), ("RY", 2)),
                (("RX", 2), ("RZ", 1), ("RY", 0)),
            ), (), init), id="no-ring"),
            pytest.param(lambda init: AnsatzSpec(3, (
                (),
                (("RY", 0), ("RZ", 1), ("RX", 2), ("RY", 1), ("RZ", 0)),
                (("RX", 1), ("RY", 2), ("RZ", 2), ("RX", 0), ("RY", 1)),
            ), cnot_ring(3), init), id="empty-first-layer"),
            pytest.param(lambda init: AnsatzSpec(4, (
                (("RY", 1), ("RZ", 1), ("RX", 1), ("RY", 3)),
                (("RY", 0), ("RZ", 2), ("RX", 3), ("RY", 2), ("RZ", 1)),
            ), cnot_ring(4), init), id="skipped-and-stacked-qubits"),
        ],
    )
    def test_rows_match_per_gate_reference(self, make_spec, initial_state):
        spec = make_spec(initial_state)
        rng = np.random.default_rng(spec.num_qubits)
        for size in (0, 1, 9):
            rows = rng.uniform(-np.pi, np.pi, (size, spec.num_parameters))
            batch = apply_ansatz(spec, rows)
            assert batch.shape == (size, 2**spec.num_qubits)
            for row, amps in zip(rows, batch):
                assert np.max(np.abs(amps - per_gate_ansatz(spec, row))) <= 1e-12
                single = apply_ansatz(spec, row)
                assert np.array_equal(single.amplitudes, amps)

    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_batch_of_any_size_gives_a_block(self, batch):
        spec = random_layers_ansatz(3, 2, 4, seed=1)
        rows = np.random.default_rng(batch).uniform(-np.pi, np.pi, (batch, spec.num_parameters))
        assert apply_ansatz(spec, rows).shape == (batch, 8)

    def test_gate_plan_built_once_and_read_only(self):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        phases, layers = spec.gate_plan
        assert spec.gate_plan[0] is phases
        assert not phases.flags.writeable
        assert phases.shape == (spec.num_parameters, 2, 1, 1)
        kinds = [kind for layer in spec.layer_rotations for kind, _ in layer]
        assert [k for planned in layers for _, k, _ in planned] == list(range(spec.num_parameters))
        for layer, planned in zip(spec.layer_rotations, layers):
            assert [q for _, q in layer] == [q for q, _, _ in planned]
            assert [diagonal for _, _, diagonal in planned] == [kinds[k] == "RZ" for _, k, _ in planned]

    def test_batch_shape_mismatch_rejected(self):
        spec = random_layers_ansatz(2, 2, 3, seed=0)
        with pytest.raises(BindingError):
            apply_ansatz(spec, np.zeros((4, spec.num_parameters + 1)))

    @given(table_layouts())
    @settings(max_examples=60, deadline=None)
    def test_gate_loop_matches_the_reference_on_random_layouts(self, layout):
        spec, batch, seed = layout
        rows = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, (batch, spec.num_parameters))
        loop = apply_ansatz(spec, rows)
        assert loop.shape == (batch, 2**spec.num_qubits)
        for row, amps in zip(rows, loop):
            assert np.max(np.abs(amps - per_gate_ansatz(spec, row))) <= 1e-14


@st.composite
def sweep_plan_layouts(draw):
    """A layout whose sweep the plan prepares (1-3 qubits, m from 2 to the table limit, RX/RY/RZ on
    random qubits, either initial state, with or without a CNOT ring) and a seed."""
    q = draw(st.integers(1, 3))
    m = draw(st.integers(2, BRANCH_TABLE_ENTRIES.bit_length() - 1 - q))
    gates = draw(st.lists(
        st.tuples(st.sampled_from(ROTATION_KINDS), st.integers(0, q - 1)), min_size=m, max_size=m))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=3)))
    spec = AnsatzSpec(
        num_qubits=q,
        layer_rotations=tuple(tuple(gates[a:b]) for a, b in zip([0, *cuts], [*cuts, m])),
        entangler_pairs=cnot_ring(q) if draw(st.booleans()) else (),
        initial_state=draw(st.sampled_from(["plus", "zero"])),
    )
    return spec, draw(st.integers(0, 2**32 - 1))


def loop_sweep(spec, theta):
    """The sweep the players' loop prepares: ``quantum_sim``'s unchecked core on a bound theta."""
    return quantum_sim._sweep_states(spec, spec.bind(theta))


def plan_blocks(spec):
    """The layout's sweep plan as (2**m, m + 1, 2**q) blocks; block m is the branch table."""
    _, plan = spec.sweep_plan
    return plan.reshape(2**spec.num_parameters, spec.num_parameters + 1, -1)


class TestSweepPlan:
    """The m + 1 rows of a sweep, from one weight row and the sweep plan, against the
    gate-by-gate reference and against the gate loop on every shifted parameter row."""

    @given(sweep_plan_layouts())
    @settings(max_examples=60, deadline=None)
    def test_plan_rows_match_the_reference_and_the_gate_loop(self, layout):
        spec, seed = layout
        m = spec.num_parameters
        theta = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, m)
        sweep = loop_sweep(spec, theta)
        assert "sweep_plan" in vars(spec)
        assert sweep.shape == (m + 1, 2**spec.num_qubits)
        points = theta + np.pi * np.eye(m + 1, m)
        assert np.max(np.abs(sweep - apply_ansatz(spec, points))) <= 1e-14  # the gate loop
        for row, point in zip(sweep, points):
            assert np.max(np.abs(row - per_gate_ansatz(spec, point))) <= 1e-12

    @given(sweep_plan_layouts())
    @settings(max_examples=30, deadline=None)
    @example((layered_ansatz(8, 2), 0))  # the benchmark's wide layout, a gate-loop layout at any setting
    @example((AnsatzSpec(2, ((("RY", 0),),), cnot_ring(2)), 1))  # one parameter
    def test_gate_loop_sweeps_are_the_shifted_rows_bit_for_bit(self, layout):
        spec, seed = layout
        m = spec.num_parameters
        theta = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, m)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(quantum_sim, "BRANCH_TABLE_ENTRIES", 0)  # every layout on the gate loop
            sweep = loop_sweep(spec, theta)
        assert np.array_equal(sweep, apply_ansatz(spec, theta + np.pi * np.eye(m + 1, m)))
        assert "sweep_plan" not in vars(spec)

    @pytest.mark.parametrize("spec", [
        pytest.param(random_layers_ansatz(2, 3, 3, seed=11), id="h2-plan"),
        pytest.param(random_layers_ansatz(1, 1, 11, seed=0), id="largest-plan"),
        pytest.param(layered_ansatz(8, 2), id="wide-loop"),
        pytest.param(AnsatzSpec(2, ((("RY", 0),),), cnot_ring(2)), id="one-parameter-loop"),
    ])
    def test_public_sweep_is_the_loop_sweep_bit_for_bit(self, spec):
        theta = np.random.default_rng(3).uniform(-np.pi, np.pi, spec.num_parameters)
        assert np.array_equal(parameter_shift_states(spec, theta), loop_sweep(spec, theta))

    @given(table_layouts())
    @settings(max_examples=60, deadline=None)
    @example((layered_ansatz(3, 1), 0, 0))  # odd q: 2**(-q/2) is no power of two
    def test_branch_table_entries_are_exact(self, layout):
        # The gate loop builds the branch table, block m of the plan, with every
        # cos and sin 0 or 1, so every entry is 0, or +-1 or +-i times the
        # initial amplitude, to the bit.
        spec = layout[0]
        amplitude = 2.0 ** (-spec.num_qubits / 2.0) if spec.initial_state == "plus" else 1.0
        table = plan_blocks(spec)[:, -1]
        assert np.isin(table.real, (-amplitude, 0.0, amplitude)).all()
        assert np.isin(table.imag, (-amplitude, 0.0, amplitude)).all()
        assert np.isin(np.abs(table), (0.0, amplitude)).all()

    def test_sweep_plan_built_once_and_read_only(self):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        index, plan = spec.sweep_plan
        loop_sweep(spec, np.zeros(9))
        assert spec.sweep_plan[1] is plan
        assert not plan.flags.writeable and not index.flags.writeable and plan.flags.c_contiguous
        assert plan.shape == (2**9, 10 * 4) and index.shape == (5, 2**4 + 2**5)
        blocks = plan_blocks(spec)
        table = blocks[:, 9]
        # Block m of row S is the state at theta_k = pi for k in S, parameter k at bit m - 1 - k.
        for branch in (0, 1, 0b100000000, 0b101010101, 2**9 - 1):
            theta = np.pi * ((branch >> np.arange(8, -1, -1)) & 1)
            assert np.max(np.abs(table[branch] - per_gate_ansatz(spec, theta))) <= 1e-15
        # Exact: every entry 0, or +-1 or +-i times the initial amplitude 1/2.
        assert np.isin(table.real, (-0.5, 0.0, 0.5)).all() and np.isin(table.imag, (-0.5, 0.0, 0.5)).all()
        assert np.isin(np.abs(table), (0.0, 0.5)).all()
        # Block k of row S is -+psi_{S xor k}, minus when k is in S.
        rows = np.arange(2**9)
        for k in range(9):
            bit = 1 << (8 - k)
            sign = np.where(rows & bit, -1.0, 1.0)[:, None]
            assert np.array_equal(blocks[:, k], sign * table[rows ^ bit])

    def test_size_rule_picks_the_plan_up_to_the_constant(self):
        q = 2
        m = BRANCH_TABLE_ENTRIES.bit_length() - 1 - q
        assert 2 ** (m + q) == BRANCH_TABLE_ENTRIES
        at, above = (random_layers_ansatz(q, 1, size, seed=3) for size in (m, m + 1))
        one_parameter = AnsatzSpec(q, ((("RY", 0),),), cnot_ring(q))
        for spec in (at, above, one_parameter):
            parameter_shift_states(spec, np.zeros(spec.num_parameters))
        assert "sweep_plan" in vars(at)
        assert "sweep_plan" not in vars(above) and "sweep_plan" not in vars(one_parameter)

    @pytest.mark.parametrize("spec, plan", [
        pytest.param(random_layers_ansatz(2, 3, 3, seed=11), True, id="h2-plan"),
        pytest.param(layered_ansatz(8, 2), False, id="wide-loop"),
        pytest.param(AnsatzSpec(2, ((("RY", 0),),), cnot_ring(2)), False, id="one-parameter-loop"),
    ])
    def test_sweep_function_built_once_per_layout(self, monkeypatch, spec, plan):
        # The first sweep picks the preparation and keeps it on the layout; a
        # size rule changed afterwards picks nothing anew, so a loop layout
        # never builds its plan.
        theta = np.random.default_rng(4).uniform(-np.pi, np.pi, spec.num_parameters)
        assert "sweep_function" not in vars(spec)
        first = loop_sweep(spec, theta)
        built = vars(spec)["sweep_function"]
        monkeypatch.setattr(quantum_sim, "BRANCH_TABLE_ENTRIES", 0 if plan else math.inf)
        for _ in range(2):
            assert np.array_equal(loop_sweep(spec, theta), first)
            assert np.array_equal(parameter_shift_states(spec, theta), first)
        assert vars(spec)["sweep_function"] is built
        assert ("sweep_plan" in vars(spec)) == plan

    def test_public_sweep_binds_theta(self):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        with pytest.raises(BindingError, match="spec has 9 parameters"):
            parameter_shift_states(spec, np.zeros(8))
        with pytest.raises(BindingError, match=r"^theta\[2\] must be finite, got inf$"):
            parameter_shift_states(spec, np.array([0.0, 0.0, np.inf, *[0.0] * 6]))
        assert "sweep_plan" not in vars(spec)  # rejected before any table is built


def random_pauli_sum(num_qubits, num_terms, rng):
    """Random strings with repeated x-masks (X/Y swaps keep the mask) and an identity term."""
    terms = [(float(rng.uniform(-1, 1)), "I" * num_qubits)]
    while len(terms) < num_terms:
        string = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=num_qubits))
        terms.append((float(rng.uniform(-1, 1)), string))
        swapped = string.translate(str.maketrans("XYIZ", "YXZI"))  # same x-mask, new z-mask
        terms.append((float(rng.uniform(-1, 1)), swapped))
    return PauliSum(num_qubits, tuple(terms))


class TestCompiledPauliSum:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_batch_apply_matches_kronecker_form(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        h = random_pauli_sum(num_qubits, 12, rng)
        masks = {sum(1 << i for i, ch in enumerate(reversed(s)) if ch in "XY") for _, s in h.terms}
        perms, weights = h.compiled
        assert len(perms) == len(weights) == len(masks) < len(h.terms)
        dense = pauli_sum_to_matrix(h)
        batch = rng.standard_normal((5, 2**num_qubits)) + 1j * rng.standard_normal((5, 2**num_qubits))
        got = pauli_sum_apply(h, batch)
        assert np.max(np.abs(got - batch @ dense.T)) <= 1e-12

    def test_identity_rows_give_the_dense_matrix(self):
        h = random_pauli_sum(3, 10, np.random.default_rng(5))
        dense = pauli_sum_apply(h, np.eye(8)).T
        assert np.array_equal(dense, pauli_sum_to_matrix(h))

    def test_compiled_on_first_use_only(self):
        h = random_pauli_sum(2, 4, np.random.default_rng(6))
        assert "compiled" not in vars(h)
        pauli_sum_apply(h, np.eye(4))
        perms, weights = vars(h)["compiled"]
        assert perms.shape == weights.shape == (len(perms), 4)
        assert np.issubdtype(perms.dtype, np.integer) and weights.dtype == np.complex128
        assert not perms.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("identity", [False, True], ids=["traceless", "with-identity"])
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_stacked_form_equals_per_term_oracle(self, num_qubits, identity):
        rng = np.random.default_rng(200 + 10 * num_qubits + identity)
        h = random_pauli_sum(num_qubits, 4 * num_qubits, rng)
        if not identity:
            h = PauliSum(num_qubits, h.terms[1:])
        perms, weights = h.compiled
        oracle_perms, oracle_weights = compiled_pauli_sum(h)
        assert np.array_equal(perms, oracle_perms)  # same masks, same order
        assert np.array_equal(weights, oracle_weights)
        assert perms.dtype == oracle_perms.dtype and weights.dtype == oracle_weights.dtype

    @pytest.mark.parametrize("identity", [False, True], ids=["traceless", "with-identity"])
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_single_vector_apply_equals_batch_row(self, num_qubits, identity, monkeypatch):
        rng = np.random.default_rng(300 + 10 * num_qubits + identity)
        h = random_pauli_sum(num_qubits, 4 * num_qubits, rng)
        if not identity:
            h = PauliSum(num_qubits, h.terms[1:])
        # A (1, d) batch takes the single-vector product; a larger batch the
        # stacked product or the per-mask loop, which give the same bits per row.
        for _ in range(3):
            v, w = rng.standard_normal((2, 2**num_qubits)) + 1j * rng.standard_normal((2, 2**num_qubits))
            one_row = h.apply(v[None])
            assert one_row.shape == (1, 2**num_qubits)
            assert np.array_equal(h.apply(v), one_row[0])
            assert np.array_equal(h.apply(v), h.apply(np.stack((v, w)))[0])
        # Batches at the size rule's limit and one row above it: the form the
        # rule picks, each form forced on every batch, and each row alone give
        # the same bits, the signs of zeros included.
        masks, dim = h.compiled[0].shape
        at = max(1, STACKED_APPLY_ENTRIES // (masks * dim))
        assert (at + 1) * masks * dim > STACKED_APPLY_ENTRIES
        for rows in (2, at, at + 1):
            batch = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
            picked = h.apply(batch).view(np.uint64)
            for limit in (math.inf, -1):  # every batch stacked, then every batch looped
                monkeypatch.setattr(hamiltonian, "STACKED_APPLY_ENTRIES", limit)
                assert np.array_equal(h.apply(batch).view(np.uint64), picked)
            monkeypatch.undo()
            for row, bits in zip(batch, picked):
                assert np.array_equal(h.apply(row).view(np.uint64), bits)

    def test_empty_sum_compiles_to_no_rows(self):
        perms, weights = PauliSum(2, ()).compiled
        assert perms.shape == weights.shape == (0, 4)
        assert np.issubdtype(perms.dtype, np.integer) and weights.dtype == np.complex128

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            pauli_sum_apply(Z1, np.ones(4, dtype=complex))


class TestAnsatzSpec:
    def test_random_layers_deterministic(self):
        a = random_layers_ansatz(2, 3, 3, seed=11)
        b = random_layers_ansatz(2, 3, 3, seed=11)
        assert a.layer_rotations == b.layer_rotations
        assert a.num_parameters == 9

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_random_layers_seed_must_be_a_non_negative_integer(self, seed):
        # Used to reach np.random.default_rng: -1 raised its unnamed ValueError, 1.5 a TypeError.
        with pytest.raises(ValueError, match=rf"seed must be a non-negative integer, got {seed}"):
            random_layers_ansatz(2, 3, 3, seed=seed)

    @pytest.mark.parametrize("build, name, value", [
        (lambda: random_layers_ansatz(2, 0, 3, seed=0), "num_layers", 0),
        (lambda: random_layers_ansatz(2, 3, -2, seed=0), "rotations_per_layer", -2),
        (lambda: random_layers_ansatz(2, True, 3, seed=0), "num_layers", True),
        (lambda: random_layers_ansatz(2, 3, 1.0, seed=0), "rotations_per_layer", 1.0),
        (lambda: layered_ansatz(2, 0), "num_layers", 0),
        (lambda: layered_ansatz(2, False), "num_layers", False),
        (lambda: layered_ansatz(2, 2.0), "num_layers", 2.0),
    ], ids=["random-no-layers", "random-negative-rotations", "random-bool-layers", "random-float-rotations",
            "layered-no-layers", "layered-bool-layers", "layered-float-layers"])
    def test_builders_reject_counts_that_leave_no_parameters(self, build, name, value):
        # A count of 0 or below used to build a layout with no parameters, which
        # every quantum player then reported as converged at iteration 0.
        with pytest.raises(ValueError, match=rf"{name} must be a whole number of at least 1, got {value!r}"):
            build()

    def test_builders_take_numpy_counts(self):
        spec = random_layers_ansatz(2, np.int64(2), np.int32(3), seed=0)
        assert spec == random_layers_ansatz(2, 2, 3, seed=0)
        assert layered_ansatz(2, np.int64(1)).num_parameters == 4

    def test_num_layers_counts_layer_rotations(self):
        assert random_layers_ansatz(2, 3, 3, seed=11).num_layers == 3
        assert AnsatzSpec(1, (), ()).num_layers == 0

    def test_empty_register_rejected(self):
        # Used to build a one-amplitude "register": apply_ansatz returned [1+0j].
        with pytest.raises(InvalidDimensionError):
            AnsatzSpec(0, (), ())

    def test_negative_register_rejected(self):
        # Used to build, and fail later in initial_amplitudes with numpy's TypeError.
        with pytest.raises(InvalidDimensionError):
            AnsatzSpec(-1, (), ())

    def test_slotted_gate_rejected(self):
        # Gates are (kind, qubit) pairs: parameter k is the k-th rotation in circuit order.
        with pytest.raises(ValueError):
            AnsatzSpec(1, ((("RY", 0, 0),),), ())

    @pytest.mark.parametrize("gate", [("RW", 0), ("RY", 1), ("RY", -1), ("RX", 0.0)])
    def test_bad_kind_or_qubit_rejected(self, gate):
        # ("RX", 0.0) passed the range test and failed in preparation with numpy's IndexError.
        with pytest.raises(ValueError):
            AnsatzSpec(1, ((gate,),), ())

    @pytest.mark.parametrize(
        "pair", [(0, 2), (0, 0), (0, -1), (0.0, 1)],
        ids=["target-out-of-range", "control-is-target", "negative-target", "float-control"],
    )
    def test_bad_entangler_pair_rejected(self, pair):
        # These used to build: (0, 2) ran an identity "CNOT", (0, 0) failed later
        # with a NormalizationError, (0, -1) with an IndexError and (0.0, 1) with a TypeError.
        with pytest.raises(ValueError, match="entangler pair"):
            AnsatzSpec(2, ((("RY", 0),),), (pair,))

    @pytest.mark.parametrize("values", [[0.1] * 8, [0.1] * 10, [[0.1] * 9]])
    def test_bind_rejects_wrong_shape(self, values):
        with pytest.raises(BindingError):
            random_layers_ansatz(2, 3, 3, seed=11).bind(values)

    def test_bound_values_are_a_read_only_copy(self):
        values = np.linspace(0.0, 1.0, 9)
        theta = random_layers_ansatz(2, 3, 3, seed=11).bind(values)
        values[0] = 5.0
        assert theta.dtype == np.float64 and theta.shape == (9,)
        assert theta[0] == 0.0 and not theta.flags.writeable

    @pytest.mark.parametrize("initial_state", ["plus", "zero"])
    def test_initial_factors_built_once_and_read_only(self, initial_state):
        spec = AnsatzSpec(3, ((("RY", 0),),), (), initial_state)
        factors = spec.initial_factors
        assert factors.shape == (3, 2)
        product = np.kron(np.kron(factors[0], factors[1]), factors[2])
        assert np.array_equal(product, product_state(initial_state, 3))
        assert not factors.flags.writeable
        assert spec.initial_factors is factors

    def test_describe_lists_every_layer(self):
        spec = random_layers_ansatz(2, 3, 3, seed=11)
        text = spec.describe()
        assert text.count("layer ") == 3
        assert "parameters=9" in text

    def test_describe_numbers_gates_in_circuit_order(self):
        assert layered_ansatz(1, 2, initial_state="zero").describe() == (
            "ansatz qubits=1 layers=2 parameters=4 initial=zero seed=None\n"
            "layer 0: RY q0 p0; RZ q0 p1 | cnot ring: none\n"
            "layer 1: RY q0 p2; RZ q0 p3 | cnot ring: none"
        )



class TestExpectation:
    def test_z_eigenstate(self):
        assert exact_energy(Z1, product_state("zero", 1)) == pytest.approx(1.0, abs=1e-14)

    def test_z_on_plus_state(self):
        assert exact_energy(Z1, product_state("plus", 1)) == pytest.approx(0.0, abs=1e-12)

    def test_molecular_ground_state_matches_oracle(self):
        # Oracle: dense diagonalization of the bundled operator.
        h = load_pauli_sum(bundled_h2_path())
        values, vectors = np.linalg.eigh(pauli_sum_to_matrix(h))
        assert exact_energy(h, vectors[:, 0]) == pytest.approx(float(values[0]), abs=1e-12)

    def test_qubit_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            exact_energy(Z1, product_state("zero", 2))

    def test_expectation_matches_dense_on_random_states(self):
        h = load_pauli_sum(bundled_h2_path())
        dense = pauli_sum_to_matrix(h)
        rng = np.random.default_rng(3)
        for _ in range(20):
            psi = random_state(2, rng)
            direct = float(np.vdot(psi, dense @ psi).real)
            assert exact_energy(h, psi) == pytest.approx(direct, abs=1e-12)


class TestStateMoments:
    """<M> and Var(M) of independent rows: the dense per-row reference, and the library's one-row read of it."""

    def test_moments_match_dense(self):
        rng = np.random.default_rng(21)
        h = random_pauli_sum(3, 10, rng)
        dense = pauli_sum_to_matrix(h)
        rows = np.array([random_state(3, rng) for _ in range(6)])
        mean, var, second, residue = row_moments(rows, pauli_sum_apply(h, rows))
        m_rows = rows @ dense.T
        dense_mean = np.einsum("bi,bi->b", rows.conj(), m_rows).real
        dense_second = np.einsum("bi,bi->b", m_rows.conj(), m_rows).real
        assert mean.shape == var.shape == second.shape == (6,)
        assert np.allclose(mean, dense_mean, rtol=0.0, atol=1e-12)
        assert np.allclose(second, dense_second, rtol=0.0, atol=1e-12)
        assert np.allclose(var, dense_second - dense_mean**2, rtol=0.0, atol=1e-11)
        assert np.all(var > 0.0)
        assert 0.0 <= residue <= NORM_ATOL

    def test_one_row_shift_read_equals_the_reference(self):
        # A one-row base is a plain state: its shift-row read is that state's moments.
        rng = np.random.default_rng(22)
        h = random_pauli_sum(3, 10, rng)
        rows = np.array([random_state(3, rng) for _ in range(6)])
        h_rows = pauli_sum_apply(h, rows)
        want = row_moments(rows, h_rows)
        for b in range(6):
            got = _shift_row_moments(rows[b:b + 1], h_rows[b:b + 1])
            assert [g.shape for g in got[:3]] == [(1,)] * 3
            for g, w in zip(got[:3], want[:3]):
                assert g[0] == pytest.approx(w[b], rel=0.0, abs=1e-15)
            assert got[3] <= NORM_ATOL

    @pytest.mark.parametrize("read", [row_moments, _shift_row_moments], ids=["reference", "one-row"])
    def test_variance_clamps_at_zero(self, read):
        # |0> a rounding off unit norm, with Z|0> = |0>: ||M psi||^2 - <M>^2 is
        # below 0; the variance clamps to 0 and the second moment stays as computed.
        rows = np.array([[1.0 + 1e-12, 0.0]], dtype=np.complex128)
        h_rows = np.array([[1.0, 0.0]], dtype=np.complex128)
        mean, var, second, _ = read(rows, h_rows)
        assert second[0] - mean[0] ** 2 < 0.0
        assert var[0] == 0.0 and second[0] == 1.0

    @pytest.mark.parametrize("read", [row_moments, _shift_row_moments], ids=["reference", "one-row"])
    def test_imaginary_residue_above_tolerance_raises(self, read):
        rows = product_state("plus", 1)[None, :]
        _, _, _, residue = read(rows, 0.5j * NORM_ATOL * rows)
        assert residue == pytest.approx(0.5 * NORM_ATOL, rel=1e-12)
        with pytest.raises(ValueError, match="imaginary residue"):
            read(rows, 2j * NORM_ATOL * rows)


class TestShotNoise:
    def test_zero_variance_is_exact(self):
        shots = ShotModel(17, rng_seed=0)
        assert noisy_energy(Z1, product_state("zero", 1), shots) == 1.0

    def test_exact_model_reads_the_mean(self):
        h = load_pauli_sum(bundled_h2_path())
        psi = random_state(2, np.random.default_rng(4))
        assert noisy_energy(h, psi, ShotModel()) == sweep_reads(h, psi[None, :], None)[0][0][0]

    def test_ten_thousand_shot_band(self):
        # Var(Z on |+>) = 1, so the estimator std is 0.01; +-0.05 is a 5-sigma band.
        inside = 0
        trials = 300
        for seed in range(trials):
            value = noisy_energy(Z1, product_state("plus", 1), ShotModel(10_000, rng_seed=seed))
            inside += abs(value) <= 0.05
        assert inside / trials >= 0.99

    def test_huge_shot_count_converges(self):
        inside = 0
        trials = 200
        for seed in range(trials):
            value = noisy_energy(Z1, product_state("plus", 1), ShotModel(10**8, rng_seed=seed))
            inside += abs(value) <= 1e-3
        assert inside / trials >= 0.99

    def test_deterministic_per_seed(self):
        shots = ShotModel(100, rng_seed=5)
        assert noisy_energy(Z1, product_state("plus", 1), shots) == noisy_energy(Z1, product_state("plus", 1), shots)

    def test_successive_reads_on_one_generator_draw_independently(self):
        shots = ShotModel(100, rng_seed=5)
        rng = shots.make_rng()
        first = perturb_readouts(shots, np.zeros(3), np.ones(3), rng)
        second = perturb_readouts(shots, np.zeros(3), np.ones(3), rng)
        assert len(set(first.tolist() + second.tolist())) == 6

    def test_perturb_is_mean_plus_scaled_standard_normal(self):
        # Every pinned shot trajectory rests on this stream: one standard
        # normal per read-out, scaled by sqrt(Var/N), zero variances included.
        shots = ShotModel(10_000, rng_seed=11)
        rng, reference = shots.make_rng(), shots.make_rng()
        inputs = np.random.default_rng(12)
        for mean, variance in zip(inputs.normal(size=2000), inputs.choice([0.0, 0.3, 2.5], 2000)):
            expected = float(mean + reference.normal(0.0, 1.0) * np.sqrt(variance / shots.num_shots))
            assert shots.perturb(float(mean), float(variance), rng).hex() == expected.hex()

    @staticmethod
    @st.composite
    def readout_batches(draw):
        """(means, variances) of one shape, (R,) or (B, R): any float, NaN and +-0.0 included."""
        shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
        special = st.sampled_from([0.0, -0.0, -1e-300, -2.5, np.nan])
        means = draw(arrays(np.float64, shape, elements=st.floats(width=64) | special))
        variances = draw(arrays(np.float64, shape, elements=st.floats(width=64) | special))
        return means, variances

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(batch=readout_batches(), num_shots=st.integers(1, 10**6), seed=st.integers(0, 2**32 - 1))
    # A -0.0 variance on a -0.0 mean: the clamp's sign of zero decides the sign of the read.
    @example(batch=(np.array([-0.0]), np.array([-0.0])), num_shots=1, seed=0)
    def test_vector_draw_equals_scalar_loop_bit_for_bit(self, batch, num_shots, seed):
        means, variances = batch
        shots = ShotModel(num_shots, rng_seed=seed)
        rng, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        with np.errstate(all="ignore"):  # numpy warns on inf - inf and overflow; Python floats do not
            got = perturb_readouts(shots, means, variances, rng)
            expected = scalar_perturb_readouts(shots, means, variances, reference)
        assert got.shape == means.shape
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in expected.ravel().tolist()]
        assert rng.standard_normal().hex() == reference.standard_normal().hex()

    def test_vector_draw_clamps_and_propagates(self):
        means = np.array([[1.0, -0.0, np.nan], [2.0, 3.0, 4.0]])
        variances = np.array([[-3.0, -0.0, 1.0], [np.nan, 0.0, 4.0]])
        shots = ShotModel(100, rng_seed=2)
        reads = perturb_readouts(shots, means, variances, shots.make_rng())
        assert reads[0, 0] == 1.0 and reads[1, 1] == 3.0  # negative and zero variances: no noise
        assert np.isnan(reads[0, 2]) and np.isnan(reads[1, 0])
        assert reads[1, 2] != 4.0

    def test_exact_model_returns_means_untouched(self):
        means = np.array([1.0, 2.0])
        assert perturb_readouts(ShotModel(), means, None, None) is means

    def test_finite_model_without_a_generator_rejected(self):
        # Only an exact model may leave the generator out; a finite one names it.
        with pytest.raises(ValueError, match="random generator"):
            perturb_readouts(ShotModel(100), np.array([1.0, 2.0]), np.ones(2), None)

    def test_zero_shots_rejected(self):
        with pytest.raises(InvalidShotCountError):
            ShotModel(0)

    @pytest.mark.parametrize("num_shots", [np.nan, np.inf, 2.5, 10.0, "10"])
    def test_shot_count_must_be_a_whole_number(self, num_shots):
        with pytest.raises(InvalidShotCountError):
            ShotModel(num_shots)

    def test_numpy_integer_shot_count_accepted(self):
        assert ShotModel(np.int64(100)).num_shots == 100

    def test_empirical_std_matches_model(self):
        # Over many seeds the sample std must sit within 15% of sqrt(Var/N).
        h = load_pauli_sum(bundled_h2_path())
        rng = np.random.default_rng(8)
        psi = random_state(2, rng)
        (mean, var, _, _), _, _ = sweep_reads(h, psi[None, :], None)
        n = 400
        draws = np.array([noisy_energy(h, psi, ShotModel(n, rng_seed=s)) for s in range(1000)])
        expected_std = np.sqrt(var / n)
        assert abs(draws.std() - expected_std) <= 0.15 * expected_std
        assert abs(draws.mean() - mean) <= 5.0 * expected_std / np.sqrt(1000)


class TestMixedExpectation:
    def test_identical_parameters_reduce_to_expectation(self):
        spec = random_layers_ansatz(2, 2, 3, seed=4)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
        h = load_pauli_sum(bundled_h2_path())
        value = mixed_expectation(h, spec, theta, theta)
        assert value.imag == pytest.approx(0.0, abs=1e-10)
        assert value.real == pytest.approx(exact_energy(h, apply_ansatz(spec, theta).amplitudes), abs=1e-10)

    def test_orthogonal_basis_states(self):
        zero = product_state("zero", 1)
        one = np.array([0.0, 1.0], dtype=complex)
        assert abs(mixed_expectation_states(Z1, zero, one)) <= 1e-12

    def test_zero_plus_closed_form(self):
        value = mixed_expectation_states(Z1, product_state("zero", 1), product_state("plus", 1))
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_circuit_matches_dense_algebra_randomized(self):
        h = load_pauli_sum(bundled_h2_path())
        dense = pauli_sum_to_matrix(h)
        rng = np.random.default_rng(1)
        for _ in range(50):
            bra = random_state(2, rng)
            ket = random_state(2, rng)
            direct = complex(np.vdot(bra, dense @ ket))
            circuit = mixed_expectation_states(h, bra, ket)
            assert abs(circuit - direct) <= 1e-10


class TestClosedFormReadouts:
    """Closed forms the solver loop reads out, against the simulated ancilla circuits."""

    @staticmethod
    def circuit_moments(observable, state):
        m_state = pauli_sum_apply(observable, state)
        mean = float(np.vdot(state, m_state).real)
        return mean, float(np.vdot(m_state, m_state).real) - mean * mean

    def test_interference_means_and_variances(self):
        rng = np.random.default_rng(11)
        h = random_pauli_sum(3, 9, rng)
        observable = _extend_with_ancilla_z(h)
        rows = np.array([random_state(3, rng) for _ in range(6)])
        parents = np.array([random_state(3, rng) for _ in range(3)])
        m_rows = pauli_sum_apply(h, rows)
        m_parents = pauli_sum_apply(h, parents)
        row_second = np.einsum("bi,bi->b", m_rows.conj(), m_rows).real
        parent_second = np.einsum("pi,pi->p", m_parents.conj(), m_parents).real
        means, variances = interference_moments(rows.conj() @ m_parents.T, row_second, parent_second)
        assert means.shape == variances.shape == (6, 6)
        for b, row in enumerate(rows):
            for j, parent in enumerate(parents):
                states = _interference_states(row, parent)
                for part, state in enumerate(states):  # Re read-out, then Im
                    mean, var = self.circuit_moments(observable, state)
                    assert abs(means[b, 2 * j + part] - mean) <= 1e-12
                    assert abs(variances[b, 2 * j + part] - var) <= 1e-12

    def test_swap_test_probability_and_variance(self):
        rng = np.random.default_rng(12)
        rows = np.array([random_state(3, rng) for _ in range(6)])
        parents = np.array([random_state(3, rng) for _ in range(3)])
        p0, var = swap_test_moments(rows.conj() @ parents.T)
        for b, row in enumerate(rows):
            for j, parent in enumerate(parents):
                circuit = _swap_test_p0(row, parent)
                assert abs(p0[b, j] - circuit) <= 1e-12
                assert abs(var[b, j] - circuit * (1.0 - circuit)) <= 1e-12


class TestSwapTest:
    def test_identical_states(self):
        psi = product_state("plus", 2)
        assert swap_test_overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = product_state("zero", 1)
        one = np.array([0.0, 1.0], dtype=complex)
        assert swap_test_overlap(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_zero_plus_half(self):
        assert swap_test_overlap(product_state("zero", 1), product_state("plus", 1)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_direct_inner_product_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_state(2, rng)
            b = random_state(2, rng)
            direct = abs(np.vdot(a, b)) ** 2
            assert abs(swap_test_overlap(a, b) - direct) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            swap_test_overlap(product_state("zero", 1), product_state("zero", 2))


class TestParameterShift:
    def test_cosine_extremum(self):
        spec = AnsatzSpec(1, ((("RX", 0),),), (), "zero")

        def objective(theta):
            return exact_energy(Z1, apply_ansatz(spec, theta).amplitudes)

        assert parameter_shift_gradient(objective, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_slope(self):
        spec = AnsatzSpec(1, ((("RX", 0),),), (), "zero")

        def objective(theta):
            return exact_energy(Z1, apply_ansatz(spec, theta).amplitudes)

        got = parameter_shift_gradient(objective, np.array([np.pi / 2.0]))[0]
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_matches_central_differences_on_random_ansatz(self):
        # Oracle: central finite differences with step 1e-5.
        h = load_pauli_sum(bundled_h2_path())
        spec = random_layers_ansatz(2, 3, 3, seed=9)
        rng = np.random.default_rng(4)

        def objective(theta):
            return exact_energy(h, apply_ansatz(spec, theta).amplitudes)

        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
            exact = parameter_shift_gradient(objective, theta)
            oracle = central_difference_gradient(objective, theta)
            assert np.max(np.abs(exact - oracle)) <= 1e-6


    def test_shift_points_order(self):
        theta = np.array([0.1, -0.2, 0.3])
        rows = parameter_shift_points(theta)
        assert rows.shape == (7, 3)
        assert np.array_equal(rows[-1], theta)
        for k in range(3):
            assert np.array_equal(rows[2 * k] - theta, np.eye(3)[k] * (rows[2 * k, k] - theta[k]))
            assert rows[2 * k, k] == theta[k] + np.pi / 2.0
            assert rows[2 * k + 1, k] == theta[k] - np.pi / 2.0


# (qubits, layers, rotations per layer, seed) of the random layouts the sweep is checked on.
SWEEP_RANDOM_LAYOUTS = ((3, 3, 4, 2), (3, 2, 6, 5), (2, 4, 3, 8))


@st.composite
def shift_sweeps(draw):
    """A random layout on 1-5 qubits (RX/RY/RZ on random qubits, either initial state) and 0-3 parents."""
    q = draw(st.integers(1, 5))
    layers = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(ROTATION_KINDS), st.integers(0, q - 1)), min_size=1, max_size=4),
        min_size=1, max_size=3))
    spec = AnsatzSpec(
        num_qubits=q,
        layer_rotations=tuple(map(tuple, layers)),
        entangler_pairs=cnot_ring(q),
        initial_state=draw(st.sampled_from(["plus", "zero"])),
    )
    return spec, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


class TestParameterShiftStates:
    """The m + 1 prepared states per sweep, and the 2m + 1 shift rows' reads formed from them,
    against preparing every shift point and against building the rows."""

    @pytest.mark.parametrize("initial_state", ["plus", "zero"])
    @pytest.mark.parametrize(
        "make_spec",
        [
            *(lambda init, layout=layout: random_layers_ansatz(*layout, initial_state=init)
              for layout in SWEEP_RANDOM_LAYOUTS),
            lambda init: AnsatzSpec(1, ((("RY", 0),),), (), init),
            lambda init: layered_ansatz(8, 2, initial_state=init),
        ],
        ids=["random-2", "random-5", "random-8", "one-parameter", "wide"],
    )
    def test_rows_match_every_prepared_shift_point(self, make_spec, initial_state):
        spec = make_spec(initial_state)
        h = random_pauli_sum(spec.num_qubits, 12, np.random.default_rng(spec.num_qubits))
        rng = np.random.default_rng(spec.num_parameters)
        m = spec.num_parameters
        parents = np.array([random_state(spec.num_qubits, rng) for _ in range(2)])
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, m)
            base = parameter_shift_states(spec, theta)
            assert base.shape == (m + 1, 2**spec.num_qubits)
            # theta + pi e_k for k < m, then theta itself.
            assert np.max(np.abs(base - apply_ansatz(spec, theta + np.pi * np.eye(m + 1, m)))) <= 1e-12
            h_base = pauli_sum_apply(h, base)
            assert np.array_equal(base[-1], apply_ansatz(spec, theta).amplitudes)
            # The shift rows, built from the base rows and read from them, against every shift point prepared.
            prepared = apply_ansatz(spec, parameter_shift_points(theta))
            h_prepared = pauli_sum_apply(h, prepared)
            psi, h_psi = rebuild_shift_rows(base, h_base)
            assert np.max(np.abs(psi - prepared)) <= 1e-12
            assert np.max(np.abs(h_psi - h_prepared)) <= 1e-12
            want = row_moments(prepared, h_prepared)
            for got, expected in zip(_shift_row_moments(base, h_base)[:3], want[:3]):
                assert np.max(np.abs(got - expected)) <= 1e-12
            assert np.max(np.abs(_shift_row_products(base, parents) - prepared.conj() @ parents.T)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(shift_sweeps())
    def test_reads_equal_the_built_rows(self, sweep):
        # Oracle path: build the 2m + 1 rows, then read each one.
        spec, num_parents, seed = sweep
        q = spec.num_qubits
        rng = np.random.default_rng(seed)
        h = random_pauli_sum(q, 8, rng)
        parents = np.array([random_state(q, rng) for _ in range(num_parents)],
                           dtype=np.complex128).reshape(num_parents, 2**q)
        m_parents = pauli_sum_apply(h, parents)
        parent_second = np.einsum("pi,pi->p", m_parents.conj(), m_parents).real
        base = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, spec.num_parameters))
        h_base = pauli_sum_apply(h, base)
        rows, h_rows = rebuild_shift_rows(base, h_base)
        want = row_moments(rows, h_rows)
        want_cross = interference_moments(rows.conj() @ m_parents.T, want[2], parent_second)
        want_swap = swap_test_moments(rows.conj() @ parents.T)
        got = _shift_row_moments(base, h_base)
        got_cross = interference_moments(_shift_row_products(base, m_parents), got[2], parent_second)
        got_swap = swap_test_moments(_shift_row_products(base, parents))
        for g, w in zip((*got[:3], *got_cross, *got_swap), (*want[:3], *want_cross, *want_swap)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12
        assert abs(got[3] - want[3]) <= 1e-12

    def test_random_specs_cover_every_rotation_kind(self):
        kinds = {
            kind
            for layout in SWEEP_RANDOM_LAYOUTS
            for layer in random_layers_ansatz(*layout).layer_rotations
            for kind, _ in layer
        }
        assert kinds == {"RX", "RY", "RZ"}

    def test_real_overlap_rejected(self, monkeypatch):
        # A gate that is not a Pauli rotation leaves phi_k with a real overlap
        # with psi, and the shift rows lose unit norm.  The check runs on the
        # base (``check_sweep``), before ``sweep_reads`` applies M.
        def no_apply(*args):
            raise AssertionError("M was applied")

        rng = np.random.default_rng(3)
        psi = random_state(2, rng)
        phi = np.array([1j * psi, (psi + random_state(2, rng)) / 2.0])
        phi[1] /= np.linalg.norm(phi[1])
        base = np.vstack((phi, psi))
        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", no_apply)
        for check in (lambda: check_sweep(base), lambda: sweep_reads(PauliSum(2, ((1.0, "ZX"),)), base, None)):
            with pytest.raises(NormalizationError, match="real overlap with psi"):
                check()
        # i*psi: imaginary overlap.  With M = I each row's <M> is its squared norm.
        check_sweep(base[[0, 2]])
        mean, _, _, _ = _shift_row_moments(base[[0, 2]], base[[0, 2]])
        assert np.allclose(mean, 1.0, rtol=0.0, atol=1e-12)

    def test_block_with_no_rows_rejected(self, monkeypatch):
        # Both public entry points read the last row as psi: an empty block failed
        # there with numpy's "index -1 is out of bounds".
        def no_apply(*args):
            raise AssertionError("M was applied")

        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", no_apply)
        base = np.empty((0, 4), dtype=complex)
        for check in (lambda: check_sweep(base), lambda: sweep_reads(PauliSum(2, ((1.0, "ZX"),)), base, None)):
            with pytest.raises(DimensionMismatchError, match="^a sweep needs at least the row psi, got no rows$"):
                check()

    def test_nan_row_rejected(self):
        base = np.array([[1j, 0.0], [1.0, 0.0]], dtype=complex)
        base[0, 1] = np.nan
        with pytest.raises(NormalizationError, match="^prepared state must be unit norm"):
            check_sweep(base)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", [0, 9], ids=["phi_0", "psi"])
    def test_non_finite_amplitude_named_before_m_is_applied(self, monkeypatch, value, row):
        # An inf amplitude used to reach pauli_sum_apply: NumPy's "invalid value
        # encountered in multiply", an error under the suite's warning filter.
        def no_apply(*args):
            raise AssertionError("M was applied")

        h = load_pauli_sum(bundled_h2_path())
        base = parameter_shift_states(random_layers_ansatz(2, 3, 3, seed=11), np.full(9, 0.3))
        base[row, 1] = value
        monkeypatch.setattr(quantum_sim, "pauli_sum_apply", no_apply)
        with pytest.raises(NormalizationError, match=rf"^prepared state must be unit norm within 1e-10, off by "
                                                     rf"{'nan' if np.isnan(value) else 'inf'}$"):
            sweep_reads(h, base, np.eye(1, 4))

    def test_shift_row_norm_rule(self):
        # Base rows and Re<psi|phi> each within NORM_ATOL, yet the shift row
        # (psi + phi)/sqrt(2) off unit norm by about 1.35 NORM_ATOL.
        d = 0.9 * NORM_ATOL
        psi = np.array([1.0 + d, 0.0], dtype=complex)
        phi = np.array([d, 1j * (1.0 + d)])
        with pytest.raises(NormalizationError, match="^parameter-shift row must be unit norm within 1e-10, off by 1.3"):
            check_sweep(np.array([phi, psi]))
        check_sweep(np.array([phi / (1.0 + d), psi / (1.0 + d)]))

    def test_cross_term_imaginary_part_raises(self):
        # psi = |0> and phi = i|1>, with M psi = 0 and M phi = c|0>: <psi|M psi> and
        # <phi|M phi> are 0, and only the cross term (<psi|M phi> + <phi|M psi>)/2 = c/2
        # is imaginary.  It enters the built rows as +-c/2 in <r|M r>.
        base = np.array([[0.0, 1j], [1.0, 0.0]])
        for scale, raises in ((1.0, False), (4.0, True)):
            h_base = np.array([[scale * 1j * NORM_ATOL, 0.0], [0.0, 0.0]])
            rows, h_rows = rebuild_shift_rows(base, h_base)
            if raises:
                for read in (lambda: _shift_row_moments(base, h_base), lambda: row_moments(rows, h_rows)):
                    with pytest.raises(ValueError, match="imaginary residue"):
                        read()
            else:
                residue = _shift_row_moments(base, h_base)[3]
                assert residue == pytest.approx(0.5 * NORM_ATOL, rel=1e-12)
                assert residue == pytest.approx(row_moments(rows, h_rows)[3], rel=1e-12)


    def test_built_rows_match_the_oracle_and_share_the_guards(self):
        # The library's own shift rows, read one product per moment, keep the
        # unit-norm, NaN and imaginary-residue guards of the product reads.
        rng = np.random.default_rng(3)
        psi = random_state(2, rng)
        base = np.array([1j * psi, psi])
        rows = _shift_rows(base)
        assert rows.shape == (3, 4)
        assert np.max(np.abs(rows - rebuild_shift_rows(base, base)[0])) <= 1e-15
        assert np.allclose(_built_row_moments(rows, rows)[0], 1.0, rtol=0.0, atol=1e-12)
        # The explicit form's read of a base that lost unit norm raises before M is applied.
        explicit = PauliSum(2, ((1.0, "ZX"),))
        assert sweep_reads(explicit, base, None)[2] == 3
        phi = (psi + random_state(2, rng)) / 2.0
        for bad in (phi / np.linalg.norm(phi), np.full(4, np.nan)):
            with pytest.raises(NormalizationError):
                sweep_reads(explicit, np.array([bad, psi]), None)
        base = np.array([[0.0, 1j], [1.0, 0.0]])
        for scale, raises in ((1.0, False), (4.0, True)):
            h_rows = _shift_rows(np.array([[scale * 1j * NORM_ATOL, 0.0], [0.0, 0.0]]))
            if raises:
                with pytest.raises(ValueError, match="imaginary residue"):
                    _built_row_moments(_shift_rows(base), h_rows)
            else:
                residue = _built_row_moments(_shift_rows(base), h_rows)[3]
                assert residue == pytest.approx(0.5 * NORM_ATOL, rel=1e-12)


class TestStateVector:
    def test_norm_validated(self):
        with pytest.raises(NormalizationError):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_nan_amplitude_rejected(self, amplitudes):
        # A NaN norm used to pass the `norm - 1 > tol` check.
        with pytest.raises(NormalizationError):
            StateVector(1, np.array(amplitudes, dtype=complex))
