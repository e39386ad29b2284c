"""Operator construction, Pauli-sum parsing, and the dense form."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import allclose_hermitian

from eigengames.eigengame_classical import _as_symmetric_array
from eigengames.errors import (
    HermiticityError,
    InvalidDimensionError,
    MalformedPauliError,
    PauliFormatError,
)
from eigengames.hamiltonian import (
    GAP_FLOOR,
    HERMITICITY_ATOL,
    HermitianMatrix,
    PauliSum,
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    check_hermitian,
    hermitian_array,
    load_pauli_sum,
    pauli_sum_to_matrix,
    random_orthonormal,
)

# A 6-qubit sum whose lowest eigenvector the Lanczos start vector barely
# touches: its spectral_range's lo falls short of lambda_min (see
# TestSpectralRange).
LATE_EXTREME = PauliSum(6, ((-0.23409401318511414, "ZIYZIZ"), (0.655457243951213, "IXYIZI"),
                            (0.09325923413911674, "YZXIYZ"), (0.09927160169586324, "XXXZIZ"),
                            (-0.9850637822129769, "ZXYIXX"), (-0.44815251211586227, "IZZIYI"),
                            (0.2849748803534329, "XYYXXI"), (0.383444169085543, "IXZIZX"),
                            (-0.32438163920197005, "IZYIXI"), (-0.4979414453167481, "IXZYZX"),
                            (-0.33749132632513223, "IZYIXY"), (-0.7937681474145792, "XZZZIZ")))


class TestRandomOrthonormal:
    def test_one_dimensional_is_unimodular(self):
        p = random_orthonormal(1, seed=0)
        assert abs(abs(p[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        p = random_orthonormal(4, seed=7)
        assert np.linalg.norm(p.conj().T @ p - np.eye(4)) <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_orthonormal(8, seed=7)
        b = random_orthonormal(8, seed=7)
        assert np.array_equal(a, b)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            random_orthonormal(0, seed=0)


class TestPowerlawHamiltonian:
    def test_eigenvalues_match_dense_oracle(self):
        # Oracle: brute-force dense diagonalization of the constructed matrix.
        matrix, (eigenvalues, _) = build_powerlaw_hamiltonian(8, seed=3)
        oracle = np.sort(np.linalg.eigvalsh(matrix.entries))[::-1]
        assert np.max(np.abs(oracle - eigenvalues)) <= 1e-10

    def test_identity_basis_override_gives_diagonal(self):
        matrix, (eigenvalues, _) = build_powerlaw_hamiltonian(8, seed=3, basis=np.eye(8))
        assert np.array_equal(matrix.entries, np.diag(eigenvalues))

    def test_spectrum_is_non_degenerate_and_in_unit_interval(self):
        for seed in range(6):
            _, (eigenvalues, _) = build_powerlaw_hamiltonian(12, seed=seed)
            assert np.all(-np.diff(eigenvalues) > GAP_FLOOR)  # descending, every gap above the floor
            assert eigenvalues.min() > 0.0
            assert eigenvalues.max() < 1.0

    def test_bit_identical_for_fixed_inputs(self):
        m1, _ = build_powerlaw_hamiltonian(16, seed=5, exponent=3.0)
        m2, _ = build_powerlaw_hamiltonian(16, seed=5, exponent=3.0)
        assert m1.entries.tobytes() == m2.entries.tobytes()

    def test_similarity_preserves_spectrum(self):
        for seed in (0, 1, 2):
            matrix, (eigenvalues, _) = build_powerlaw_hamiltonian(10, seed=seed)
            recomputed = np.linalg.eigvalsh(matrix.entries)[::-1]
            assert np.max(np.abs(recomputed - eigenvalues)) <= 1e-9

    def test_eigenvector_residuals(self):
        # Every column pairs with its eigenvalue: M v = lambda v.
        matrix, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(9, seed=4)
        for i in range(9):
            v = eigenvectors[:, i]
            residual = matrix.entries @ v - eigenvalues[i] * v
            assert np.linalg.norm(residual) <= 1e-9 * max(1.0, abs(eigenvalues[i]))

    def test_diagonal_matrix(self):
        # With the identity basis column i is the unit vector e_i, paired with eigenvalues[i].
        matrix, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(5, seed=2, basis=np.eye(5))
        assert np.array_equal(eigenvectors, np.eye(5))
        assert np.array_equal(np.diag(matrix.entries), eigenvalues)

    def test_orthonormality_on_random_matrix(self):
        _, (_, eigenvectors) = build_powerlaw_hamiltonian(7, seed=1)
        gram = eigenvectors.T @ eigenvectors
        assert np.linalg.norm(gram - np.eye(7)) <= 1e-10

    def test_small_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_powerlaw_hamiltonian(1, seed=0)

    @pytest.mark.parametrize("exponent", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_exponent_rejected(self, exponent):
        # NaN and inf used to pass and fail only after 1000 redraws, with a RuntimeError.
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            build_powerlaw_hamiltonian(4, seed=0, exponent=exponent)

    @pytest.mark.parametrize("dim", [64, 128, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_equals_the_dense_diagonal_product_bit_for_bit(self, dim, seed):
        # M = P^T diag(lambda) P with a dense diagonal, symmetrized, is the same array to the bit.
        matrix, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(dim, seed=seed)
        p = eigenvectors.T
        m = p.T @ np.diag(eigenvalues) @ p
        assert matrix.entries.tobytes() == (0.5 * (m + m.T)).tobytes()

    def test_non_orthogonal_basis_rejected(self):
        # It used to build M = P^T D P and return D and P^T as its eigenpairs:
        # top eigenvalue 0.4057 against M's 0.5235, and a residual of 0.134.
        basis = np.eye(4)
        basis[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"^basis is not orthogonal: \|P\^T P - I\| is 0\.5 at \(0, 1\), "
                                             r"beyond 1e-10$"):
            build_powerlaw_hamiltonian(4, seed=0, basis=basis)

    @pytest.mark.parametrize("basis, message", [
        (np.eye(3), "basis must be a 4 x 4 matrix, got shape (3, 3)"),
        (np.eye(4)[:, :3], "basis must be a 4 x 4 matrix, got shape (4, 3)"),
        (np.full((4, 4), np.nan), "is nan at (0, 0)"),
        (2.0 * np.eye(4), "is 3 at (0, 0)"),
        (np.eye(4) + 2e-10 * np.eye(4)[::-1], "is 4e-10 at (0, 3)"),  # P^T P - I = 4e-10 off the diagonal
    ], ids=["square-too-small", "not-square", "nan", "scaled", "off-diagonal"])
    def test_basis_shape_and_orthogonality_checked(self, basis, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_powerlaw_hamiltonian(4, seed=0, basis=basis)

    @pytest.mark.parametrize("dim", [64, 256])
    def test_random_orthonormal_basis_gives_the_default_build(self, dim):
        # The default P passes the check with room to spare, and passing it changes nothing.
        p = random_orthonormal(dim, seed=1)
        assert np.max(np.abs(p.T @ p - np.eye(dim))) <= 1e-14
        matrix, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(dim, seed=1, basis=p)
        default, (default_values, default_vectors) = build_powerlaw_hamiltonian(dim, seed=1)
        assert matrix.entries.tobytes() == default.entries.tobytes()
        assert eigenvalues.tobytes() == default_values.tobytes()
        assert eigenvectors.tobytes() == default_vectors.tobytes()


class TestPauliSumToMatrix:
    def test_single_z(self):
        m = pauli_sum_to_matrix(PauliSum(1, ((1.0, "Z"),)))
        assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))

    def test_linearity_of_identity_and_z(self):
        m = pauli_sum_to_matrix(PauliSum(1, ((0.5, "I"), (0.5, "Z"))))
        assert np.allclose(m, np.diag([1.0, 0.0]), atol=1e-15)

    def test_pauli_x(self):
        # The dense oracle read the CLI makes: levels ascending, the top one's vector is |+>.
        m = pauli_sum_to_matrix(PauliSum(1, ((1.0, "X"),)))
        assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        levels, vectors = np.linalg.eigh(m)
        assert np.allclose(levels, [-1.0, 1.0], atol=1e-15)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(plus, vectors[:, 1])) - 1.0) < 1e-10

    def test_zz_kron(self):
        m = pauli_sum_to_matrix(PauliSum(2, ((1.0, "ZZ"),)))
        assert np.allclose(m, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_two_qubit_z_terms(self):
        m = pauli_sum_to_matrix(PauliSum(2, ((0.5, "ZI"), (0.5, "IZ"))))
        assert np.allclose(m, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_random_real_sums_are_hermitian(self):
        rng = np.random.default_rng(0)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            terms = tuple(
                (float(rng.normal()), "".join(rng.choice(letters, size=3)))
                for _ in range(5)
            )
            m = pauli_sum_to_matrix(PauliSum(3, terms))  # passed through check_hermitian
            assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(MalformedPauliError):
            PauliSum(2, ((1.0, "ZZ"), (1.0, "Z")))

    def test_illegal_characters_rejected(self):
        with pytest.raises(MalformedPauliError):
            PauliSum(1, ((1.0, "Q"),))

    @pytest.mark.parametrize(
        "coeff", [1 + 1j, 1 + 0j, np.complex64(1 + 1j), np.complex64(1), np.complex128(2 + 0j)],
        ids=["complex", "complex-zero-imag", "complex64", "complex64-zero-imag", "complex128-zero-imag"],
    )
    def test_complex_coefficients_rejected(self, coeff):
        # np.complex64 is no Python complex: it used to pass, and (1+1j) Z applied
        # to a state gave (1+1j) times it, a non-Hermitian operator.
        with pytest.raises(MalformedPauliError, match="must be real"):
            PauliSum(1, ((coeff, "Z"),))

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficients_rejected(self, coeff):
        with pytest.raises(MalformedPauliError, match="not finite"):
            PauliSum(2, ((1.0, "ZI"), (coeff, "XX")))


PINNED_RANGES = json.loads((Path(__file__).parent / "data" / "spectral_range_pinned.json").read_text())


def random_pauli_sum(rng, num_qubits, num_terms, identity):
    terms = [(float(rng.uniform(-1.0, 1.0)), "".join(rng.choice(list("IXYZ"), size=num_qubits)))
             for _ in range(num_terms)]
    if identity:
        terms.append((float(rng.uniform(-2.0, 2.0)), "I" * num_qubits))
    return PauliSum(num_qubits, tuple(terms))


@st.composite
def small_pauli_sums(draw):
    """Random sums on 1-6 qubits: general, identity-shifted negative-definite, or all-Z.

    All-Z sums are diagonal with repeated extremes (a one-qubit Z on q qubits
    has both extremes 2**(q-1)-fold), and the negative-definite ones are a
    general sum minus (1-norm + c) times the identity.
    """
    num_qubits = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["general", "negative-definite", "all-z"]))
    letters = "IZ" if kind == "all-z" else "IXYZ"
    strings = st.text(alphabet=letters, min_size=num_qubits, max_size=num_qubits)
    coeffs = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(coeffs, strings), min_size=1, max_size=4 * num_qubits))
    h = PauliSum(num_qubits, tuple(terms))
    if kind == "negative-definite":
        shift = h.one_norm + draw(st.floats(0.01, 2.0))
        h = PauliSum(num_qubits, tuple(terms) + ((-shift, "I" * num_qubits),))
    return h


class TestSpectralRange:
    """Lanczos range of the compiled form against the dense eigenvalues.

    On 1-3 qubits the Krylov space always exhausts, and the range is the
    extreme eigenvalues to rounding.  On 4 or more the run may stop on its
    Ritz residuals and drifts, and the range is an enclosure of the spectrum.
    """

    @staticmethod
    def assert_matches_dense(h):
        dense = np.linalg.eigvalsh(pauli_sum_to_matrix(h))
        scale = max(abs(dense[0]), abs(dense[-1]))
        lo, hi = h.spectral_range
        assert abs(lo - dense[0]) <= 1e-10 * scale
        assert abs(hi - dense[-1]) <= 1e-10 * scale

    @staticmethod
    def assert_encloses_dense(h):
        # lo <= lambda_min and hi >= lambda_max, each within 2e-2 ||M|| (twice the
        # residual stop).  Where the Krylov space exhausts first the ends are the
        # extreme eigenvalues, which two eigensolvers give alike only to rounding:
        # the enclosure is checked to the 1e-10 ||M|| of the dense match above.
        dense = np.linalg.eigvalsh(pauli_sum_to_matrix(h))
        scale = max(abs(dense[0]), abs(dense[-1]))
        lo, hi = h.spectral_range
        assert lo <= dense[0] + 1e-10 * scale and hi >= dense[-1] - 1e-10 * scale
        assert dense[0] - lo <= 2e-2 * scale and hi - dense[-1] <= 2e-2 * scale

    @pytest.mark.parametrize("identity", [False, True], ids=["traceless", "with-identity"])
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_random_sums_match_dense_eigenvalues(self, num_qubits, identity):
        rng = np.random.default_rng(100 * num_qubits + identity)
        check = self.assert_matches_dense if num_qubits <= 3 else self.assert_encloses_dense
        for _ in range(3):
            check(random_pauli_sum(rng, num_qubits, 4 * num_qubits, identity))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(h=small_pauli_sums())
    @example(h=PauliSum(6, ((0.7, "ZIIIII"), (-0.3, "IIZIII"))))  # 16-fold extremes
    @example(h=PauliSum(5, ((0.5, "XXIZY"), (-0.4, "IZZXI"), (-2.0, "IIIII"))))  # in [-2.9, -1.1]
    def test_range_encloses_the_spectrum(self, h):
        self.assert_encloses_dense(h)
        if h.num_qubits <= 3:
            self.assert_matches_dense(h)

    def test_an_extreme_seen_late_falls_short_within_the_tolerance(self):
        # A known limit of any Krylov stop.  The start vector barely touches
        # the lowest eigenvector: the lowest Ritz pair converges on
        # lambda_2 = -2.983 first, passes the stop test, and lo misses
        # lambda_min = -3.009 by 0.6% of ||M||.  Should a change close the
        # gap, the first assertion fails and this test turns into an
        # enclosure check.
        h = LATE_EXTREME
        dense = np.linalg.eigvalsh(pauli_sum_to_matrix(h))
        scale = max(abs(dense[0]), abs(dense[-1]))
        lo, hi = h.spectral_range
        assert dense[0] < lo < dense[1]
        assert lo - dense[0] <= 2e-2 * scale and dense[-1] <= hi <= dense[-1] + 2e-2 * scale

    @pytest.mark.parametrize("terms", [((2.5, "III"),), ((1.0, "ZII"),), ((-0.7, "XYX"),),
                                       ((0.3, "IXI"),)],
                             ids=["c-identity", "z-on-one-qubit", "xyx-string", "single-x"])
    def test_krylov_space_exhausts_on_degenerate_spectra(self, terms):
        self.assert_matches_dense(PauliSum(3, terms))

    @pytest.mark.parametrize("coeff", [1e-200, 1e200])
    def test_far_from_unit_norm(self, coeff):
        # Norms square the entries: run unscaled, 1e-200 underflowed to an
        # exhausted one-step run and 1e200 overflowed.
        self.assert_matches_dense(PauliSum(2, ((coeff, "XZ"), (0.5 * coeff, "ZI"), (-coeff, "YY"))))

    @pytest.mark.parametrize("terms", [((0.0, "ZX"),), ((1.0, "ZX"), (-1.0, "ZX")), ()],
                             ids=["zero-coefficient", "cancelling-terms", "empty-sum"])
    def test_zero_operator_gives_zero_range(self, terms):
        h = PauliSum(2, terms)
        assert h.spectral_range == (0.0, 0.0)
        for amps in (np.ones(4), np.ones((3, 4))):
            out = h.apply(amps)
            assert out.shape == amps.shape and not out.any()

    @pytest.mark.parametrize("record", [r for r in PINNED_RANGES["operators"] if r["num_qubits"] <= 3],
                             ids=lambda r: r["label"])
    def test_extremes_equal_the_pinned_floats(self, record):
        # Every quantum step size and shift comes from these extremes; on 1-3
        # qubits the run exhausts the Krylov space and returns exactly the
        # recorded floats.
        h = PauliSum(record["num_qubits"], tuple((c, s) for c, s in record["terms"]))
        assert h.spectral_range == tuple(record["spectral_range"])

    @pytest.mark.parametrize("record", [r for r in PINNED_RANGES["operators"] if r["num_qubits"] > 3],
                             ids=lambda r: r["label"])
    def test_range_encloses_the_pinned_operators(self, record):
        # From 4 qubits on the run may stop on its residuals, well before the
        # 1e-13 stop that recorded these floats, and widen them into an enclosure.
        h = PauliSum(record["num_qubits"], tuple((c, s) for c, s in record["terms"]))
        self.assert_encloses_dense(h)
        lo, hi = h.spectral_range
        pinned_lo, pinned_hi = record["spectral_range"]
        assert lo <= pinned_lo and hi >= pinned_hi

    def test_batch_apply_matches_the_per_row_product(self):
        # The batch path gathers into one reused buffer and keeps the bits of
        # the per-mask loop it replaced; each row matches the single-vector product.
        rng = np.random.default_rng(3)
        h = random_pauli_sum(rng, 6, 24, identity=True)
        rows = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        perms, weights = h.compiled
        expected = np.zeros_like(rows)
        for perm, weight in zip(perms, weights):
            expected += weight * rows.take(perm, axis=-1)
        assert np.array_equal(h.apply(rows), expected)
        assert np.allclose(h.apply(rows), [h.apply(row) for row in rows], rtol=0.0, atol=1e-12)


class TestHermitianMatrixChecks:
    def test_intake_reads_checked_arrays_without_a_copy(self):
        matrix, _ = build_powerlaw_hamiltonian(4, seed=0)
        assert hermitian_array(matrix) is matrix.entries  # checked when it was built
        array = np.array(matrix.entries)
        assert hermitian_array(array) is array

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_at_construction(self, bad):
        # np.allclose counts inf as close to inf: diag(inf, 1) was built, and its
        # dense eigenvalues read [nan, nan]; a NaN failed only as "max |M - M^H| = nan".
        with pytest.raises(HermiticityError, match="not finite"):
            HermitianMatrix(np.diag([bad, 1.0]))
        with pytest.raises(HermiticityError, match="not finite"):
            HermitianMatrix(np.array([[1.0, bad], [bad, 1.0]]))


class TestPauliFileFormat:
    def test_single_line(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1.0 Z\n")
        h = load_pauli_sum(path)
        assert h.num_qubits == 1
        assert h.terms == ((1.0, "Z"),)

    def test_two_term_file_matrix(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("# header\n0.5 ZI\n0.5 IZ\n")
        m = pauli_sum_to_matrix(load_pauli_sum(path))
        assert np.allclose(m, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_bundled_molecular_file_has_four_distinct_levels(self):
        # Oracle: dense diagonalization of the shipped file.
        h = load_pauli_sum(bundled_h2_path())
        levels = np.linalg.eigvalsh(pauli_sum_to_matrix(h))
        assert levels.shape == (4,)
        assert np.diff(levels).min() > 1e-3

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 Z\nnot-a-term\n")
        with pytest.raises(PauliFormatError) as err:
            load_pauli_sum(path)
        assert "line 2" in str(err.value)

    def test_bad_coefficient_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# c\n1.0 Z\nxyz Z\n")
        with pytest.raises(PauliFormatError) as err:
            load_pauli_sum(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "+Infinity"])
    def test_non_finite_coefficient_reports_line(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"# c\n1.0 ZI\n{text} IZ\n")
        with pytest.raises(PauliFormatError, match="not finite") as err:
            load_pauli_sum(path)
        assert err.value.line_number == 3

    def test_mixed_lengths_rejected(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1.0 ZZ\n1.0 Z\n")
        with pytest.raises(MalformedPauliError):
            load_pauli_sum(path)

    def test_one_norm(self):
        h = PauliSum(1, ((0.5, "Z"), (-0.25, "X")))
        assert h.one_norm == 0.75

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a header\n")
        with pytest.raises(PauliFormatError):
            load_pauli_sum(path)


def _read_only(a):
    a.flags.writeable = False
    return a


SYMMETRIC = np.array([[2.0, 1.0, -0.5], [1.0, 3.0, 0.25], [-0.5, 0.25, 1.0]])


class TestStorage:
    """Real operators are stored as read-only float64 and read without a copy; complex ones stay complex128."""

    @pytest.mark.parametrize("source", [
        SYMMETRIC,
        np.array([[2, 1], [1, 3]]),
        SYMMETRIC.astype(np.float32),
        _read_only(np.array(SYMMETRIC)).T,
        _read_only(np.kron(SYMMETRIC, np.ones((2, 2))))[::2, ::2],
    ], ids=["float", "int", "float32", "read_only_transpose", "read_only_strided_view"])
    def test_real_input_is_stored_as_read_only_float64(self, source):
        matrix = HermitianMatrix(source)
        assert matrix.entries.dtype == np.float64
        assert not matrix.entries.flags.writeable
        assert matrix.entries.flags.c_contiguous  # hashed in place by run_sequential
        assert np.array_equal(matrix.entries, source)
        assert not np.shares_memory(matrix.entries, source)

    def test_real_entries_are_read_as_the_stored_array(self):
        matrix, _ = build_powerlaw_hamiltonian(8, seed=0)
        mat = _as_symmetric_array(matrix)
        assert mat.dtype == np.float64
        assert not mat.flags.writeable
        assert np.shares_memory(mat, matrix.entries)

    def test_complex_input_stays_complex128(self):
        matrix = HermitianMatrix(np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, 2.0]]))
        assert matrix.entries.dtype == np.complex128
        assert not matrix.entries.flags.writeable
        with pytest.raises(HermiticityError, match="imaginary"):
            _as_symmetric_array(matrix)

    def test_complex_entries_give_a_real_copy_up_to_the_tolerance(self):
        def with_imaginary(part):
            return HermitianMatrix(np.array([[1.0, 0.5 + 1j * part], [0.5 - 1j * part, 2.0]]))

        matrix = with_imaginary(HERMITICITY_ATOL)
        mat = _as_symmetric_array(matrix)
        assert mat.dtype == np.float64
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, matrix.entries.real)
        assert not np.shares_memory(mat, matrix.entries)
        with pytest.raises(HermiticityError, match="imaginary"):
            _as_symmetric_array(with_imaginary(np.nextafter(HERMITICITY_ATOL, np.inf)))

    def test_powerlaw_spectrum_is_read_only_float64_c_ordered(self):
        _, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(6, seed=0)
        for a in (eigenvalues, eigenvectors):
            assert a.dtype == np.float64
            assert not a.flags.writeable
            assert a.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [float, int], ids=["float", "int"])
    def test_spectrum_keeps_real_eigenvectors_real(self, dtype):
        basis = np.eye(4, dtype=dtype)
        _, (eigenvalues, eigenvectors) = build_powerlaw_hamiltonian(4, seed=0, basis=basis)
        assert eigenvectors.dtype == np.float64
        assert not eigenvectors.flags.writeable and not eigenvalues.flags.writeable
        # A copy: the caller's basis is left writeable and as it was.
        assert basis.flags.writeable and np.array_equal(basis, np.eye(4))
        assert not np.shares_memory(eigenvectors, basis)

    def test_spectrum_columns_are_strided_whatever_the_layout_given(self):
        # C order: a column is a strided vector whether the basis came C- or
        # F-ordered or as a strided view, so dot products with it round the same.
        basis = random_orthonormal(6, seed=2)
        _, (_, reference) = build_powerlaw_hamiltonian(6, seed=0, basis=basis)
        wide = np.zeros((6, 12))
        wide[:, ::2] = basis
        for given in (np.asfortranarray(basis), wide[:, ::2]):
            _, (_, eigenvectors) = build_powerlaw_hamiltonian(6, seed=0, basis=given)
            assert eigenvectors.flags.c_contiguous
            assert not np.shares_memory(eigenvectors, given)
            assert np.array_equal(eigenvectors, reference)

    def test_pauli_sum_to_matrix_is_read_only_complex128(self):
        m = pauli_sum_to_matrix(PauliSum(2, ((0.5, "XY"), (-1.0, "ZI"))))
        assert m.dtype == np.complex128
        assert not m.flags.writeable
        assert m.flags.c_contiguous


# Asymmetries on either side of the tolerance, exactly at it and one ulp above it.
ASYMMETRIES = (0.0, HERMITICITY_ATOL / 2, np.nextafter(HERMITICITY_ATOL, 0.0), HERMITICITY_ATOL,
               np.nextafter(HERMITICITY_ATOL, np.inf), 2 * HERMITICITY_ATOL, 1e-6)


@st.composite
def near_hermitian(draw):
    """A real or complex Hermitian matrix with one entry pair moved apart by a drawn asymmetry.

    With ``exact`` the pair's mirror entry is zero, so |M - M^H| is the drawn
    asymmetry itself; otherwise it is that asymmetry up to rounding.
    """
    dim = draw(st.integers(2, 5))
    is_complex = draw(st.booleans())
    values = st.lists(st.floats(-1e3, 1e3), min_size=dim * dim, max_size=dim * dim)
    base = np.array(draw(values)).reshape(dim, dim)
    if is_complex:
        base = base + 1j * np.array(draw(values)).reshape(dim, dim)
    m = np.triu(base, 1)
    m = m + m.conj().T + np.diag(base.diagonal().real)
    i, j = draw(st.permutations(range(dim)))[:2]
    if draw(st.booleans()):  # exact
        m[j, i] = 0.0
    phase = draw(st.sampled_from((1, -1, 1j, -1j) if is_complex else (1, -1)))
    m[i, j] = m[j, i].conjugate() + phase * draw(st.sampled_from(ASYMMETRIES))
    return m


class TestCheckHermitian:
    """One max |M - M^H| pass gives the verdicts of np.allclose(M, M^H, rtol=0, atol=HERMITICITY_ATOL)."""

    @settings(max_examples=300, deadline=None)
    @given(m=near_hermitian())
    def test_verdict_matches_the_allclose_rule(self, m):
        try:
            check_hermitian(m)
            accepted = True
        except HermiticityError:
            accepted = False
        assert accepted == allclose_hermitian(m)

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    def test_the_tolerance_is_inclusive(self, unit):
        at = np.array([[0.0, unit * HERMITICITY_ATOL], [0.0, 0.0]])
        above = np.array([[0.0, unit * np.nextafter(HERMITICITY_ATOL, np.inf)], [0.0, 0.0]])
        check_hermitian(at)
        assert allclose_hermitian(at)
        with pytest.raises(HermiticityError, match="not Hermitian"):
            check_hermitian(above)
        assert not allclose_hermitian(above)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    def test_overflowing_difference_is_not_hermitian(self, unit):
        # Finite entries whose M - M^H overflows to inf: rejected as not
        # Hermitian, with no overflow warning on the way.
        m = np.array([[0.0, unit * 1e308], [-np.conj(unit) * 1e308, 0.0]])
        assert np.isfinite(m).all()
        with pytest.raises(HermiticityError, match="not Hermitian"):
            check_hermitian(m)
        with pytest.raises(HermiticityError, match="not Hermitian"):
            HermitianMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_non_finite_fails_first(self, bad, dtype):
        m = np.array([[0.0, 1.0], [0.0, bad]], dtype=dtype)  # also far from Hermitian
        with pytest.raises(HermiticityError, match="not finite"):
            check_hermitian(m)
