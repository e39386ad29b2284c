"""Operator construction, Pauli-sum parsing, and the dense oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from eigengames.errors import (
    HermiticityError,
    InvalidDimensionError,
    MalformedPauliError,
    PauliFormatError,
)
from eigengames.hamiltonian import (
    HermitianMatrix,
    PauliSum,
    Spectrum,
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    exact_eigendecomposition,
    load_pauli_sum,
    pauli_sum_to_matrix,
    random_orthonormal,
)


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
        matrix, spectrum = build_powerlaw_hamiltonian(8, seed=3)
        oracle = np.sort(np.linalg.eigvalsh(matrix.entries))[::-1]
        assert np.max(np.abs(oracle - spectrum.eigenvalues)) <= 1e-10

    def test_identity_basis_override_gives_diagonal(self):
        matrix, spectrum = build_powerlaw_hamiltonian(8, seed=3, basis=np.eye(8))
        assert np.array_equal(matrix.entries, np.diag(spectrum.eigenvalues))

    def test_spectrum_is_non_degenerate_and_in_unit_interval(self):
        for seed in range(6):
            _, spectrum = build_powerlaw_hamiltonian(12, seed=seed)
            assert spectrum.gaps.min() > 1e-6
            assert spectrum.eigenvalues.min() > 0.0
            assert spectrum.eigenvalues.max() < 1.0

    def test_bit_identical_for_fixed_inputs(self):
        m1, _ = build_powerlaw_hamiltonian(16, seed=5, exponent=3.0)
        m2, _ = build_powerlaw_hamiltonian(16, seed=5, exponent=3.0)
        assert m1.entries.tobytes() == m2.entries.tobytes()

    def test_similarity_preserves_spectrum(self):
        for seed in (0, 1, 2):
            matrix, spectrum = build_powerlaw_hamiltonian(10, seed=seed)
            recomputed = exact_eigendecomposition(matrix)
            assert np.max(np.abs(recomputed.eigenvalues - spectrum.eigenvalues)) <= 1e-9

    def test_eigenvector_residuals(self):
        matrix, spectrum = build_powerlaw_hamiltonian(9, seed=4)
        for i in range(9):
            v = spectrum.eigenvector(i)
            residual = matrix.entries @ v - spectrum.eigenvalues[i] * v
            assert np.linalg.norm(residual) <= 1e-9 * max(1.0, abs(spectrum.eigenvalues[i]))

    def test_small_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_powerlaw_hamiltonian(1, seed=0)


class TestPauliSumToMatrix:
    def test_single_z(self):
        m = pauli_sum_to_matrix(PauliSum(1, ((1.0, "Z"),)))
        assert np.array_equal(m.entries, np.diag([1.0, -1.0]).astype(complex))

    def test_linearity_of_identity_and_z(self):
        m = pauli_sum_to_matrix(PauliSum(1, ((0.5, "I"), (0.5, "Z"))))
        assert np.allclose(m.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zz_kron(self):
        m = pauli_sum_to_matrix(PauliSum(2, ((1.0, "ZZ"),)))
        assert np.allclose(m.entries, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_two_qubit_z_terms(self):
        m = pauli_sum_to_matrix(PauliSum(2, ((0.5, "ZI"), (0.5, "IZ"))))
        assert np.allclose(m.entries, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_random_real_sums_are_hermitian(self):
        rng = np.random.default_rng(0)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            terms = tuple(
                (float(rng.normal()), "".join(rng.choice(letters, size=3)))
                for _ in range(5)
            )
            m = pauli_sum_to_matrix(PauliSum(3, terms))  # constructor checks Hermiticity
            assert np.allclose(m.entries, m.entries.conj().T, atol=1e-12)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(MalformedPauliError):
            PauliSum(2, ((1.0, "ZZ"), (1.0, "Z")))

    def test_illegal_characters_rejected(self):
        with pytest.raises(MalformedPauliError):
            PauliSum(1, ((1.0, "Q"),))

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


class TestSpectralRange:
    """Lanczos extremes of the compiled form against the dense eigenvalues."""

    @staticmethod
    def assert_matches_dense(h):
        dense = np.linalg.eigvalsh(pauli_sum_to_matrix(h).entries)
        scale = max(abs(dense[0]), abs(dense[-1]))
        lo, hi = h.spectral_range
        assert abs(lo - dense[0]) <= 1e-10 * scale
        assert abs(hi - dense[-1]) <= 1e-10 * scale

    @pytest.mark.parametrize("identity", [False, True], ids=["traceless", "with-identity"])
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_random_sums_match_dense_eigenvalues(self, num_qubits, identity):
        rng = np.random.default_rng(100 * num_qubits + identity)
        for _ in range(3):
            self.assert_matches_dense(random_pauli_sum(rng, num_qubits, 4 * num_qubits, identity))

    @pytest.mark.parametrize("terms", [((2.5, "III"),), ((1.0, "ZII"),), ((-0.7, "XYX"),),
                                       ((0.3, "IXI"),)],
                             ids=["c-identity", "z-on-one-qubit", "xyx-string", "single-x"])
    def test_krylov_space_exhausts_on_degenerate_spectra(self, terms):
        self.assert_matches_dense(PauliSum(3, terms))

    @pytest.mark.parametrize("terms", [((0.0, "ZX"),), ((1.0, "ZX"), (-1.0, "ZX")), ()],
                             ids=["zero-coefficient", "cancelling-terms", "empty-sum"])
    def test_zero_operator_gives_zero_range(self, terms):
        h = PauliSum(2, terms)
        assert h.spectral_range == (0.0, 0.0)
        for amps in (np.ones(4), np.ones((3, 4))):
            out = h.apply(amps)
            assert out.shape == amps.shape and not out.any()

    @pytest.mark.parametrize("record", PINNED_RANGES["operators"], ids=lambda r: r["label"])
    def test_extremes_equal_the_pinned_floats(self, record):
        # Every quantum step size is 1/(2L) from these extremes, so a faster
        # Lanczos run must return exactly the recorded floats.
        h = PauliSum(record["num_qubits"], tuple((c, s) for c, s in record["terms"]))
        assert h.spectral_range == tuple(record["spectral_range"])


class TestExactEigendecomposition:
    def test_diagonal_matrix(self):
        spectrum = exact_eigendecomposition(HermitianMatrix(np.diag([3.0, 1.0]).astype(complex)))
        assert np.allclose(spectrum.eigenvalues, [3.0, 1.0])
        assert abs(abs(spectrum.eigenvector(0)[0]) - 1.0) < 1e-12
        assert abs(abs(spectrum.eigenvector(1)[1]) - 1.0) < 1e-12

    def test_identity_flags_degeneracy(self):
        with pytest.warns(UserWarning):
            spectrum = exact_eigendecomposition(HermitianMatrix(np.eye(4, dtype=complex)))
        assert spectrum.degenerate
        assert np.allclose(spectrum.eigenvalues, 1.0)
        gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-10

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spectrum = exact_eigendecomposition(HermitianMatrix(x))
        assert np.allclose(spectrum.eigenvalues, [1.0, -1.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(plus, spectrum.eigenvector(0))) - 1.0) < 1e-10

    def test_orthonormality_on_random_matrix(self):
        matrix, _ = build_powerlaw_hamiltonian(7, seed=1)
        spectrum = exact_eigendecomposition(matrix)
        gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
        assert np.linalg.norm(gram - np.eye(7)) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_descending_order_enforced_in_spectrum_type(self):
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.eye(2))


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
        assert np.allclose(m.entries, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_bundled_molecular_file_has_four_distinct_levels(self):
        # Oracle: dense diagonalization of the shipped file.
        h = load_pauli_sum(bundled_h2_path())
        spectrum = exact_eigendecomposition(pauli_sum_to_matrix(h))
        assert spectrum.dim == 4
        assert spectrum.gaps.min() > 1e-3
        assert not spectrum.degenerate

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
