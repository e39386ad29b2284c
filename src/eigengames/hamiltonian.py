"""Hermitian operators: construction, dense and Pauli-sum forms.

The solvers take a dense array (or a ``HermitianMatrix``) or a ``PauliSum``,
the measurable form of the same operator.  Every dense operator enters through
``hermitian_array``, the one checked intake.  The exact levels every solver is
checked against come from ``np.linalg.eigh`` on the dense form, or, for a
built power-law operator, are the ones it was built from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    HermiticityError,
    InvalidDimensionError,
    MalformedPauliError,
    PauliFormatError,
    real_number,
    whole_number,
)

HERMITICITY_ATOL = 1e-12
GAP_FLOOR = 1e-6
EIGENVALUE_CLAMP = 1e-4
# Largest |P^T P - I| entry a caller's basis for build_powerlaw_hamiltonian may have.
ORTHOGONALITY_ATOL = 1e-10
LANCZOS_TOL = 1e-13
RANGE_RESIDUAL_TOL = 1e-2
LANCZOS_SEED = 0
RITZ_CHECK_STRIDE = 8
# ``PauliSum.apply`` gathers a whole batch at once, one stacked product, when
# the gathered block (rows x x-masks x 2**q amplitudes) holds at most this many
# entries, and loops over the x-masks above it.  The stacked product makes
# fewer array calls, the loop smaller temporaries.  In three runs of the apply
# table of ``tools/shot_read_crossover.py`` (in CHANGES.md) every block up to
# 11 136 entries ran faster stacked.  Above that the winner moved between
# runs: 13 376 entries (5 qubits, 19 rows) took 1.8x the loop's time in two
# runs and 0.54x in the third.  H2's 19-row shot read (152) and the 8-qubit
# ``wide`` sum's single state (7936) stack; ``wide``'s 33-row sweeps
# (261 888) loop, and ``tests/test_perfbench_reads.py`` holds the constant
# between them.
STACKED_APPLY_ENTRIES = 12288

PAULI_MATRICES = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def check_hermitian(entries: np.ndarray) -> None:
    """Raise unless ``entries`` is a non-empty, finite square matrix within HERMITICITY_ATOL of M^H.

    Real or complex; the one statement of what a valid dense operator is,
    which ``hermitian_array`` applies to every array that enters.
    Finiteness is checked first: inf - inf is NaN, which the one
    max |M - M^H| pass would not reject.  Finite entries can still overflow
    in that pass (1e308 - (-1e308) is inf); inf exceeds the tolerance, so
    the overflow warning is silenced and the matrix rejected as not Hermitian.
    """
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {entries.shape}")
    if entries.shape[0] == 0:
        raise InvalidDimensionError("dimension must be at least 1")
    if not np.isfinite(entries).all():
        raise HermiticityError("matrix has an entry that is not finite")
    with np.errstate(over="ignore"):
        worst = np.abs(entries - entries.conj().T).max()  # conj() of a real array is the array itself
    if worst > HERMITICITY_ATOL:
        raise HermiticityError(f"matrix is not Hermitian (max |M - M^H| = {worst:.3e})")


class HermitianMatrix:
    """Dense Hermitian operator; immutable after construction.

    ``entries`` is a read-only C-ordered copy of the input: float64 when the
    input is real (float, int or bool), complex128 when it is complex.
    """

    def __init__(self, entries: np.ndarray):
        self.entries = _readonly(np.array(hermitian_array(entries), order="C"))


def hermitian_array(m) -> np.ndarray:
    """The checked array of a dense operator: the one intake, which every entry point reads through.

    A ``HermitianMatrix`` is read as its ``entries``, checked when it was
    built.  Anything else is read as a float64 array, or complex128 when it
    is complex, not copied when it already is one, and must pass
    ``check_hermitian``.
    """
    if isinstance(m, HermitianMatrix):
        return m.entries
    entries = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    check_hermitian(entries)
    return entries


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings with real coefficients.

    Real coefficients make the summed operator Hermitian automatically.  A
    complex coefficient, a NumPy one or one with a zero imaginary part
    included, raises ``MalformedPauliError``.
    """

    num_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        whole_number("num_qubits", self.num_qubits, error=InvalidDimensionError)
        for coeff, string in self.terms:
            if len(string) != self.num_qubits:
                raise MalformedPauliError(
                    f"string {string!r} has length {len(string)}, expected {self.num_qubits}"
                )
            bad = set(string) - set("IXYZ")
            if bad:
                raise MalformedPauliError(f"string {string!r} has illegal characters {bad}")
            if np.iscomplexobj(coeff):  # np.complex64 is not a Python complex
                raise MalformedPauliError("coefficients must be real")
            if not math.isfinite(coeff):
                raise MalformedPauliError(f"coefficient {coeff!r} of {string!r} is not finite")

    @property
    def one_norm(self) -> float:
        """Sum of |coefficients|; an upper bound on the spectral radius."""
        return float(sum(abs(c) for c, _ in self.terms))

    @cached_property
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """The sum as stacked (index permutation, diagonal weight) rows, one per x-mask.

        Binary symplectic form (Aaronson & Gottesman, PRA 70, 052328, 2004):
        a string with X/Y bits x and Z/Y bits z is i^{#Y} X^x Z^z, so it maps
        amplitude b to index b ^ x with sign (-1)^{popcount(b & z)}.  Terms
        sharing an x-mask collapse into one weight row w, and the operator
        applies as (M psi)[y] = sum over masks of w[y] * psi[y ^ x].  Returns
        read-only ``perms`` (K, 2**q) integer and ``weights`` (K, 2**q)
        complex128 arrays, rows in the order the masks first appear; the empty
        sum gives (0, 2**q) arrays.  Each term's signs are one gather from a
        table of popcount parities.  Built on first use and kept on the instance.
        """
        q = self.num_qubits
        index = np.arange(2**q)
        parity = np.zeros(1, dtype=np.int64)  # popcount(b) mod 2 for b < 2**q
        for _ in range(q):
            parity = np.concatenate((parity, 1 - parity))
        x_bits, z_bits = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
        masks = [(int(s.translate(x_bits), 2), int(s.translate(z_bits), 2)) for _, s in self.terms]
        rows = {x: r for r, x in enumerate(dict.fromkeys(x for x, _ in masks))}
        weights = np.zeros((len(rows), 2**q), dtype=np.complex128)
        for (coeff, string), (x_mask, z_mask) in zip(self.terms, masks):
            phase = (1j) ** string.count("Y") * (1 - 2 * parity[(index ^ x_mask) & z_mask])
            weights[rows[x_mask]] += coeff * phase
        perms = index ^ np.array(list(rows), dtype=index.dtype)[:, None]
        return _readonly(perms), _readonly(weights)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The sum applied along the last axis of a (..., 2**q) array; the dense matrix is never built.

        One size rule picks the form.  When the gathered block, rows times
        x-masks times 2**q entries, is at most ``STACKED_APPLY_ENTRIES``, the
        batch is one stacked product,
        ``np.add.reduce(weights * amps.take(perms, axis=-1), axis=-2)``, whose
        gather, unlike ``amps[..., perms]``, keeps the result C-ordered as the
        loop's is, and serves a single (2**q,) vector as it serves a batch.
        Above it, one x-mask at a time is gathered into one reused buffer,
        multiplied by its weight row in place and added on, which keeps the
        temporaries to the batch's own size.  Both forms multiply weight by
        amplitude and add the masks in order, so they give the same bits per
        row; the constant comes from the apply table of
        ``tools/shot_read_crossover.py``.  Every index of a
        permutation is valid, so the gather's ``clip`` mode, which writes
        straight into the buffer, never clips.  The last axis is not
        checked; ``quantum_sim.pauli_sum_apply`` is the checked entry point.
        """
        perms, weights = self.compiled
        if amps.size * len(perms) <= STACKED_APPLY_ENTRIES:
            return np.add.reduce(weights * amps.take(perms, axis=-1), axis=-2)
        amps = np.asarray(amps, dtype=np.complex128)  # the gather writes into a complex buffer
        out = np.zeros(amps.shape, dtype=np.complex128)
        buf = np.empty_like(out)
        for perm, weight in zip(perms, weights):
            amps.take(perm, axis=-1, out=buf, mode="clip")
            np.multiply(weight, buf, out=buf)  # weight first: the product's bits depend on the order
            out += buf
        return out

    @cached_property
    def spectral_range(self) -> tuple[float, float]:
        """An interval (lo, hi) holding M's spectrum: ``lanczos_enclosure`` on the compiled form; no dense matrix.

        The run applies the sum one vector at a time (``apply``), from a
        complex start vector, with the 1-norm as its norm bound.  Computed on
        first use and kept on the instance.
        """
        lo, hi, _ = lanczos_enclosure(self.apply, 2**self.num_qubits, self.one_norm)
        return lo, hi


def lanczos_enclosure(matvec: Callable[[np.ndarray], np.ndarray], dim: int, norm_bound: float,
                      min_steps: int = 1, real: bool = False) -> tuple[float, float, np.ndarray]:
    """(lo, hi, ritz): an interval holding the spectrum of a Hermitian operator, and the run's Ritz values.

    The operator is read only through ``matvec``, which maps a (dim,)
    vector to a new array; ``norm_bound``, a bound on ||M|| such as a Pauli
    sum's 1-norm, sets the run's scale.  The run starts from a fixed-seed
    random vector, complex, or real when ``real`` is set (its own
    generator: no solver stream is drawn from), and reorthogonalizes each
    new vector against the whole basis, twice (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 13).  ``scale``, the largest
    ||M v_j|| so far, is a lower bound on ||M||.  Every RITZ_CHECK_STRIDE
    steps the j x j tridiagonal's extreme Ritz pairs are read (an O(j^3)
    ``eigh``, too dear to take every step) with their residuals
    r = |beta_j s_j|, s_j the last entry of the Ritz vector, and with d, the
    distance each extreme moved since the previous reading.  Once all four
    are at most RANGE_RESIDUAL_TOL * scale and at least ``min_steps`` steps
    have run, the run stops and returns (theta_min - r_min - d_min,
    theta_max + r_max + d_max), so each end lies at most
    2 * RANGE_RESIDUAL_TOL * ||M|| beyond its eigenvalue.  ``ritz`` holds
    that reading's j Ritz values, ascending and read-only.

    Ritz values lie inside the spectrum and each is within its residual of
    an eigenvalue (Kahan's bound, Parlett Thm 4.5.1), so theta - r and
    theta + r enclose lambda_min and lambda_max once the extreme Ritz
    pairs have resolved the extreme eigenvalues.  A pair that has not yet
    resolved a cluster of eigenvalues at an end, narrower than its
    residual, sits inside the cluster with a residual too small to reach
    its edge; its Ritz value still creeps outward (the extremes move
    monotonically), and d, the last stride's progress, covers what is left
    of it when the creep at least halves each stride.  No finite Krylov
    run can prove an enclosure: an extreme eigenvector that the start
    vector barely touches shows up late, and the pair converges on the
    next eigenvalue first.  Of 8000 random sums of 4-6 qubits, many with
    clustered ends, 12 had an end short, the worst by 0.6% of ||M||;
    stopping on the residuals alone and widening by them left 289 short,
    the worst by 1.4%.  By Cauchy interlacing the i-th largest Ritz value
    is at most lambda_i, the i-th largest eigenvalue.

    When the Krylov space is exhausted first (beta_j <= LANCZOS_TOL *
    scale, or ``dim`` steps) the tridiagonal's eigenvalues, read with
    ``eigvalsh``, are M's own to rounding, and its extremes are returned
    as they are: a Pauli sum on 1-4 qubits never reaches the second
    reading, so its range is always this one.  The zero operator gives
    (0.0, 0.0).
    """
    # The run is on s*M, s the power of two that puts the norm bound in [1/2, 1)
    # (or as near as a float allows, for a subnormal one): norms square their
    # entries, which under- or overflows when ||M|| is far from 1, and a
    # power of two scales every float exactly.
    s = math.ldexp(1.0, min(-math.frexp(norm_bound)[1], 1023))
    rng = np.random.default_rng(LANCZOS_SEED)
    v = rng.standard_normal(dim) if real else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    basis = np.empty((min(dim, 64), dim), dtype=v.dtype)  # doubled when full
    alphas: list[float] = []
    betas: list[float] = []
    scale = 0.0
    previous = None  # the extreme Ritz values at the last reading
    for j in itertools.count(1):
        if j > len(basis):
            basis = np.concatenate((basis, np.empty_like(basis)))
        basis[j - 1] = v
        w = matvec(v)
        w *= s
        scale = max(scale, float(np.linalg.norm(w)))
        alphas.append(float(np.vdot(v, w).real))
        spanned = basis[:j]
        for _ in range(2):
            w -= (spanned @ w.conj()).conj() @ spanned
        beta = float(np.linalg.norm(w))
        exhausted = beta <= LANCZOS_TOL * scale or j == dim
        if exhausted or j % RITZ_CHECK_STRIDE == 0:
            tridiagonal = np.zeros((j, j))  # eigvalsh and eigh read the lower triangle only
            tridiagonal.flat[:: j + 1] = alphas
            tridiagonal.flat[j :: j + 1] = betas
            if exhausted:
                ritz = np.linalg.eigvalsh(tridiagonal) / s
                return float(ritz[0]), float(ritz[-1]), _readonly(ritz)
            ritz, vectors = np.linalg.eigh(tridiagonal)
            r_min, r_max = abs(beta * vectors[-1, 0]), abs(beta * vectors[-1, -1])
            if previous and j >= min_steps:
                d_min, d_max = abs(previous[0] - ritz[0]), abs(ritz[-1] - previous[1])
                if max(r_min, r_max, d_min, d_max) <= RANGE_RESIDUAL_TOL * scale:
                    lo, hi = ritz[0] - r_min - d_min, ritz[-1] + r_max + d_max
                    return float(lo) / s, float(hi) / s, _readonly(ritz / s)
            previous = ritz[0], ritz[-1]
        betas.append(beta)
        v = w / beta


def random_orthonormal(dim: int, seed: int) -> np.ndarray:
    """Random real orthogonal matrix from a QR factorization; deterministic per seed.

    Real orthogonality satisfies the unitarity contract P^H P = I while keeping
    similarity transforms of real diagonals real symmetric, which the classical
    game requires.  ``dim`` must be a whole number of at least 1
    (``InvalidDimensionError``) and ``seed`` a non-negative integer
    (``ValueError``), as ``errors.whole_number`` checks them.
    """
    whole_number("dim", dim, error=InvalidDimensionError)
    whole_number("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    # Fix the column signs so the factorization (and hence the output) is unique.
    q *= np.sign(np.diag(r))
    return q


def _orthogonal_basis(basis, dim: int) -> np.ndarray:
    """``basis`` as a float64 array, checked to be a dim x dim matrix with P^T P = I to ``ORTHOGONALITY_ATOL``."""
    p = np.asarray(basis, dtype=np.float64)
    if p.shape != (dim, dim):
        raise ValueError(f"basis must be a {dim} x {dim} matrix, got shape {p.shape}")
    off = p.T @ p
    off.flat[:: dim + 1] -= 1.0
    np.abs(off, out=off)  # |P^T P - I|, in one (dim, dim) array
    i, j = divmod(int(np.argmax(off)), dim)  # a NaN entry is the first maximum
    if not off[i, j] <= ORTHOGONALITY_ATOL:
        raise ValueError(f"basis is not orthogonal: |P^T P - I| is {off[i, j]:.3g} at ({i}, {j}), "
                         f"beyond {ORTHOGONALITY_ATOL}")
    return p


def build_powerlaw_hamiltonian(
    dim: int,
    seed: int,
    exponent: float = 2.0,
    basis: np.ndarray | None = None,
) -> tuple[HermitianMatrix, tuple[np.ndarray, np.ndarray]]:
    """Random test Hamiltonian with a known, well-separated power-law spectrum.

    Eigenvalues are u**exponent for u ~ Uniform(0, 1), clamped into
    (1e-4, 1 - 1e-4) and redrawn until every adjacent gap exceeds 1e-6, so
    eigengap-dependent bounds stay finite.  M = P^T D P for a random
    orthogonal P (pass ``basis`` to override, e.g. the identity for debugging;
    it must be a dim x dim real matrix whose largest |P^T P - I| entry is at
    most ``ORTHOGONALITY_ATOL``, or ``ValueError`` names the worst entry),
    formed as (P^T scaled column-wise by the eigenvalues) @ P with no dense D.
    M is real, so it is stored as float64.  Returns ``(matrix, (eigenvalues,
    eigenvectors))``: the drawn eigenvalues, descending, and a C-ordered copy
    of P^T, whose column i pairs with ``eigenvalues[i]``; both are read-only
    float64.  In C order a column is strided, so BLAS takes one path for a
    dot product with it.  ``dim`` must be a whole number of at least 2
    (``InvalidDimensionError``) and ``seed`` a non-negative integer
    (``ValueError``), as ``errors.whole_number`` checks them; ``exponent``
    must be a positive finite real number (``errors.real_number``).
    """
    whole_number("dim", dim, minimum=2, error=InvalidDimensionError)
    whole_number("seed", seed, minimum=0)
    real_number("exponent", exponent, "positive")
    rng = np.random.default_rng(seed)
    eigenvalues = None
    for _ in range(1000):
        draw = np.sort(rng.uniform(0.0, 1.0, size=dim) ** exponent)[::-1]
        draw = np.clip(draw, EIGENVALUE_CLAMP, 1.0 - EIGENVALUE_CLAMP)
        if np.all(-np.diff(draw) > GAP_FLOOR):
            eigenvalues = draw
            break
    if eigenvalues is None:
        raise RuntimeError("could not draw a spectrum with all gaps above the floor")

    p = random_orthonormal(dim, seed) if basis is None else _orthogonal_basis(basis, dim)
    m = (p.T * eigenvalues) @ p
    m = 0.5 * (m + m.T)  # kill rounding asymmetry
    # Columns of P^T are the eigenvectors of M = P^T D P.
    return HermitianMatrix(m), (_readonly(eigenvalues), _readonly(np.array(p.T, order="C")))


def pauli_sum_to_matrix(h: PauliSum) -> np.ndarray:
    """Dense form of a Pauli sum, sum_i a_i * kron(P_i1, ..., P_iq), as a read-only complex128 array."""
    dim = 2**h.num_qubits
    total = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, string in h.terms:
        term = np.eye(1, dtype=np.complex128)
        for ch in string:
            term = np.kron(term, PAULI_MATRICES[ch])
        total += coeff * term
    check_hermitian(total)
    return _readonly(total)


def load_pauli_sum(path: str | Path) -> PauliSum:
    """Parse a Pauli-sum text file: '#' comment lines, then '<coeff> <string>' per line."""
    path = Path(path)
    terms: list[tuple[float, str]] = []
    lengths: set[int] = set()
    with path.open("r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PauliFormatError(lineno, f"expected '<coefficient> <pauli string>', got {line!r}")
            coeff_text, string = parts
            try:
                coeff = float(coeff_text)
            except ValueError:
                raise PauliFormatError(lineno, f"bad coefficient {coeff_text!r}") from None
            if not math.isfinite(coeff):
                raise PauliFormatError(lineno, f"coefficient {coeff_text!r} is not finite")
            if set(string) - set("IXYZ"):
                raise PauliFormatError(lineno, f"bad pauli string {string!r}")
            lengths.add(len(string))
            if len(lengths) > 1:
                raise MalformedPauliError(
                    f"line {lineno}: string {string!r} disagrees with earlier term lengths {sorted(lengths)}"
                )
            terms.append((coeff, string))
    if not terms:
        raise PauliFormatError(0, "file contains no terms")
    return PauliSum(num_qubits=lengths.pop(), terms=tuple(terms))


def bundled_h2_path() -> Path:
    """Path of the shipped two-qubit H2 Pauli file."""
    return Path(__file__).parent / "data" / "h2_parity_2q.txt"
