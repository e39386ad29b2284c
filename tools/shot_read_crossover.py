"""Per-call time of the two forms of a finite-shot sweep read, against the rule that picks one.

``quantum_sim.sweep_reads`` reads a sweep's 2m + 1 shift rows either from M
on the m + 1 prepared rows and their products (a) or from M on the 2m + 1
built rows (b), both formed here from ``quantum_sim``'s private helpers.
For each operator and ansatz this prints the median per-call time of each
form, with two parent kets, their ratio, m*K*2**q (K the x-masks of
``PauliSum.compiled``) and the form ``sweep_reads`` picks: the explicit one
when m*K*2**q is at most ``quantum_sim.EXPLICIT_SHIFT_ROWS_WORK``.  The operators
are a transverse-field Ising ring and a random 32-term sum at 2-6 qubits,
each on a two-layer ``layered_ansatz`` (m = 4q), and the benchmark's
``h2`` and ``wide`` solves.  Run::

    PYTHONPATH=src python tools/shot_read_crossover.py [repeats]

``repeats`` (default 7) is the number of timing runs each median is taken
over; each run times enough calls to last about 20 ms.
"""

from __future__ import annotations

import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

from eigengames import quantum_sim
from eigengames.hamiltonian import PauliSum
from eigengames.quantum_sim import AnsatzSpec, layered_ansatz, parameter_shift_states, pauli_sum_apply

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from perf_workloads import build_round  # noqa: E402

QUBITS = (2, 3, 4, 5, 6)
RANDOM_TERMS = 32
PARENTS = 2


def tfim_ring(q: int, field: float = 0.7) -> PauliSum:
    """sum_i Z_i Z_{i+1} + field * sum_i X_i on a ring of q qubits (one bond when q = 2)."""
    bonds = [(i, (i + 1) % q) for i in range(q if q > 2 else 1)]
    terms = [(1.0, "".join("Z" if t in bond else "I" for t in range(q))) for bond in bonds]
    terms += [(field, "".join("X" if t == i else "I" for t in range(q))) for i in range(q)]
    return PauliSum(q, tuple(terms))


def random_sum(q: int, rng: np.random.Generator) -> PauliSum:
    """``RANDOM_TERMS`` seeded-random Pauli strings with uniform(-1, 1) coefficients."""
    strings = ("".join(rng.choice(list("IXYZ"), size=q)) for _ in range(RANDOM_TERMS))
    return PauliSum(q, tuple((float(rng.uniform(-1.0, 1.0)), s) for s in strings))


def cases() -> list[tuple[str, PauliSum, AnsatzSpec]]:
    rng = np.random.default_rng(0)
    found = [(f"tfim q={q}", tfim_ring(q), layered_ansatz(q, 2)) for q in QUBITS]
    found += [(f"random q={q}", random_sum(q, rng), layered_ansatz(q, 2)) for q in QUBITS]
    for workload, slot in (("h2", 2), ("wide", 0)):
        solve = build_round(workload, 1, 0)[slot]
        found.append((workload, solve.operator, solve.spec))
    return found


def products_form(h: PauliSum, base: np.ndarray, kets: np.ndarray):
    """(a): M on the m + 1 prepared rows, every read formed from their products."""
    moments = quantum_sim._shift_row_moments(base, pauli_sum_apply(h, base))
    return moments, quantum_sim._shift_row_products(base, kets)


def explicit_form(h: PauliSum, base: np.ndarray, kets: np.ndarray):
    """(b): the 2m + 1 shift rows built, M applied to each of them."""
    rows = quantum_sim._shift_rows(base)
    return quantum_sim._built_row_moments(rows, pauli_sum_apply(h, rows)), rows.conj() @ kets.T


def per_call(call, repeats: int) -> float:
    """Median seconds per call over ``repeats`` runs of about 20 ms each."""
    number = max(1, int(0.02 / max(timeit.timeit(call, number=3) / 3, 1e-9)))
    return statistics.median(timeit.repeat(call, number=number, repeat=repeats)) / number


def main(argv: list[str]) -> int:
    repeats = int(argv[1]) if len(argv) > 1 else 7
    rng = np.random.default_rng(1)
    print(f"{'operator':<12}{'q':>3}{'m':>4}{'K':>4}{'m*K*2^q':>10}"
          f"{'(a) us':>10}{'(b) us':>10}{'(b)/(a)':>9}  pick")
    for name, h, spec in cases():
        q, m = spec.num_qubits, spec.num_parameters
        base = parameter_shift_states(spec, rng.uniform(-np.pi, np.pi, m))
        kets = rng.normal(size=(PARENTS, 2**q)) + 1j * rng.normal(size=(PARENTS, 2**q))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        products = per_call(lambda: products_form(h, base, kets), repeats)
        explicit = per_call(lambda: explicit_form(h, base, kets), repeats)
        pick = "(b) explicit" if quantum_sim.sweep_reads(h, base, None)[2] == 2 * m + 1 else "(a) products"
        print(f"{name:<12}{q:>3}{m:>4}{len(h.compiled[0]):>4}{m * h.compiled[0].size:>10}"
              f"{products * 1e6:>10.1f}{explicit * 1e6:>10.1f}{explicit / products:>9.2f}  {pick}")
    print(f"rule: (b) when m*K*2^q <= quantum_sim.EXPLICIT_SHIFT_ROWS_WORK = {quantum_sim.EXPLICIT_SHIFT_ROWS_WORK}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
