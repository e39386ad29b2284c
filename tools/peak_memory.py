"""Traced peak memory of the dense operator layer on power-law matrices, and of the sweep plans.

For each n it prints, in MiB, the ``tracemalloc`` peak of three calls, each
counted above what was allocated before it:

* ``build``: ``build_powerlaw_hamiltonian(n, seed=0)``;
* ``matrix``: ``HermitianMatrix`` of that operator's real n x n array;
* ``solve``: a 2-player, 50-iteration exact ``run_sequential`` on it, which
  reads the operator's real entries without a copy.

A last row, ``plan``, is the peak of building the sweep plans
(``AnsatzSpec.sweep_plan``) of H2's layout, the benchmark's
``random_layers_ansatz(2, 3, 3, seed=11)``, and of the table layout with
the largest plan, one qubit and 11 parameters at 2**11 * 2**1 =
``quantum_sim.BRANCH_TABLE_ENTRIES`` amplitudes, from nothing: each
layout's branch table, which the gate loop builds inside the count, and
its plan.  Both plans are held to the end, 1.06 MiB together.  It does not
depend on n.

``tracemalloc`` sees the arrays numpy allocates, not the workspace LAPACK
takes inside ``qr`` or ``eigvalsh``, so the figures are deterministic.  Run::

    PYTHONPATH=src python tools/peak_memory.py [n ...]

The sizes default to 64, 128 and 256.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Callable

from eigengames.eigengame_classical import GameConfig, run_sequential
from eigengames.hamiltonian import HermitianMatrix, build_powerlaw_hamiltonian
from eigengames.quantum_sim import random_layers_ansatz

SIZES = (64, 128, 256)
SOLVE_CONFIG = GameConfig(num_players=2, max_iterations_per_player=50)
# (qubits, layers, rotations per layer, seed) of the ``plan`` row's layouts.
PLAN_LAYOUTS = ((2, 3, 3, 11), (1, 1, 11, 0))


def traced_peak(call: Callable[[], object]) -> float:
    """The ``tracemalloc`` peak of ``call()`` in MiB, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peaks(n: int) -> dict[str, float]:
    """The three traced peaks at size n, by name."""
    matrix, _ = build_powerlaw_hamiltonian(n, seed=0)
    return {
        "build": traced_peak(lambda: build_powerlaw_hamiltonian(n, seed=0)),
        "matrix": traced_peak(lambda: HermitianMatrix(matrix.entries)),
        "solve": traced_peak(lambda: run_sequential(matrix, SOLVE_CONFIG, seed=0)),
    }


def plan_peak() -> float:
    """The traced peak of building H2's sweep plan and the largest table layout's from nothing, held together."""
    specs = [random_layers_ansatz(*layout) for layout in PLAN_LAYOUTS]
    return traced_peak(lambda: [spec.sweep_plan for spec in specs])


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv[1:]] or SIZES
    table = {n: peaks(n) for n in sizes}
    names = list(table[sizes[0]])
    print(f"{'n':>5}" + "".join(f"{name:>16}" for name in names) + "   (traced peak, MiB)")
    for n, row in table.items():
        print(f"{n:>5}" + "".join(f"{row[name]:>16.3f}" for name in names))
    print(f"{'plan':>5}{plan_peak():>16.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
