"""Per-call times of the two forms of a sweep read, of a sweep's preparation and of M's application, against the
rules that pick one.

Each table times the library's own dispatch, not a copy of its forms: one
helper (``forced``) sets the constant of a size rule so that it picks one
form, and restores it afterwards.  The pick column reads the unforced
dispatch, so it shows the form the solver takes on that input.

The first table times ``quantum_sim._sweep_reads``, the read of a sweep's
2m + 1 shift rows, with ``quantum_sim.EXPLICIT_SHIFT_ROWS_WORK`` forced to
each form: M on the m + 1 prepared rows and every read from their products
(a), or M on the 2m + 1 built rows (b).  For each operator and ansatz this
prints the median per-call time of each form, with two parent kets, their
ratio, m*K*2**q (K the x-masks of ``PauliSum.compiled``) and the form the
unforced rule picks: the explicit one when m*K*2**q is at most the
constant.  The operators are a transverse-field Ising ring and a random
32-term sum at 2-6 qubits, each on a two-layer ``layered_ansatz``
(m = 4q), and the benchmark's ``h2`` and ``wide`` solves.

A second table does the same for the sweep the players' loop prepares, a
fresh layout's ``AnsatzSpec.sweep_function`` built with
``quantum_sim.BRANCH_TABLE_ENTRIES`` forced to each form: the gate loop on
the m + 1 shifted parameter rows, or the sum of the sweep plan
(``AnsatzSpec.sweep_plan``) with one weight row.  Its layouts are
``random_layers_ansatz`` ones at q = 1-4 qubits, one-layer ones with m on
both sides of the size rule and three-layer ones (H2's shape: three layers
of r rotations, each followed by a CNOT ring) at 2**11 to 2**14 entries.
Next to the times it prints 2**m * 2**q and the form the unforced rule
picks: the plan when m >= 2 and 2**m * 2**q is at most the constant.

A third table times ``PauliSum.apply`` with
``hamiltonian.STACKED_APPLY_ENTRIES`` forced to each form, the stacked
product or the per-x-mask loop, on random 32-term sums at 2-8 qubits and on
H2's operator, on a single state as a (2**q,) vector (rows "vec"), the form
the exact read and the Lanczos run apply M to, and at 1-33 rows.  Next to
the times it prints the gathered block's size rows*K*2**q and the form the
unforced rule picks: the stacked product when the size is at most the
constant.  Run::

    PYTHONPATH=src python tools/shot_read_crossover.py [repeats]

``repeats`` (default 7) is the number of timing runs each median is taken
over; each run times enough calls to last about 20 ms.
"""

from __future__ import annotations

import math
import statistics
import sys
import timeit
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from eigengames import hamiltonian, quantum_sim
from eigengames.hamiltonian import PauliSum
from eigengames.quantum_sim import AnsatzSpec, layered_ansatz, parameter_shift_states, random_layers_ansatz

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from perf_workloads import build_round  # noqa: E402

QUBITS = (2, 3, 4, 5, 6)
PREPARATION_QUBITS = (1, 2, 3, 4)
# log2 of the smallest and largest 2**m * 2**q in the preparation table, and
# of the smallest for its three-layer layouts.
PREPARATION_SIZES = (7, 14)
THREE_LAYER_SMALLEST = 11
RANDOM_TERMS = 32
PARENTS = 2
APPLY_QUBITS = (2, 3, 4, 5, 6, 7, 8)
APPLY_ROWS = (1, 2, 3, 5, 9, 19, 33)
# Each size rule: its constant's module and name, and the value that makes it
# pick each form.  Every size is at most inf, and none is at most -1.
READ_RULE = (quantum_sim, "EXPLICIT_SHIFT_ROWS_WORK", {"(a) products": -1, "(b) explicit": math.inf})
PREPARATION_RULE = (quantum_sim, "BRANCH_TABLE_ENTRIES", {"loop": -1, "plan": math.inf})
APPLY_RULE = (hamiltonian, "STACKED_APPLY_ENTRIES", {"stacked": math.inf, "loop": -1})


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


@contextmanager
def forced(rule, form: str):
    """The size rule set to pick ``form`` inside the block, and its constant restored after it, however it ends."""
    module, name, forms = rule
    saved = getattr(module, name)
    setattr(module, name, forms[form])
    try:
        yield
    finally:
        setattr(module, name, saved)


def read_form(h: PauliSum, base: np.ndarray, kets: np.ndarray | None) -> str:
    """The form ``quantum_sim._sweep_reads`` takes on a sweep, read from the number of rows it applied M to."""
    return "(b) explicit" if quantum_sim._sweep_reads(h, base, kets)[2] == 2 * len(base) - 1 else "(a) products"


def preparation_form(spec: AnsatzSpec) -> str:
    """The form a fresh copy of the layout's ``sweep_function`` takes: the plan when building it built the sweep plan."""
    fresh = replace(spec)
    fresh.sweep_function  # built on first use, with the plan when it picks it
    return "plan" if "sweep_plan" in vars(fresh) else "loop"


class _GatherProbe(np.ndarray):
    """Amplitudes that record a gather from themselves.  ``PauliSum.apply``'s stacked product gathers from
    the array it is given; its per-x-mask loop gathers from a plain ndarray of it (``np.asarray``)."""

    def take(self, *args, **kwargs):
        self.gathered = True
        return self.view(np.ndarray).take(*args, **kwargs)


def apply_form(h: PauliSum, amps: np.ndarray) -> str:
    """The form ``PauliSum.apply`` takes on ``amps``: stacked when it gathered from them directly."""
    probe = amps.view(_GatherProbe)
    h.apply(probe)
    return "stacked" if getattr(probe, "gathered", False) else "loop"


def forced_times(rule, setup, repeats: int) -> dict[str, float]:
    """{form: median seconds per call} of the call ``setup()`` returns, built and timed with ``rule`` forced to it."""
    times = {}
    for form in rule[2]:
        with forced(rule, form):
            times[form] = per_call(setup(), repeats)
    return times


def per_call(call, repeats: int) -> float:
    """Median seconds per call over ``repeats`` runs of about 20 ms each."""
    number = max(1, int(0.02 / max(timeit.timeit(call, number=3) / 3, 1e-9)))
    return statistics.median(timeit.repeat(call, number=number, repeat=repeats)) / number


def preparation_layouts() -> list[tuple[int, int, int]]:
    """(q, layers, rotations per layer) of each row of the preparation table."""
    lo, hi = PREPARATION_SIZES
    one = [(q, 1, m) for q in PREPARATION_QUBITS for m in range(max(2, lo - q), hi - q + 1)]
    three = [(q, 3, r) for q in PREPARATION_QUBITS for r in range(1, hi) if THREE_LAYER_SMALLEST <= 3 * r + q <= hi]
    return one + three


def preparation_table(repeats: int) -> None:
    rng = np.random.default_rng(2)
    print(f"{'q':>3}{'L':>3}{'m':>4}{'2^m*2^q':>9}{'loop us':>10}{'plan us':>10}{'plan/loop':>11}  pick")
    for q, num_layers, per_layer in preparation_layouts():
        m = num_layers * per_layer
        spec = random_layers_ansatz(q, num_layers, per_layer, seed=per_layer)
        theta = rng.uniform(-np.pi, np.pi, m)
        times = forced_times(PREPARATION_RULE, lambda: partial(replace(spec).sweep_function, theta), repeats)
        loop, plan, pick = times["loop"], times["plan"], preparation_form(spec)
        print(f"{q:>3}{num_layers:>3}{m:>4}{2 ** (m + q):>9}{loop * 1e6:>10.1f}{plan * 1e6:>10.1f}"
              f"{plan / loop:>11.2f}  {pick}")
    print(f"rule: the plan when m >= 2 and 2^m*2^q <= quantum_sim.BRANCH_TABLE_ENTRIES = "
          f"{quantum_sim.BRANCH_TABLE_ENTRIES}")


def apply_table(repeats: int) -> None:
    rng = np.random.default_rng(3)
    operators = [(f"random q={q}", random_sum(q, rng)) for q in APPLY_QUBITS]
    operators.append(("h2", build_round("h2", 1, 0)[0].operator))
    print(f"{'operator':<12}{'K':>4}{'rows':>6}{'entries':>9}{'stacked us':>12}{'loop us':>10}"
          f"{'stacked/loop':>14}  pick")
    for name, h in operators:
        masks, d = h.compiled[0].shape
        for shape in [(d,)] + [(rows, d) for rows in APPLY_ROWS]:
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            times = forced_times(APPLY_RULE, lambda: partial(h.apply, amps), repeats)
            stacked, loop, pick = times["stacked"], times["loop"], apply_form(h, amps)
            rows, entries = shape[0] if len(shape) > 1 else "vec", amps.size * masks
            print(f"{name:<12}{masks:>4}{rows:>6}{entries:>9}{stacked * 1e6:>12.1f}{loop * 1e6:>10.1f}"
                  f"{stacked / loop:>14.2f}  {pick}")
    print(f"rule: stacked when rows*K*2^q <= hamiltonian.STACKED_APPLY_ENTRIES = "
          f"{hamiltonian.STACKED_APPLY_ENTRIES}")


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
        times = forced_times(READ_RULE, lambda: partial(quantum_sim._sweep_reads, h, base, kets), repeats)
        products, explicit, pick = times["(a) products"], times["(b) explicit"], read_form(h, base, kets)
        print(f"{name:<12}{q:>3}{m:>4}{len(h.compiled[0]):>4}{m * h.compiled[0].size:>10}"
              f"{products * 1e6:>10.1f}{explicit * 1e6:>10.1f}{explicit / products:>9.2f}  {pick}")
    print(f"rule: (b) when m*K*2^q <= quantum_sim.EXPLICIT_SHIFT_ROWS_WORK = {quantum_sim.EXPLICIT_SHIFT_ROWS_WORK}")
    print()
    preparation_table(repeats)
    print()
    apply_table(repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
