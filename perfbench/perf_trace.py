"""Spans around the library's public functions, for the traced run only.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every ``eigengames`` module that binds it (the defining module and every
module that imported it by name), and ``Tracer.remove`` puts the originals
back. Each call records a span: name, start, end, the index of the span that
was open when it started, and the solve id. Self times are computed from the
spans afterwards. ``ShotModel.perturb`` is wrapped to count readouts and shots
without a span: it is the single point where a finite-shot estimate is drawn.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

TRACED = {
    "hamiltonian": (
        "exact_eigendecomposition", "pauli_sum_to_matrix",
        "build_powerlaw_hamiltonian", "load_pauli_sum",
    ),
    "eigengame_classical": ("eigengame_player", "angular_error"),
    "quantum_sim": (
        "apply_ansatz", "pauli_sum_apply", "shot_noisy_expectation",
        "mixed_expectation_noisy", "swap_test_overlap_noisy", "parameter_shift_gradient",
    ),
    "quantumgame": ("quantumgame_player", "vqd_player"),
}


class Tracer:
    """Span recorder; spans stay in memory until ``write`` at the end of the run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, solve id]
        self._open: list[int] = []
        self.solve_id: str | None = None
        self.readouts = 0
        self.shots = 0
        self._patched: list[tuple[object, str, object]] = []

    def start(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.solve_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def end(self, record: list) -> None:
        record[2] = perf_counter()
        self._open.pop()

    def _span_wrapper(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)
        return wrapper

    def _perturb_wrapper(self, fn):
        @wraps(fn)
        def wrapper(model, *args, **kwargs):
            if not model.is_exact:
                self.readouts += 1
                self.shots += model.num_shots
            return fn(model, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "eigengames" or name.startswith("eigengames."))
        }
        for module_name, functions in TRACED.items():
            home = modules[f"eigengames.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:  # renamed or removed: reported as 0 calls
                    continue
                wrapper = self._span_wrapper(f"{module_name}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        shot_model = modules["eigengames.quantum_sim"].ShotModel
        self._patched.append((shot_model, "perturb", shot_model.perturb))
        shot_model.perturb = self._perturb_wrapper(shot_model.perturb)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): each span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child[i]
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="ascii") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 9), "end": round(end - origin, 9),
                    "parent": parent, "solve": solve,
                }) + "\n")
