"""A digest of round 0 of every benchmark workload: what each player of each solve did and returned.

Round 0 of ``classical``, ``h2`` and ``wide`` is built through
``perfbench/perf_workloads.build_round``, read and not changed, and solved at
each given seed.  For every solve and player the digest records the counters
``iterations_used``, ``momentum_restarts``, ``readouts``, ``shots``,
``prepared_rows``, ``operator_rows``, ``stopped`` and ``converged``, and the
values ``eigenvalue`` and ``residual``.  ``--bits`` adds each value's
``float.hex`` and the sha256 of the player's vector, theta (the empty digest
for a classical player) and three histories, so that two trees that return
the same players to the last bit print identical digests.  Run::

    PYTHONPATH=src python tools/round0_digest.py [--bits] SEED...

It prints JSON, keyed by seed, workload and solve label.
``tests/data/round0_digest.json`` is its output for seed 1 without
``--bits``; tier-1 compares the round-0 solves at seed 1 with it, counters
exactly and values to 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import perf_workloads as wl  # noqa: E402

COUNTERS = (
    "iterations_used", "momentum_restarts", "readouts", "shots",
    "prepared_rows", "operator_rows", "stopped", "converged",
)
VALUES = ("eigenvalue", "residual")
ARRAYS = ("vector", "theta", "energy_history", "utility_history", "grad_norm_history")


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def player_record(player, bits: bool = False) -> dict:
    """One player's counters and values; with ``bits``, the values' ``float.hex`` and the arrays' sha256 too."""
    record = {name: getattr(player, name) for name in COUNTERS}
    record.update({name: float(getattr(player, name)) for name in VALUES})
    if bits:
        record.update({f"{name}_hex": float(getattr(player, name)).hex() for name in VALUES})
        for name in ARRAYS:
            values = getattr(player, name)
            values = [] if values is None else getattr(values, "values", values)
            record[f"{name}_sha256"] = _sha256(values)
    return record


def result_records(result, bits: bool = False) -> list[dict]:
    """The records of every player of one solve's result, in solve order."""
    return [player_record(player, bits) for player in result.players]


def digest(seeds: list[int], bits: bool = False) -> dict:
    """{seed: {workload: {solve label: player records}}} of round 0 at each seed."""
    return {
        str(seed): {
            workload: {solve.label: result_records(solve.run(), bits) for solve in wl.build_round(workload, seed, 0)}
            for workload in wl.WORKLOADS
        }
        for seed in seeds
    }


def main(argv: list[str]) -> int:
    bits = "--bits" in argv[1:]
    seeds = [int(arg) for arg in argv[1:] if arg != "--bits"]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(digest(seeds, bits), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
