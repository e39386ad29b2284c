"""Experiment harness: configure, run, and record the benchmark suites.

Four experiments: classical iteration scaling over matrix size, the two-qubit
molecular energy levels (game vs overlap-penalized baseline, exact and
finite-shot), the penalty-weight sweep for the baseline, and the theory-bound
diagnostics.  Results are plain CSV plus a manifest; plotting stays out of
process.

Settings are checked by building what the run uses, once, when the config
loads (``build_run_config``); the commands read those objects and build none
again.  Any value a library constructor rejects is a configuration error.

Exit codes: 0 success, 1 assertion or bound failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, EigenGamesError, real_number, whole_number
from .eigengame_classical import GameConfig, angular_error, run_sequential
from .hamiltonian import (
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    load_pauli_sum,
    pauli_sum_to_matrix,
)
from .quantum_sim import ShotModel, random_layers_ansatz
from .quantumgame import SolverConfig, run_quantumgame, run_vqd
from .theory_diagnostics import (
    loglog_slope,
    measure_error_accumulation_classical,
    measure_error_accumulation_quantum,
    sampled_lipschitz_check,
)

SCHEMA_VERSION = 1

# The nine settings the two molecular experiments share; each adds its own iteration budget
# and penalty weights.  The diagnostics run on h2_levels' default operator and ansatz.
_MOLECULAR = {
    "pauli_file": "",  # empty -> bundled two-qubit molecular file
    "num_levels": 4, "layers": 3, "rotations_per_layer": 3, "ansatz_seed": 11,
    "initial_state": "plus", "seeds": [0], "grad_tolerance": 1e-2, "shots": 10_000,
}

# Every entry's settings, after its schema_version and experiment name.  The two molecular
# entries share _MOLECULAR's lists, so no run changes a default in place.
DEFAULTS: dict[str, dict] = {
    experiment: {"schema_version": SCHEMA_VERSION, "experiment": experiment, **settings}
    for experiment, settings in {
        "eigengame_scaling": {
            "sizes": [8, 16, 32, 64, 128], "seeds": [0, 1, 2, 3, 4], "num_players": 8,
            "exponent": 1.0, "grad_tolerance": 1e-6, "sigma": 1e-6, "max_iterations": 100_000,
        },
        "h2_levels": {**_MOLECULAR, "max_iterations": 3000, "beta": 5.0},
        "vqd_beta_sweep": {**_MOLECULAR, "max_iterations": 1500, "betas": [0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]},
        "diagnostics": {"dim": 8, "seeds": [0], "lipschitz_samples": 1000, "epsilons": [1e-4, 1e-3, 1e-2]},
    }.items()
}


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment settings, their provenance hash, and what the run uses.

    ``built`` holds the library objects ``build_run_config`` made from the
    settings, once: ``game`` (a ``GameConfig``) for the scaling experiment;
    ``operator``, its oracle ``levels`` (the lowest ``num_levels``
    eigenvalues of its dense matrix, ascending), ``ansatz`` and ``solvers``,
    one ``SolverConfig`` per (noise, beta) pair, for the two molecular ones;
    ``h2_levels``' default ``operator`` and ``ansatz`` for the diagnostics.
    It stays out of the hash and the manifest.
    """

    experiment: str
    settings: dict
    config_hash: str
    built: dict = field(default_factory=dict, compare=False, repr=False)

    def __getitem__(self, key):
        return self.settings[key]


def _parse_scalar(key: str, text: str):
    """Parse ``text`` as the type of ``key``'s default value; list items as its first item's type.

    Unknown keys stay text, for ``build_run_config`` to reject.
    """
    text = text.strip()
    default = next((d[key] for d in DEFAULTS.values() if key in d), text)
    if isinstance(default, list):
        return [type(default[0])(t.strip()) for t in text.split(",") if t.strip()]
    return type(default)(text)


def parse_config_text(text: str) -> dict:
    """Parse the flat `key = value` format ('#' starts a comment line); a key may be set once."""
    settings: dict = {}
    set_on: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            settings[key] = _parse_scalar(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return settings


def build_run_config(experiment: str, overrides: dict | None = None) -> RunConfig:
    """Merge overrides into the experiment defaults, then check them and build what the run uses.

    ``_build`` makes both steps, in one branch per experiment; any value it
    or a library constructor it calls rejects is a ``ConfigError``.
    """
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {tuple(DEFAULTS)}")
    settings = dict(DEFAULTS[experiment])
    for key, value in (overrides or {}).items():
        if key not in settings:
            raise ConfigError(f"unknown config key {key!r} for experiment {experiment}")
        settings[key] = value
    if settings["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {settings['schema_version']} unsupported (expected {SCHEMA_VERSION})"
        )
    if settings["experiment"] != experiment:
        raise ConfigError(
            f"config file is for experiment {settings['experiment']!r}, command ran {experiment!r}"
        )
    try:
        built = _build(experiment, settings)
    except (ValueError, OSError, EigenGamesError) as exc:
        raise ConfigError(str(exc)) from None
    blob = "\n".join(f"{k}={settings[k]!r}" for k in sorted(settings))
    config_hash = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return RunConfig(experiment=experiment, settings=settings, config_hash=config_hash, built=built)


def _build(experiment: str, s: dict) -> dict:
    """Check the settings and build the library objects the run uses, each once.

    Each experiment's branch makes the checks no library constructor makes,
    then leaves the rest to the constructors it calls.  The runners draw
    every player's shot stream from their ``seed``, so no ``rng_seed`` is set.
    """
    if not s["seeds"]:
        raise ConfigError("seeds must not be empty")
    for seed in s["seeds"]:
        whole_number("seed", seed, minimum=0)
    if experiment == "eigengame_scaling":
        if not s["sizes"]:
            raise ConfigError("sizes must not be empty")
        for n in s["sizes"]:  # at least 2 and at least num_players
            whole_number("size", n, minimum=max(2, s["num_players"]))
        real_number("exponent", s["exponent"], "positive")
        return {"game": GameConfig(sigma=s["sigma"], grad_tolerance=s["grad_tolerance"],
                                   max_iterations_per_player=s["max_iterations"],
                                   num_players=s["num_players"])}
    if experiment == "diagnostics":
        if len(s["seeds"]) > 1:
            raise ConfigError("diagnostics runs one seed; pass one seed or --seed N")
        whole_number("dim", s["dim"], minimum=4)
        whole_number("lipschitz_samples", s["lipschitz_samples"])
        if not s["epsilons"]:
            raise ConfigError("epsilons must not be empty")
        for i, eps in enumerate(s["epsilons"]):
            real_number(f"epsilons[{i}]", eps, "positive")
        h2 = _build("h2_levels", DEFAULTS["h2_levels"])
        return {"operator": h2["operator"], "ansatz": h2["ansatz"]}
    if experiment == "vqd_beta_sweep" and not s["betas"]:
        raise ConfigError("betas must not be empty")
    path = Path(s["pauli_file"]) if s["pauli_file"] else bundled_h2_path()
    try:
        operator = load_pauli_sum(path)
    except (ValueError, EigenGamesError) as exc:  # its line numbers are the Pauli file's
        raise ConfigError(f"pauli_file {path}: {exc}") from None
    whole_number("num_levels", s["num_levels"])
    if s["num_levels"] > 2**operator.num_qubits:
        raise ConfigError(f"num_levels must be at most {2**operator.num_qubits} for {path.name}")
    ansatz = random_layers_ansatz(operator.num_qubits, s["layers"], s["rotations_per_layer"],
                                  seed=s["ansatz_seed"], initial_state=s["initial_state"])
    # h2 runs the game (no penalty weight) and VQD at ``beta``; the sweep runs VQD at each weight.
    betas = (None, s["beta"]) if experiment == "h2_levels" else s["betas"]
    solvers = {
        (noise, beta): SolverConfig(max_iterations=s["max_iterations"],
                                    grad_tolerance=s["grad_tolerance"], shots=ShotModel(shots),
                                    direction="minimize", beta=beta)
        for noise, shots in _noise_levels(s)
        for beta in betas
    }
    levels = np.linalg.eigh(pauli_sum_to_matrix(operator))[0][: s["num_levels"]]  # lowest, ascending
    return {"operator": operator, "levels": levels, "ansatz": ansatz, "solvers": solvers}


def _noise_levels(s) -> tuple:
    """(noise, shots) for each read-out a molecular run makes: exact, then at ``shots``."""
    return (("noiseless", None), ("shots", s["shots"]))


def load_run_config(experiment: str, config_path: str | None, seed: int | None) -> RunConfig:
    overrides: dict = {}
    if config_path:
        overrides = parse_config_text(Path(config_path).read_text())
    if seed is not None:
        overrides["seeds"] = [seed]
    return build_run_config(experiment, overrides)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _write_run(out: Path, cfg: RunConfig, rows: Sequence[dict], extra_lines: Sequence[str] = ()) -> None:
    """Create ``out``, write ``results.csv``, then ``manifest.txt``.

    Each row is a dict from column name to value, so a command names each
    column once, beside its value.  The header is the first row's keys; a
    row whose keys differ from them, in name or order, raises ``ValueError``
    before either file is written.  Floats are written by ``repr``.
    """
    header = list(rows[0])
    for index, row in enumerate(rows):
        if list(row) != header:
            raise ValueError(f"row {index} has columns {list(row)}, the first row has {header}")
    out.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [header] + [[repr(x) if isinstance(x, float) else x for x in row.values()] for row in rows])
    (out / "results.csv").write_text(buffer.getvalue())
    lines = [
        f"library_version: {__version__}",
        f"experiment: {cfg.experiment}",
        f"config_hash: {cfg.config_hash}",
        f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
        "config:",
    ]
    lines += [f"  {k} = {cfg.settings[k]}" for k in sorted(cfg.settings)]
    lines += list(extra_lines)
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _gap_to_the_rest(levels: np.ndarray, i: int) -> float:
    """min over j != i of |lambda_j - lambda_i|."""
    return float(np.abs(np.delete(levels, i) - levels[i]).min())


def cmd_bench_scaling(cfg: RunConfig, out: Path) -> int:
    """Iteration counts for the leading components, exact vs zeroth-order mode.

    Each row also reports the largest eigen-residual ||M v - (v^T M v) v|| on
    the generated M and the largest Davis-Kahan angle bound, residual / the
    level's gap to the rest of the generated spectrum: what the residual
    alone says about each vector's angle to its eigenvector.  The command
    exits 1 when a player did not converge or a row's angle bound exceeds 1,
    where the residual no longer pins the vector to its eigenvector.  The
    defaults, tolerance and sigma 1e-6, are tier-1 criterion 2's settings.
    """
    rows = []
    ok = True
    for n in sorted(cfg["sizes"]):
        for mode in ("exact", "zeroth_order"):
            for seed in cfg["seeds"]:
                matrix, (levels, vectors) = build_powerlaw_hamiltonian(n, seed=seed, exponent=cfg["exponent"])
                result = run_sequential(matrix, cfg.built["game"], seed=seed, mode=mode)
                max_angle = max(angular_error(p.vector, vectors[:, p.index - 1]) for p in result.players)
                angle_bound = max(p.residual / _gap_to_the_rest(levels, p.index - 1) for p in result.players)
                rows.append({
                    "n": n, "mode": mode, "seed": seed, "total_iterations": result.total_iterations,
                    "max_angular_error": max_angle, "max_residual": _largest(result, "residual"),
                    "max_angle_bound": angle_bound, "converged": int(result.all_converged),
                    "config_hash": cfg.config_hash})
                ok = ok and result.all_converged and angle_bound <= 1.0
    _write_run(out, cfg, rows)
    return 0 if ok else 1


def _trajectory_rows(tag: str, noise: str, seed: int, result, shots_label, config_hash: str):
    rows = []
    cumulative = 0
    for player in result.players:
        for t in range(len(player.energy_history)):
            rows.append({
                "algorithm": tag, "noise": noise, "seed": seed, "player": player.index,
                "iteration": t, "cumulative_iteration": cumulative + t,
                "energy": player.energy_history[t], "utility": player.utility_history[t],
                "grad_norm": player.grad_norm_history[t], "shots": shots_label,
                "config_hash": config_hash})
        cumulative += len(player.energy_history)  # iterations_used + converged rows
    return rows


def _shots_used(result) -> int:
    return sum(player.shots for player in result.players)


def _largest(result, name: str) -> float:
    """The largest value of the players' ``name`` field in one run."""
    return max(getattr(player, name) for player in result.players)


def cmd_bench_h2(cfg: RunConfig, out: Path) -> int:
    """Energy-level trajectories on the bundled molecular operator, exact and 10k-shot.

    The manifest records each (algorithm, noise, seed) run's shots; its
    ``max_imag_residue``, the largest |Im<r|M r>| its sweeps' <M> reads saw
    (``PlayerResult``: theta's row under an exact shot model, the shift rows
    under finite shots); and the largest energy standard deviation and
    parent overlap over its returned states (reported, not gating).  Exits 1 unless both solvers' noiseless levels are within 2e-2
    of the oracle's.
    """
    h, spec, solvers = cfg.built["operator"], cfg.built["ansatz"], cfg.built["solvers"]
    k, oracle = cfg["num_levels"], cfg.built["levels"]
    rows = [{"algorithm": "oracle", "noise": "exact", "seed": "", "player": level, "iteration": "",
             "cumulative_iteration": "", "energy": float(value), "utility": "", "grad_norm": "",
             "shots": "exact", "config_hash": cfg.config_hash}
            for level, value in enumerate(oracle, start=1)]
    ok = True
    costs = ["run costs:"]
    for noise, shots in _noise_levels(cfg):
        for seed in cfg["seeds"]:
            game = run_quantumgame(h, spec, solvers[noise, None], k, seed=seed)
            rows += _trajectory_rows("quantumgame", noise, seed, game,
                                     shots or "exact", cfg.config_hash)
            vqd = run_vqd(h, spec, solvers[noise, cfg["beta"]], k, seed=seed)
            rows += _trajectory_rows("vqd", noise, seed, vqd, shots or "exact", cfg.config_hash)
            for tag, result in (("quantumgame", game), ("vqd", vqd)):
                costs.append(f"  {tag} {noise} seed={seed}: shots_used = {_shots_used(result)}, "
                             f"max_imag_residue = {_largest(result, 'max_imag_residue')!r}, "
                             f"max_residual = {_largest(result, 'residual')!r}, "
                             f"max_parent_overlap = {_largest(result, 'max_parent_overlap')!r}")
            if noise == "noiseless":
                for result in (game, vqd):
                    ok = ok and bool(np.all(np.abs(np.sort(result.eigenvalues) - oracle) <= 2e-2))
    _write_run(out, cfg, rows,
               ["ansatz:"] + ["  " + line for line in spec.describe().splitlines()] + costs)
    return 0 if ok else 1


def cmd_bench_beta_sweep(cfg: RunConfig, out: Path) -> int:
    """Total iterations of the overlap-penalized baseline per penalty weight.

    Each row also gives the shots its players used and the largest squared
    overlap between two returned states: a weight below the gaps can return
    one state several times, which the convergence flag alone does not show.
    """
    h, spec, solvers = cfg.built["operator"], cfg.built["ansatz"], cfg.built["solvers"]
    k, oracle = cfg["num_levels"], cfg.built["levels"]
    rows = []
    for beta in cfg["betas"]:
        for noise, shots in _noise_levels(cfg):
            for seed in cfg["seeds"]:
                result = run_vqd(h, spec, solvers[noise, beta], k, seed=seed)
                max_err = float(np.max(np.abs(np.sort(result.eigenvalues) - oracle)))
                # max_pair_overlap: player j's parents are players 1..j-1, so it covers
                # every pair; a repeated state may round above 1.
                rows.append({
                    "beta": float(beta), "noise": noise, "seed": seed,
                    "total_iterations": result.total_iterations, "max_abs_energy_error": max_err,
                    "all_converged": int(result.all_converged), "shots": shots or "exact",
                    "config_hash": cfg.config_hash, "shots_used": _shots_used(result),
                    "max_pair_overlap": min(_largest(result, "max_parent_overlap"), 1.0)})
    _write_run(out, cfg, rows, ["ansatz:"] + ["  " + line for line in spec.describe().splitlines()])
    return 0


def cmd_diagnostics(cfg: RunConfig, out: Path) -> int:
    """Run every bound-check suite; exit 0 only with zero violations."""
    (seed,) = cfg["seeds"]
    dim = cfg["dim"]
    rows = []
    rows += sampled_lipschitz_check(dim=dim, num_samples=cfg["lipschitz_samples"], seed=seed)
    classical = measure_error_accumulation_classical(dim=dim, epsilons=cfg["epsilons"], seed=seed)
    rows += classical
    rows += measure_error_accumulation_quantum(cfg.built["operator"], cfg.built["ansatz"],
                                               epsilons=cfg["epsilons"], seed=seed)
    _write_run(out, cfg, [
        {"bound": r.bound_name, "parameters": r.parameters, "bound_value": r.bound_value,
         "measured_value": r.measured_value, "status": "pass" if r.passed else "FAIL"}
        for r in rows
    ])
    failures = [r for r in rows if not r.passed]
    for r in failures:
        print(f"BOUND VIOLATION {r.bound_name} [{r.parameters}]: "
              f"measured {r.measured_value} > bound {r.bound_value}", file=sys.stderr)
    # Slope sanity: the measured error must grow linearly in the perturbation.
    if len(set(cfg["epsilons"])) >= 2:
        slope = loglog_slope(classical)
        print(f"error-vs-epsilon log-log slope: {slope:.3f}")
        if not 0.8 <= slope <= 1.2:
            print(f"SLOPE OUT OF BAND: {slope:.3f} not in [0.8, 1.2]", file=sys.stderr)
            return 1
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_COMMANDS = {
    "scaling": ("eigengame_scaling", cmd_bench_scaling),
    "h2": ("h2_levels", cmd_bench_h2),
    "beta-sweep": ("vqd_beta_sweep", cmd_bench_beta_sweep),
    "diagnostics": ("diagnostics", cmd_diagnostics),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigengames-bench",
        description="Run the eigensolver benchmark experiments and emit CSV results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    experiment, runner = _COMMANDS[args.command]
    out = Path(args.out)
    try:
        cfg = load_run_config(experiment, args.config, args.seed)
        out.mkdir(parents=True, exist_ok=True)  # an --out that is a file fails here, before the run
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return runner(cfg, out)
    except EigenGamesError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
