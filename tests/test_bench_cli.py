"""Config parsing, experiment commands, CSV contracts, exit codes."""

import csv
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eigengames
from eigengames import bench_cli
from eigengames.bench_cli import (
    build_run_config,
    cmd_bench_beta_sweep,
    cmd_bench_h2,
    cmd_bench_scaling,
    cmd_diagnostics,
    load_run_config,
    main,
    parse_config_text,
)
from eigengames.eigengame_classical import run_sequential
from eigengames.errors import ConfigError
from eigengames.hamiltonian import build_powerlaw_hamiltonian, load_pauli_sum
from eigengames.quantum_sim import NORM_ATOL
from eigengames.quantumgame import run_quantumgame, run_vqd


class TestConfigParsing:
    def test_key_value_lines(self):
        settings = parse_config_text("# comment\nsizes = 8, 16\nexponent = 1.5\n")
        assert settings == {"sizes": [8, 16], "exponent": 1.5}

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("sizes: 8\n")
        assert "line 1" in str(err.value)

    def test_repeated_key_names_both_lines(self):
        # The last line used to win: a file setting seeds twice silently ran the second.
        with pytest.raises(ConfigError, match=r"^line 4: 'seeds' is already set on line 2$"):
            parse_config_text("# seeds\nseeds = 0\nsizes = 8\nseeds = 1\n")

    @pytest.mark.parametrize("experiment, config_hash", [
        ("eigengame_scaling", "4ec28685af69"),
        ("h2_levels", "3b8fe8e8a955"),
        ("vqd_beta_sweep", "bf60f10222a2"),
        ("diagnostics", "de3c9a37f5a7"),
    ])
    def test_default_config_hashes_are_pinned(self, experiment, config_hash):
        # The hash covers every default key and value: a default dropped, added or
        # changed moves it, and every recorded run's provenance with it.
        assert build_run_config(experiment).config_hash == config_hash

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("eigengame_scaling", {"sizesss": [8]})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("eigengame_scaling", {"schema_version": 99})

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("eigengame_scaling", {"sizes": []})

    def test_seed_override(self, tmp_path):
        cfg = load_run_config("eigengame_scaling", None, seed=9)
        assert cfg["seeds"] == [9]

    def test_config_hash_stable(self):
        a = build_run_config("eigengame_scaling", {"sizes": [8]})
        b = build_run_config("eigengame_scaling", {"sizes": [8]})
        assert a.config_hash == b.config_hash
        c = build_run_config("eigengame_scaling", {"sizes": [16]})
        assert c.config_hash != a.config_hash

    def test_missing_pauli_file_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("h2_levels", {"pauli_file": "/does/not/exist.txt"})

    def test_too_many_levels_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("h2_levels", {"num_levels": 5})  # 2-qubit operator

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("h2_levels", {"max_iterations": 0})


class TestScalingCommand:
    def test_small_run_and_reproducibility(self, tmp_path):
        cfg = build_run_config(
            "eigengame_scaling",
            {"sizes": [8], "seeds": [0], "num_players": 4, "grad_tolerance": 1e-3},
        )
        code = cmd_bench_scaling(cfg, tmp_path / "a")
        assert code == 0
        body_a = (tmp_path / "a" / "results.csv").read_bytes()
        cmd_bench_scaling(cfg, tmp_path / "b")
        assert body_a == (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "manifest.txt").exists()

    def test_residual_columns_are_the_players_residuals(self, tmp_path):
        cfg = build_run_config(
            "eigengame_scaling",
            {"sizes": [8], "seeds": [0], "num_players": 4, "grad_tolerance": 1e-3},
        )
        cmd_bench_scaling(cfg, tmp_path)
        header, row = (line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines()[:2])
        row = dict(zip(header, row))
        assert row["mode"] == "exact"
        matrix, (levels, _) = build_powerlaw_hamiltonian(8, seed=0, exponent=cfg["exponent"])
        result = run_sequential(matrix, cfg.built["game"], seed=0, mode="exact")
        residuals = [p.residual for p in result.players]
        gaps = [min(abs(levels[j] - levels[p.index - 1]) for j in range(8) if j != p.index - 1)
                for p in result.players]
        assert float(row["max_residual"]) == max(residuals)
        assert float(row["max_angle_bound"]) == pytest.approx(
            max(r / g for r, g in zip(residuals, gaps)), rel=1e-12)
        # The bound is read from the residual alone; here it sits above the oracle's angle.
        assert float(row["max_angular_error"]) <= float(row["max_angle_bound"])

    def test_angle_bound_above_one_exits_one(self, tmp_path):
        # The former defaults, tolerance 1e-3 and sigma 1e-4: every n = 16 player
        # reports converged, but the worst sits 0.645 rad off its eigenvector,
        # which the residual alone cannot rule out (angle bound 2.93).
        cfg = build_run_config(
            "eigengame_scaling",
            {"sizes": [16], "seeds": [0], "num_players": 8, "grad_tolerance": 1e-3, "sigma": 1e-4},
        )
        assert cmd_bench_scaling(cfg, tmp_path) == 1
        header, *lines = (line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines())
        rows = [dict(zip(header, line)) for line in lines]
        assert [row["converged"] for row in rows] == ["1", "1"]
        assert max(float(row["max_angle_bound"]) for row in rows) > 1.0

    def test_default_sweep_certifies_every_row(self, tmp_path):
        cfg = build_run_config("eigengame_scaling", {})
        assert (cfg["grad_tolerance"], cfg["sigma"]) == (1e-6, 1e-6)
        assert cmd_bench_scaling(cfg, tmp_path) == 0
        header, *lines = (line.split(",") for line in (tmp_path / "results.csv").read_text().splitlines())
        rows = [dict(zip(header, line)) for line in lines]
        assert len(rows) == 50
        assert max(float(row["max_angle_bound"]) for row in rows) <= 1.0

    def test_rows_carry_seed_and_hash(self, tmp_path):
        cfg = build_run_config(
            "eigengame_scaling",
            {"sizes": [8], "seeds": [1, 0], "num_players": 2},
        )
        cmd_bench_scaling(cfg, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 4  # one per (size, mode, seed)
        for line in lines:
            assert line.endswith(cfg.config_hash)


class TestH2Command:
    def test_trajectories_and_oracle_rows(self, tmp_path):
        cfg = build_run_config(
            "h2_levels",
            {"num_levels": 2, "max_iterations": 400, "shots": 500, "seeds": [0]},
        )
        code = cmd_bench_h2(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == ["algorithm", "noise", "seed", "player"]
        oracle_rows = [l for l in lines[1:] if l.startswith("oracle")]
        assert len(oracle_rows) == 2
        for tag in ("quantumgame,noiseless", "quantumgame,shots", "vqd,noiseless", "vqd,shots"):
            assert any(l.startswith(tag) for l in lines[1:])
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "ansatz" in manifest and "layer 0" in manifest
        costs = manifest.split("run costs:\n")[1].splitlines()
        assert len(costs) == 4  # (game, vqd) x (noiseless, shots), one seed
        for line in costs:
            run, _, values = line.strip().partition(": ")
            tag, noise, seed = run.split()
            fields = dict(v.split(" = ") for v in values.split(", "))
            assert list(fields) == ["shots_used", "max_imag_residue", "max_residual",
                                    "max_parent_overlap"]
            used, residue, residual, overlap = map(float, fields.values())
            assert tag in ("quantumgame", "vqd") and seed == "seed=0"
            assert used == 0 if noise == "noiseless" else used > 0
            assert 0.0 <= residue <= NORM_ATOL
            # Two H2 levels, reached in 400 iterations: each returned state is near an
            # eigenstate (energy std about 0.02) and the second near orthogonal to the first.
            assert 0.0 <= residual <= 0.1
            assert 0.0 <= overlap <= 1e-2

    @pytest.mark.parametrize("beta, code", [(None, 0), (0.1, 1)], ids=["default", "beta-0.1"])
    def test_vqd_levels_gate_the_exit_code(self, tmp_path, beta, code):
        # The defaults, on a budget that keeps the test short: the shot
        # players after the first never reach tolerance, so the default
        # budget runs each of them for all 3000 iterations.
        # At beta = 0.1 the overlap penalty is below every gap: each VQD
        # player settles on the ground state and all of them report converged.
        text = "max_iterations = 400\n" + ("" if beta is None else f"beta = {beta}\n")
        cfgfile = tmp_path / "h2.cfg"
        cfgfile.write_text(text)
        assert main(["h2", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == code

    def test_cumulative_iteration_counts_every_row_once(self, tmp_path):
        # A converged player has iterations_used + 1 rows; advancing by
        # iterations_used gave its last row the next player's first index.
        cfg = build_run_config(
            "h2_levels",
            {"num_levels": 3, "max_iterations": 120, "shots": 200, "seeds": [0]},
        )
        cmd_bench_h2(cfg, tmp_path)
        with open(tmp_path / "results.csv", newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["algorithm"] != "oracle"]
        blocks = {}
        for row in rows:
            blocks.setdefault((row["algorithm"], row["noise"], row["seed"]), []).append(row)
        assert len(blocks) == 4
        for block in blocks.values():
            assert [int(row["cumulative_iteration"]) for row in block] == list(range(len(block)))
        # Not vacuous: the first noiseless game player converged, with a later player after it.
        first = [row for row in blocks["quantumgame", "noiseless", "0"] if row["player"] == "1"]
        assert float(first[-1]["grad_norm"]) <= cfg["grad_tolerance"]

    def test_determinism(self, tmp_path):
        cfg = build_run_config(
            "h2_levels",
            {"num_levels": 2, "max_iterations": 120, "shots": 200, "seeds": [3]},
        )
        cmd_bench_h2(cfg, tmp_path / "a")
        cmd_bench_h2(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()


class TestBetaSweepCommand:
    def test_per_beta_rows(self, tmp_path):
        cfg = build_run_config(
            "vqd_beta_sweep",
            {"betas": [0.5, 5.0], "num_levels": 2, "max_iterations": 250, "shots": 200},
        )
        code = cmd_bench_beta_sweep(cfg, tmp_path)
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0].startswith("beta,noise,seed,total_iterations")
        assert lines[0].endswith(",shots_used,max_pair_overlap")
        betas = sorted({float(l.split(",")[0]) for l in lines[1:]})
        assert betas == [0.5, 5.0]
        assert len(lines) - 1 == 4  # two betas x (noiseless, shots)
        for line in lines[1:]:
            fields = line.split(",")
            shots_used, overlap = int(fields[-2]), float(fields[-1])
            assert shots_used == 0 if fields[1] == "noiseless" else shots_used > 0
            assert 0.0 <= overlap <= 1.0


    def test_overlap_column_covers_every_pair_of_returned_states(self, tmp_path):
        # beta = 0.1 is below the gaps: noiseless VQD (k = 4, seed 0) returns one state twice.
        cfg = build_run_config("vqd_beta_sweep", {"betas": [0.1], "seeds": [0]})
        cmd_bench_beta_sweep(cfg, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        overlap = next(float(l.split(",")[-1]) for l in lines[1:] if l.split(",")[1] == "noiseless")
        h, spec = cfg.built["operator"], cfg.built["ansatz"]
        result = run_vqd(h, spec, cfg.built["solvers"]["noiseless", 0.1], cfg["num_levels"], seed=0)
        states = np.array([p.vector for p in result.players])
        gram = np.abs(states.conj() @ states.T) ** 2
        assert overlap >= 0.99
        assert abs(overlap - max(p.max_parent_overlap for p in result.players)) <= 1e-12
        assert abs(overlap - gram[np.triu_indices(len(states), 1)].max()) <= 1e-12


def stopped_early(result):
    """``result`` as a run whose sequence stopped at an unusable parent after its players (``run_players``)."""
    return replace(result, all_converged=False, stop_reason="player k stopped the sequence: unusable parent")


class TestStoppedSequence:
    """A run whose sequence stopped early returns fewer than k players; each command gates it as not
    converged, without raising on the missing levels."""

    def test_scaling(self, tmp_path, monkeypatch):
        def one_short(m, cfg, seed, mode):
            return stopped_early(run_sequential(m, replace(cfg, num_players=cfg.num_players - 1), seed, mode))

        cfg = build_run_config(
            "eigengame_scaling", {"sizes": [8], "seeds": [0], "num_players": 4, "grad_tolerance": 1e-3})
        assert cmd_bench_scaling(cfg, tmp_path / "full") == 0
        monkeypatch.setattr(bench_cli, "run_sequential", one_short)
        assert cmd_bench_scaling(cfg, tmp_path / "stopped") == 1
        with open(tmp_path / "stopped" / "results.csv", newline="") as handle:
            assert [row["converged"] for row in csv.DictReader(handle)] == ["0", "0"]

    @pytest.mark.parametrize("name, runner", [("run_quantumgame", run_quantumgame), ("run_vqd", run_vqd)],
                             ids=["game", "vqd"])
    def test_h2(self, tmp_path, monkeypatch, name, runner):
        def one_short(h, spec, cfg, k, seed):
            return stopped_early(runner(h, spec, cfg, k - 1, seed=seed))

        cfg = build_run_config("h2_levels", {"num_levels": 3, "max_iterations": 400, "shots": 200, "seeds": [0]})
        monkeypatch.setattr(bench_cli, name, one_short)
        assert cmd_bench_h2(cfg, tmp_path) == 1
        with open(tmp_path / "results.csv", newline="") as handle:
            players = {row["player"] for row in csv.DictReader(handle)
                       if row["algorithm"] == ("quantumgame" if runner is run_quantumgame else "vqd")}
        assert players == {"1", "2"}

    def test_beta_sweep(self, tmp_path, monkeypatch):
        def one_short(h, spec, cfg, k, seed):
            return stopped_early(run_vqd(h, spec, cfg, k - 1, seed=seed))

        cfg = build_run_config("vqd_beta_sweep", {"betas": [5.0], "num_levels": 3, "max_iterations": 100,
                                                  "shots": 200, "seeds": [0]})
        monkeypatch.setattr(bench_cli, "run_vqd", one_short)
        assert cmd_bench_beta_sweep(cfg, tmp_path) == 0
        with open(tmp_path / "results.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["all_converged"] for row in rows] == ["0", "0"]
        oracle = cfg.built["levels"]
        for row in rows:
            solver = cfg.built["solvers"][row["noise"], 5.0]
            levels = np.sort(run_vqd(cfg.built["operator"], cfg.built["ansatz"], solver, 2, seed=0).eigenvalues)
            assert float(row["max_abs_energy_error"]) == float(np.max(np.abs(levels - oracle[:2])))


class TestDiagnosticsCommand:
    def test_smoke_mode_passes_quickly(self, tmp_path):
        import time

        cfg = build_run_config("diagnostics", {"lipschitz_samples": 10})
        start = time.time()
        code = cmd_diagnostics(cfg, tmp_path)
        assert code == 0
        assert time.time() - start < 10.0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "bound,parameters,bound_value,measured_value,status"
        assert all(line.endswith("pass") for line in lines[1:])

    def test_default_config_passes_every_bound(self, tmp_path):
        code = cmd_diagnostics(build_run_config("diagnostics"), tmp_path)
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1000 + 3 * 20 + 3 * 5
        assert all(row.endswith(",pass") for row in rows)


class TestOutputPath:
    """Every command's columns, and the one writer's check on them."""

    @pytest.mark.parametrize("runner, experiment, overrides, header", [
        (cmd_bench_scaling, "eigengame_scaling",
         {"sizes": [8], "seeds": [0], "num_players": 4, "grad_tolerance": 1e-3},
         ["n", "mode", "seed", "total_iterations", "max_angular_error", "max_residual",
          "max_angle_bound", "converged", "config_hash"]),
        (cmd_bench_h2, "h2_levels",
         {"num_levels": 2, "max_iterations": 120, "shots": 200, "seeds": [3]},
         ["algorithm", "noise", "seed", "player", "iteration", "cumulative_iteration",
          "energy", "utility", "grad_norm", "shots", "config_hash"]),
        (cmd_bench_beta_sweep, "vqd_beta_sweep",
         {"betas": [5.0], "num_levels": 2, "max_iterations": 50, "shots": 200},
         ["beta", "noise", "seed", "total_iterations", "max_abs_energy_error",
          "all_converged", "shots", "config_hash", "shots_used", "max_pair_overlap"]),
        (cmd_diagnostics, "diagnostics", {"lipschitz_samples": 10},
         ["bound", "parameters", "bound_value", "measured_value", "status"]),
    ], ids=["scaling", "h2", "beta-sweep", "diagnostics"])
    def test_every_command_pins_its_header(self, tmp_path, runner, experiment, overrides, header):
        runner(build_run_config(experiment, overrides), tmp_path)
        with open(tmp_path / "results.csv", newline="") as handle:
            first, *rows = csv.reader(handle)
        assert first == header
        assert rows and all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("row, keys", [
        ({"a": 3, "c": 4}, "['a', 'c']"),
        ({"b": 4, "a": 3}, "['b', 'a']"),
    ], ids=["renamed", "reordered"])
    def test_writer_rejects_a_row_whose_columns_drift(self, tmp_path, row, keys):
        # h2 writes oracle rows and trajectory rows into one CSV: a column placed
        # differently in one of them would mislabel its values, so the run fails.
        cfg = build_run_config("diagnostics", {"lipschitz_samples": 10})
        rows = [{"a": 1, "b": 2}, {"a": 2, "b": 3}, row]
        message = f"row 2 has columns {keys}, the first row has ['a', 'b']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bench_cli._write_run(tmp_path / "out", cfg, rows)
        assert not (tmp_path / "out" / "results.csv").exists()
        assert not (tmp_path / "out" / "manifest.txt").exists()


class TestMainCli:
    def test_bad_config_file_gives_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sizes = \n")
        code = main(["scaling", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_for_wrong_experiment_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "h2.cfg"
        cfgfile.write_text("experiment = h2_levels\n")
        code = main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_scaling_end_to_end(self, tmp_path):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text("sizes = 8\nseeds = 0\nnum_players = 2\n")
        code = main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_diagnostics_smoke_end_to_end(self, tmp_path):
        cfgfile = tmp_path / "diag.cfg"
        cfgfile.write_text("lipschitz_samples = 10\n")
        code = main(["diagnostics", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("command, text", [
        ("scaling", "sizes = 8\nnum_players = 2\nmax_iterations = 0\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\ngrad_tolerance = 0\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\nbeta = -1\n"),
        ("beta-sweep", "num_levels = 2\nmax_iterations = 5\nbetas = 0.5, -1\n"),
        ("diagnostics", "lipschitz_samples = 0\n"),
        ("diagnostics", "epsilons = \n"),
        ("diagnostics", "seeds = 0, 1, 2\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\nseeds = -1\n"),
        ("scaling", "sizes = 8\nnum_players = 2\nseeds = 0, -1\n"),
        ("scaling", "sizes = 1\nnum_players = 1\n"),
        # Settings only a library constructor checks: random_layers_ansatz, AnsatzSpec, the Pauli-file parser.
        ("h2", "num_levels = 2\nmax_iterations = 5\nansatz_seed = -1\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\nlayers = 0\n"),
        ("beta-sweep", "num_levels = 2\nmax_iterations = 5\nrotations_per_layer = 0\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\ninitial_state = foo\n"),
        ("beta-sweep", "num_levels = 2\nmax_iterations = 5\npauli_file = {tmp}/bad_pauli.txt\n"),
    ])
    def test_out_of_range_solver_settings_give_exit_two(self, tmp_path, capsys, command, text):
        (tmp_path / "bad_pauli.txt").write_text("1.0 ZZ\n0.5 ZQ\n")
        cfgfile = tmp_path / "range.cfg"
        cfgfile.write_text(text.format(tmp=tmp_path))
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("scaling", "sizes = 8\nnum_players = 2\ngrad_tolerance = nan\n"),
        ("scaling", "sizes = 8\nnum_players = 2\nsigma = inf\n"),
        ("scaling", "sizes = 8\nnum_players = 2\nexponent = nan\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\ngrad_tolerance = nan\n"),
        ("h2", "num_levels = 2\nmax_iterations = 5\nbeta = inf\n"),
        ("diagnostics", "epsilons = 1e-3, nan\n"),
        # Each used to end in a traceback or exit 1 once the run had started.
        ("scaling", "sizes = 8\nnum_players = 2\nexponent = inf\n"),
        ("diagnostics", "epsilons = 1e-3, inf\n"),
    ])
    def test_non_finite_settings_give_exit_two(self, tmp_path, capsys, command, text):
        # NaN passed every ``x <= 0`` test: a NaN tolerance ran each player's whole budget.
        cfgfile = tmp_path / "range.cfg"
        cfgfile.write_text(text)
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["h2", "beta-sweep"])
    def test_negative_ansatz_seed_is_named(self, tmp_path, capsys, command):
        # numpy's own message, "expected non-negative integer", did not say which setting was wrong.
        cfgfile = tmp_path / "seed.cfg"
        cfgfile.write_text("ansatz_seed = -1\n")
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error: seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err

    def test_run_parses_its_pauli_file_once(self, tmp_path, monkeypatch):
        # The config build loads the operator; the command reads it from the RunConfig.
        paths = []

        def counting_load(path):
            paths.append(path)
            return load_pauli_sum(path)

        monkeypatch.setattr(bench_cli, "load_pauli_sum", counting_load)
        cfgfile = tmp_path / "short.cfg"
        for command, text in (("h2", ""), ("beta-sweep", "betas = 0.5\n")):
            paths.clear()
            cfgfile.write_text("num_levels = 2\nmax_iterations = 5\nshots = 100\n" + text)
            assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / command)]) in (0, 1)
            assert len(paths) == 1, command

    def test_module_entry_point_runs_without_runpy_warning(self):
        # The package must not import bench_cli itself, or running it with
        # -m finds the module already in sys.modules and warns.
        src = str(Path(eigengames.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "eigengames.bench_cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestMainPathErrors:
    """Unusable --config and --out paths are configuration errors: exit 2, no traceback."""

    def test_config_is_a_directory(self, tmp_path, capsys):
        code = main(["scaling", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_is_not_utf8(self, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes(b"# r\xe9sum\xe9\nsizes = 8\n")
        code = main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_out_is_or_is_below_an_existing_file(self, tmp_path, capsys, out):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text("sizes = 8\nseeds = 0\nnum_players = 2\n")
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        code = main(["scaling", "--config", str(cfgfile), "--out", str(tmp_path / out)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"
