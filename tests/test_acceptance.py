"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from eigengames.bench_cli import build_run_config, cmd_bench_beta_sweep, cmd_bench_scaling
from eigengames.eigengame_classical import (
    GameConfig,
    angular_error,
    exact_gradient,
    finite_diff_gradient,
    run_sequential,
)
from eigengames.hamiltonian import (
    build_powerlaw_hamiltonian,
    bundled_h2_path,
    exact_eigendecomposition,
    load_pauli_sum,
    pauli_sum_to_matrix,
)
from eigengames.quantum_sim import (
    ShotModel,
    apply_ansatz,
    random_layers_ansatz,
    sweep_reads,
)
from eigengames.quantumgame import (
    SolverConfig,
    run_quantumgame,
    run_vqd,
    vqd_player,
)
from eigengames.theory_diagnostics import (
    loglog_slope,
    measure_error_accumulation_classical,
    measure_error_accumulation_quantum,
    sampled_lipschitz_check,
)

from oracles import (
    hotelling_levels,
    mixed_expectation_states,
    numeric_forward_difference,
    parameter_shift_gradient,
    quantum_utility,
    state_energy,
    swap_test_overlap,
)

H2 = load_pauli_sum(bundled_h2_path())
H2_SPECTRUM = exact_eigendecomposition(pauli_sum_to_matrix(H2))
H2_LEVELS = np.sort(H2_SPECTRUM.eigenvalues)
ANSATZ = random_layers_ansatz(2, 3, 3, seed=11)


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def random_symmetric_problem(rng):
    dim = int(rng.integers(2, 17))
    a = rng.standard_normal((dim, dim))
    m = 0.5 * (a + a.T)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    num_parents = int(rng.integers(0, min(3, dim - 1) + 1))
    parents = []
    for _ in range(num_parents):
        p = rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        if abs(p @ (m @ p)) > 1e-3:
            parents.append(p)
    return m, v, parents


def test_criterion_1_gradient_algebra():
    """Closed-form zeroth-order gradient == literal forward quotient, 1000 draws."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_rel, worst_exact = 0.0, 0.0
    for _ in range(1000):
        m, v, parents = random_symmetric_problem(rng)
        sigma = float(rng.choice([1e-1, 1e-2, 1e-3]))
        closed = finite_diff_gradient(v, parents, m, sigma)
        numeric = numeric_forward_difference(v, parents, m, sigma)
        worst_rel = max(
            worst_rel,
            float(np.linalg.norm(numeric - closed)) / max(1.0, float(np.linalg.norm(closed))),
        )
        gap = np.linalg.norm(finite_diff_gradient(v, parents, m, 0.0) - exact_gradient(v, parents, m))
        worst_exact = max(worst_exact, float(gap))
    elapsed = time.time() - start
    report(
        1,
        worst_rel <= 1e-8 and worst_exact <= 1e-12 and elapsed < 10.0,
        f"worst relative quotient error {worst_rel:.2e} (<=1e-8), "
        f"sigma=0 reduction {worst_exact:.2e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_classical_multicomponent_recovery():
    """Both gradient modes recover the 8 leading components on power-law instances."""
    start = time.time()
    worst_angle = 0.0
    worst_grad = 0.0
    for dim in (8, 16, 32, 64):
        for seed in range(5):
            matrix, spectrum = build_powerlaw_hamiltonian(dim, seed=seed, exponent=2.0)
            for mode in ("exact", "zeroth_order"):
                cfg = GameConfig(
                    sigma=1e-6, grad_tolerance=1e-6,
                    max_iterations_per_player=200_000, num_players=8,
                )
                result = run_sequential(matrix, cfg, seed=seed, mode=mode)
                assert result.all_converged, f"dim={dim} seed={seed} mode={mode} did not converge"
                for player in result.players:
                    worst_grad = max(worst_grad, player.final_riemannian_norm)
                    worst_angle = max(
                        worst_angle,
                        angular_error(player.vector, spectrum.eigenvector(player.index - 1).real),
                    )
    elapsed = time.time() - start
    report(
        2,
        worst_grad <= 1e-3 and worst_angle <= 1e-2 and elapsed < 120.0,
        f"worst gradient norm {worst_grad:.2e} (<=1e-3), worst angle "
        f"{worst_angle:.2e} rad (<=1e-2), {elapsed:.0f}s (<2min)",
    )


def test_criterion_3_scaling_trend(tmp_path):
    """Exact and zeroth-order iteration counts track each other and grow with size."""
    start = time.time()
    cfg = build_run_config("eigengame_scaling")
    code = cmd_bench_scaling(cfg, tmp_path)
    assert code == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
    ]
    iters: dict = {}
    for n, mode, seed, total, *_ in rows:
        iters[(int(n), mode, int(seed))] = int(total)
    sizes = sorted({int(r[0]) for r in rows})
    ratio_ok = True
    for n in sizes:
        for seed in range(5):
            ratio = iters[(n, "exact", seed)] / iters[(n, "zeroth_order", seed)]
            ratio_ok = ratio_ok and (1.0 / 3.0 <= ratio <= 3.0)
    medians = {
        mode: [np.median([iters[(n, mode, s)] for s in range(5)]) for n in sizes]
        for mode in ("exact", "zeroth_order")
    }
    monotone = all(
        medians[mode][i] <= medians[mode][i + 1]
        for mode in medians
        for i in range(len(sizes) - 1)
    )
    elapsed = time.time() - start
    report(
        3,
        ratio_ok and monotone and elapsed < 600.0,
        f"iteration ratios within [1/3, 3] at sizes {sizes}, medians "
        f"{[int(x) for x in medians['exact']]} / {[int(x) for x in medians['zeroth_order']]} "
        f"both non-decreasing, {elapsed:.0f}s (<10min)",
    )


def test_criterion_4_quantum_excited_states():
    """Noiseless game recovers all four levels; 10k-shot energies sit in the noise band."""
    start = time.time()
    noiseless_cfg = SolverConfig(direction="minimize", grad_tolerance=1e-2, max_iterations=3000)
    noiseless = run_quantumgame(H2, ANSATZ, noiseless_cfg, 4, seed=0)
    assert noiseless.all_converged
    noiseless_err = float(np.max(np.abs(np.sort(noiseless.eigenvalues) - H2_LEVELS)))

    noisy_cfg = SolverConfig(
        direction="minimize", grad_tolerance=1e-2, max_iterations=400,
        shots=ShotModel(10_000, rng_seed=50),
    )
    noisy = run_quantumgame(H2, ANSATZ, noisy_cfg, 4, seed=0)
    order = np.argsort(noisy.eigenvalues)
    band_ok = True
    details = []
    for rank, idx in enumerate(order):
        rows = apply_ansatz(ANSATZ, noisy.players[idx].theta.values[None, :])
        (_, var, _, _), _, _ = sweep_reads(H2, rows, None)
        band = 10.0 * np.sqrt(var[0] / 10_000)
        err = abs(noisy.eigenvalues[idx] - H2_LEVELS[rank])
        band_ok = band_ok and err <= band
        details.append(f"{err:.1e}<={band:.1e}")
    elapsed = time.time() - start
    report(
        4,
        noiseless_err <= 2e-2 and band_ok and elapsed < 300.0,
        f"noiseless max level error {noiseless_err:.2e} (<=2e-2), shot errors within "
        f"10*sqrt(Var/N) bands [{'; '.join(details)}], {elapsed:.0f}s (<5min)",
    )


def test_criterion_5_baseline_parity(tmp_path):
    """VQD and dense Hotelling deflation (``hotelling_levels``) agree with the oracle levels."""
    start = time.time()
    vqd_cfg = SolverConfig(
        direction="minimize", grad_tolerance=1e-2, max_iterations=4000, beta=5.0,
    )
    vqd = run_vqd(H2, ANSATZ, vqd_cfg, 4, seed=0)
    vqd_err = float(np.max(np.abs(np.sort(vqd.eigenvalues) - H2_LEVELS)))

    # Hotelling deflation needs a non-negative spectrum for its maximizer chain,
    # so the baseline runs on a shifted copy and shifts the levels back.
    dense = pauli_sum_to_matrix(H2)
    shift = H2.one_norm + 1.0
    shifted = dense.entries + shift * np.eye(dense.dim)
    deflation_levels = np.sort([lam - shift for lam in hotelling_levels(shifted, 4)])
    deflation_err = float(np.max(np.abs(deflation_levels - H2_LEVELS)))

    sweep_cfg = build_run_config(
        "vqd_beta_sweep",
        {"betas": [0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0], "max_iterations": 800},
    )
    code = cmd_bench_beta_sweep(sweep_cfg, tmp_path)
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    betas_seen = sorted({float(l.split(",")[0]) for l in lines[1:]})
    sweep_ok = code == 0 and betas_seen == [0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    elapsed = time.time() - start
    report(
        5,
        vqd_err <= 5e-2 and deflation_err <= 1e-6 and sweep_ok and elapsed < 600.0,
        f"beta=5 baseline error {vqd_err:.2e} (<=5e-2), deflation error "
        f"{deflation_err:.2e} (<=1e-6), beta sweep emitted counts for {betas_seen}, "
        f"{elapsed:.0f}s (<10min)",
    )


def test_criterion_6_circuit_equivalence():
    """Interference and SwapTest circuits match dense linear algebra on 1000 pairs."""
    start = time.time()
    dense = pauli_sum_to_matrix(H2).entries
    rng = np.random.default_rng(7)
    worst_mixed, worst_swap = 0.0, 0.0
    for _ in range(1000):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        direct = complex(np.vdot(a, dense @ b))
        worst_mixed = max(worst_mixed, abs(mixed_expectation_states(H2, a, b) - direct))
        worst_swap = max(worst_swap, abs(swap_test_overlap(a, b) - abs(np.vdot(a, b)) ** 2))
    elapsed = time.time() - start
    report(
        6,
        worst_mixed <= 1e-10 and worst_swap <= 1e-10 and elapsed < 10.0,
        f"worst interference deviation {worst_mixed:.2e}, worst SwapTest deviation "
        f"{worst_swap:.2e} (both <=1e-10), {elapsed:.1f}s (<10s)",
    )


def test_criterion_7_parameter_shift_correctness():
    """Shift-rule gradients match central differences on random 2-3 qubit ansatzes."""
    start = time.time()

    def central(f, theta, step=1e-5):
        g = np.empty_like(theta)
        for k in range(theta.shape[0]):
            p, m = theta.copy(), theta.copy()
            p[k] += step
            m[k] -= step
            g[k] = (f(p) - f(m)) / (2.0 * step)
        return g

    rng = np.random.default_rng(3)
    shots = ShotModel()
    worst = 0.0

    specs = [random_layers_ansatz(2, 3, 3, seed=5), random_layers_ansatz(3, 2, 4, seed=6)]
    z_ops = [H2, pauli_sum_from_strings(3)]
    for spec, op in zip(specs, z_ops):
        def plain(theta, spec=spec, op=op):
            return state_energy(op, apply_ansatz(spec, theta).amplitudes)

        for _ in range(4):
            theta = rng.uniform(-np.pi, np.pi, spec.num_parameters)
            worst = max(worst, float(np.max(np.abs(
                parameter_shift_gradient(plain, theta) - central(plain, theta)))))

    # Full player utility with one frozen parent.
    theta_parent = ANSATZ.bind(rng.uniform(-np.pi, np.pi, 9))
    parent_state = apply_ansatz(ANSATZ, theta_parent).amplitudes
    parent = [parent_state], [state_energy(H2, parent_state)]

    def utility(theta):
        return quantum_utility(H2, ANSATZ, ANSATZ.bind(theta), *parent, shots)

    for _ in range(4):
        theta = rng.uniform(-np.pi, np.pi, 9)
        worst = max(worst, float(np.max(np.abs(
            parameter_shift_gradient(utility, theta) - central(utility, theta)))))
    elapsed = time.time() - start
    report(
        7,
        worst <= 1e-6 and elapsed < 30.0,
        f"worst per-component deviation {worst:.2e} (<=1e-6), {elapsed:.1f}s (<30s)",
    )


def pauli_sum_from_strings(q):
    from eigengames.hamiltonian import PauliSum

    return PauliSum(q, ((0.7, "Z" + "I" * (q - 1)), (0.4, "X" * q), (-0.3, "I" * (q - 1) + "Z")))


def test_criterion_8_theory_bounds():
    """Zero violations of the Lipschitz and error-accumulation bounds; O(eps) slope."""
    start = time.time()
    lipschitz_rows = sampled_lipschitz_check(dim=8, num_samples=1000, seed=0)
    lipschitz_ok = all(r.passed for r in lipschitz_rows) and len(lipschitz_rows) == 1000

    classical_rows = measure_error_accumulation_classical(
        dim=8, epsilons=(1e-4, 1e-3, 1e-2), seed=0, samples_per_epsilon=20
    )
    classical_ok = all(r.passed for r in classical_rows)
    slope = loglog_slope(classical_rows)

    quantum_rows = measure_error_accumulation_quantum(
        H2, ANSATZ, epsilons=(1e-3,), seed=0, samples_per_epsilon=5
    )
    quantum_ok = all(r.passed for r in quantum_rows) and quantum_rows
    elapsed = time.time() - start
    report(
        8,
        lipschitz_ok and classical_ok and bool(quantum_ok) and 0.8 <= slope <= 1.2
        and elapsed < 120.0,
        f"lipschitz 1000/1000 pass, error bounds {len(classical_rows)}+{len(quantum_rows)} pass, "
        f"log-log slope {slope:.3f} in [0.8, 1.2], {elapsed:.0f}s (<2min)",
    )


def test_criterion_9_no_deflation_invariant():
    """The game never rewrites its operator: no run deflates it, noiseless or at finite shots."""
    runs = []
    for shots, seed in ((None, 0), (10_000, 1)):
        cfg = SolverConfig(
            direction="minimize", grad_tolerance=1e-2, max_iterations=150,
            shots=ShotModel(shots, rng_seed=seed),
        )
        runs.append(run_quantumgame(H2, ANSATZ, cfg, 3, seed=seed))
    same = all(r.operator_hash_before == r.operator_hash_after for r in runs)
    report(
        9,
        same,
        f"operator hash identical before/after across {len(runs)} runs "
        f"({runs[0].operator_hash_before[:12]}...)",
    )


def test_criterion_10_determinism(tmp_path):
    """Fixed seeds reproduce byte-identical result CSVs."""
    cfg = build_run_config(
        "eigengame_scaling", {"sizes": [8, 16], "seeds": [0, 1], "num_players": 4}
    )
    cmd_bench_scaling(cfg, tmp_path / "a")
    cmd_bench_scaling(cfg, tmp_path / "b")
    scaling_same = (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()

    sweep_cfg = build_run_config(
        "vqd_beta_sweep", {"betas": [0.5], "num_levels": 2, "max_iterations": 150, "shots": 300}
    )
    cmd_bench_beta_sweep(sweep_cfg, tmp_path / "c")
    cmd_bench_beta_sweep(sweep_cfg, tmp_path / "d")
    sweep_same = (tmp_path / "c" / "results.csv").read_bytes() == (
        tmp_path / "d" / "results.csv"
    ).read_bytes()
    report(
        10,
        scaling_same and sweep_same,
        "repeated runs produced byte-identical results.csv for scaling and beta-sweep",
    )
