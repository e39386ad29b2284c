"""Benchmark of the eigengames solvers, driven through their public entry points.

Usage:
    python3 perfbench/run.py --workload {classical,h2,wide} --seed N --seconds S --trace {0,1}

One process, one solve at a time, BLAS pinned to one thread. A run repeats
rounds of its workload's fixed solve list, each round with inputs drawn from
the seed. The number of rounds is --seconds over the workload's nominal round
time, so a run lasts about --seconds on the reference machine and every run of
a given length does the same work.

--trace 0 times the solves with nothing instrumented and prints the
end-to-end metrics. --trace 1 runs half as many rounds with every listed
library function wrapped in spans, repeats the same rounds untraced, prints the
per-layer metrics and the tracing overhead, and writes the spans to
perfbench/out/trace-<workload>.jsonl.

Every run checks each solve against the benchmark's own oracle and checks that
the exact counters of round 0 repeat those of earlier runs of the same seed
and code (kept in perfbench/out/). The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The exit code is 0 only when
every check passed.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKLOADS = ("classical", "h2", "wide")
TRACED_SHARE = 0.5  # share of a --trace 0 run's rounds that a --trace 1 run traces
HOST_SAMPLES_PER_SOLVE = 3
# Median of host_reference_seconds() on the reference machine (2 vCPUs, numpy
# 2.4 with OpenBLAS, one BLAS thread).
HOST_REFERENCE_S = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter so imports are paid again."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def code_digest() -> str:
    """Hash of the library and benchmark sources: stored counters are only comparable under it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eigengames").rglob("*")) + sorted(HERE.glob("*.py")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def host_reference_seconds() -> float:
    """Time one pass of a fixed numpy mix that calls no library code.

    The mix resembles the workloads: 2x2 gates on 4 amplitudes (h2), a flip on
    a 256-amplitude register (wide) and 128-vector matvecs (classical). On a
    shared host the same work runs up to 1.5x slower for minutes at a time;
    this pass slows with it, the library's speed does not enter it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    gate = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    small = rng.standard_normal(4) + 0j
    wide = rng.standard_normal(256) + 0j
    mat = rng.standard_normal((128, 128))
    vec = rng.standard_normal(128)
    start = perf_counter()
    for _ in range(200):
        for _ in range(5):
            small = np.einsum("ab,ibj->iaj", gate, small.reshape(1, 2, 2)).reshape(-1)
            small = small / np.linalg.norm(small)
        flipped = np.flip(wide.reshape((2,) * 8), axis=3).reshape(-1)
        wide = 0.5 * (wide + flipped) / float(np.linalg.norm(flipped))
        for _ in range(5):
            vec = mat @ vec
            vec = vec / float(np.linalg.norm(vec))
    return perf_counter() - start


def run_round(wl, solves, round_index, tracer=None, host=None):
    """Run each solve once; time only the library call. Returns (outcomes, per-solve counters).

    With ``host`` given, HOST_SAMPLES_PER_SOLVE host reference times are
    appended to it before each solve, outside the timed section.
    """
    outcomes, counters = [], []
    for solve in solves:
        if host is not None:
            host.extend(host_reference_seconds() for _ in range(HOST_SAMPLES_PER_SOLVE))
        before = wl.operator_digest(solve.operator)
        if tracer is not None:
            tracer.solve_id = f"r{round_index}-{solve.label}"
            first_span, readouts, shots = len(tracer.spans), tracer.readouts, tracer.shots
            record = tracer.start("solve")
        start = perf_counter()
        try:
            result = solve.run()
            error = None
        except Exception:  # a solve that raises counts as failed; the run goes on
            result, error = None, traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.end(record)
        unchanged = wl.operator_digest(solve.operator) == before
        if error is None:
            outcome = wl.summarize(solve, result, seconds, unchanged)
        else:
            outcome = wl.Outcome(solve.label, solve.seed, seconds, 0, [], False, 0, [], unchanged,
                                 reason=f"raised: {error.strip().splitlines()[-1]}")
        del result
        count = {"label": solve.label, "kind": solve.kind, "iterations": outcome.iterations}
        if tracer is not None:
            calls: dict[str, int] = {}
            for span in tracer.spans[first_span + 1:]:
                calls[span[0]] = calls.get(span[0], 0) + 1
            count.update(calls=calls, readouts=tracer.readouts - readouts,
                         shots=tracer.shots - shots)
            if solve.kind == "classical":
                count["restarts"] = calls.get("eigengame_classical.eigengame_player", 0) - outcome.players
        outcomes.append(outcome)
        counters.append(count)
    return outcomes, counters


def run_rounds(wl, workload, seed, count, tracer=None, host=None):
    """Rounds 0..count-1, each as (solves, outcomes, per-solve counters)."""
    rounds = []
    for r in range(count):
        if tracer is not None:
            record = tracer.start("setup")
        solves = wl.build_round(workload, seed, r)
        if tracer is not None:
            tracer.end(record)
        outcomes, counters = run_round(wl, solves, r, tracer, host)
        rounds.append((solves, outcomes, counters))
    return rounds


def compare_counters(path: Path, digest: str, counters: list) -> list[str]:
    """Compare round 0's exact counters with the ones an earlier run of this seed stored."""
    stored = {}
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        data = {}
    if data.get("code") == digest:
        stored = {c["label"]: c for c in data["solves"]}
    problems = []
    merged = []
    for count in counters:
        old = stored.get(count["label"], {})
        for key in set(old) & set(count):
            if old[key] != count[key]:
                problems.append(f"{count['label']}.{key}: {old[key]!r} before, {count[key]!r} now")
        merged.append({**old, **count})
    if not problems:
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps({"code": digest, "solves": merged}, indent=1, sort_keys=True))
        os.replace(partial, path)
    return problems


def geometric_mean(outcomes, field: str) -> float:
    """Geometric mean over every player of the given solves: steadier than any maximum."""
    values = [v for o in outcomes for v in getattr(o, field)]
    if not values or not all(math.isfinite(v) for v in values):
        return math.nan
    return math.exp(sum(math.log(max(v, 1e-300)) for v in values) / len(values))


def solve_summary(outcomes) -> tuple[float, float]:
    seconds = sum(o.seconds for o in outcomes)
    return seconds / len(outcomes), sum(o.iterations for o in outcomes) / seconds


def per_layer_metrics(tracer, traced_rounds, untraced_solve_s, traced_solve_s) -> dict:
    from perf_trace import TRACED

    solves = [count for _, _, counters in traced_rounds for count in counters]
    n = len(solves)
    times = tracer.self_times()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for module, functions in TRACED.items():
        for fn in functions:
            calls, self_s = times.get(f"{module}.{fn}", (0, 0.0))
            put(f"{module}.{fn}.calls", calls / n, "calls/solve")
            put(f"{module}.{fn}.self_s", self_s / n, "s/solve")
    classical_iters = sum(c["iterations"] for c in solves if c["kind"] == "classical")
    quantum_iters = sum(c["iterations"] for c in solves if c["kind"] != "classical")
    restarts = sum(c.get("restarts", 0) for c in solves)
    readouts = sum(c["readouts"] for c in solves)
    shots = sum(c["shots"] for c in solves)
    shot_solves = sum(1 for c in solves if c["kind"] == "budget")
    preps = times.get("quantum_sim.apply_ansatz", (0, 0.0))[0]
    put("eigengame_classical.iterations", classical_iters / n, "iters/solve")
    put("eigengame_classical.restarts", restarts / n, "count/solve")
    put("quantumgame.iterations", quantum_iters / n, "iters/solve")
    put("quantum_sim.readouts", readouts / n, "count/solve")
    put("quantum_sim.shots", shots / n, "shots/solve")
    put("quantum_sim.shots_per_solve", shots / shot_solves if shot_solves else 0.0, "shots")
    put("quantum_sim.state_preps_per_iteration", preps / quantum_iters if quantum_iters else 0.0,
        "preps/iter")
    put("solve.self_s", times.get("solve", (0, 0.0))[1] / n, "s/solve")
    put("setup.self_s", times.get("setup", (0, 0.0))[1] / n, "s/solve")
    put("trace.spans", len(tracer.spans) / n, "spans/solve")
    put("trace.untraced_solve_s", untraced_solve_s, "s")
    put("trace.solve_s", traced_solve_s, "s")
    put("trace.overhead_s", traced_solve_s - untraced_solve_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigengames" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'eigengames'}", file=sys.stderr)
        return 2
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import eigengames
    import perf_workloads as wl

    if Path(eigengames.__file__).resolve().parent != SRC / "eigengames":
        print(f"error: imported eigengames from {eigengames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    digest = code_digest()

    round_count = max(1, int(args.seconds // wl.ROUND_SECONDS[args.workload]))
    if args.trace == 0:
        host = []
        rounds = run_rounds(wl, args.workload, args.seed, round_count, host=host)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_rounds = []
    else:
        from perf_trace import Tracer

        # Traced first, so that it meets the library's module-level caches cold,
        # as a --trace 0 run does; the untraced repeat of the same rounds is the
        # like-for-like base of the tracing overhead.
        round_count = max(1, int(round_count * TRACED_SHARE))
        tracer = Tracer()
        tracer.install()
        try:
            traced_rounds = run_rounds(wl, args.workload, args.seed, round_count, tracer)
        finally:
            tracer.remove()
        rounds = run_rounds(wl, args.workload, args.seed, round_count)

    problems = []
    for (_, untraced, _), (_, traced, _) in zip(rounds, traced_rounds):
        for a, b in zip(untraced, traced):
            if a.iterations != b.iterations:
                problems.append(f"{a.label}.iterations: {a.iterations} untraced, {b.iterations} traced")
    counters = (traced_rounds or rounds)[0][2]
    problems += compare_counters(OUT / f"counters-{args.workload}-seed{args.seed}.json", digest, counters)
    for problem in problems:
        print(f"COUNTER MISMATCH {problem}", file=sys.stderr)

    records = []
    for traced, group in ((False, rounds), (True, traced_rounds)):
        for r, (solves, outcomes, _) in enumerate(group):
            for solve, outcome in zip(solves, outcomes):
                wl.check(solve, outcome)
                records.append({
                    "round": r, "traced": traced, "label": outcome.label, "seed": outcome.seed,
                    "seconds": outcome.seconds, "iterations": outcome.iterations,
                    "angles_rad": outcome.angles, "level_errors": outcome.level_errors,
                    "passed": outcome.passed, "reason": outcome.reason,
                })
                if not outcome.passed:
                    print(f"FAILED round {r}{' (traced)' if traced else ''} {outcome.label} "
                          f"seed={outcome.seed}: {outcome.reason}", file=sys.stderr)

    measured = [o for _, outcomes, _ in rounds for o in outcomes]
    solve_s, iters_per_s = solve_summary(measured)
    attempted = len(measured) + sum(len(outcomes) for _, outcomes, _ in traced_rounds)
    failed = sum(not rec["passed"] for rec in records)
    # Accuracy is read over the solves run to a tolerance; wide has none, so
    # there it is the distance its fixed iteration budget leaves.
    accuracy = [o for solves, outcomes, _ in rounds for s, o in zip(solves, outcomes)
                if s.kind != "budget"] or measured
    raw = {"solve_s": solve_s, "iters_per_s": iters_per_s}
    if args.trace == 0:
        # Solve times are stated at the reference host speed: scaled by the
        # run's median host reference time over its nominal value.
        raw["host_factor"] = statistics.median(host) / HOST_REFERENCE_S
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s / raw["host_factor"], "unit": "s"},
            "iters_per_s": {"value": iters_per_s * raw["host_factor"], "unit": "1/s"},
            "angle_rad": {"value": geometric_mean(accuracy, "angles"), "unit": "rad"},
            "passed_fraction": {"value": sum(o.passed for o in measured) / len(measured), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        traced = [o for _, outcomes, _ in traced_rounds for o in outcomes]
        metrics = per_layer_metrics(tracer, traced_rounds, solve_s, solve_summary(traced)[0])
        metrics["accuracy.level_error"] = {
            "value": geometric_mean(accuracy, "level_errors"), "unit": "energy"}
        tracer.write(OUT / f"trace-{args.workload}.jsonl")

    correct = failed == 0 and not problems
    report = {"environment": env, "code": digest, "rounds": len(rounds), "correct": correct,
              "counter_problems": problems, "metrics": metrics, "unscaled": raw, "solves": records}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float))
    print("# " + json.dumps({**env, "rounds": len(rounds), "solves_timed": len(measured), **raw}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
