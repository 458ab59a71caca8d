"""leslie-sim benchmark: one workload, closed loop, one process, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory.  A job (one ``leslie-sim`` subcommand's
calls plus the checks on its outputs) starts only after the previous one
finished, for S seconds.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` checks, and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it say the same for a reader, with the
thread count, the array sizes and ``dt / stable_dt_bound``.  See NOTES.md.
"""

import os

# before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")

#: Extra processes that only do the set-up, so setup_s is a median.
SETUP_PROBES = 4
#: Jobs run even when they take longer than --seconds (at least two traced).
MIN_JOBS = 4
#: Seed of the job whose outputs are compared with reference.json.
REFERENCE_SEED = 0
#: Relative tolerance of that comparison.
REFERENCE_RTOL = 1e-8

END_TO_END = (
    ("setup_s", "s"),
    ("cell_steps_per_s", "cell-steps/s"),
    ("peak_rss_mb", "MiB"),
)

_LAYER_CALLS_AND_SELF = (
    "dynamics.run", "dynamics.step", "dynamics.solve_director_implicit",
    "tensor.ElasticTensor.apply", "grid.gradient_vec", "grid.divergence_tensor",
    "grid.divergence_vec", "grid.advect", "energetics.free_energy",
    "energetics.variational_derivative", "energetics.dissipation_channels",
    "snapshot.write_snapshot",
)
_LAYER_SELF = (
    "dynamics.solve_helmholtz", "dynamics.project_divfree", "dynamics.leslie_stress",
    "dynamics.ericksen_force", "energetics.relative_energy",
    "energetics.relative_dissipation", "energetics.gronwall_K",
    "experiments.energy_monitor", "experiments.weak_strong_experiment",
    "snapshot.write_trace_csv",
)
#: Measured once, on the traced set-up.
_SETUP_SELF = (
    "config.parse_config", "tensor.ElasticTensor.from_entries", "initial.make_initial_state",
)
_PER_STEP = (
    "grid.gradient_vec", "grid.laplacian_lambda", "energetics.free_energy", "dynamics.fft",
)

PER_LAYER = (
    tuple((f"{n}.{m}", "count" if m == "calls" else "s")
          for n in _LAYER_CALLS_AND_SELF for m in ("calls", "self_s"))
    + tuple((f"{n}.self_s", "s") for n in _LAYER_SELF + _SETUP_SELF)
    + (
        ("grid.laplacian_lambda.calls", "count"),
        ("dynamics.fft.calls", "count"),
        ("dynamics.fft.bytes_computed", "B"),
        ("snapshot.write_snapshot.bytes", "B"),
        ("experiments.useful_run_ratio", "ratio"),
        ("trace.overhead_s", "s"),
    )
    + tuple((f"{n}.calls_per_step", "count/step") for n in _PER_STEP)
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def _cache_sizes() -> str:
    sizes = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes.append(f"L{level} {size}")
    return ", ".join(sizes) or "cache sizes unknown"


def _import_workloads():
    if not os.path.isdir(os.path.join(SRC, "leslie_sim")):
        sys.exit(f"error: no leslie_sim package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import leslie_sim  # noqa: F401  (import cost is part of the set-up)
    import workloads

    if not os.path.abspath(leslie_sim.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: leslie_sim imported from {leslie_sim.__file__}, not {SRC}")
    return workloads


def _probe_setup(args) -> None:
    """Child mode: do the set-up once and print its duration."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[args.workload].setup(args.seed)
    print(repr(time.perf_counter() - t0))


def _run_probes(args) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _run_job(wl, cfg, state, workdir, results, failures):
    """One closed-loop job; returns its wall time, or None if it raised."""
    t = time.perf_counter()
    try:
        res = wl.job(cfg, state, workdir)
    except Exception:  # a failed job is a failed check, not a crashed benchmark
        failures.append(traceback.format_exc())
        return None
    wall = time.perf_counter() - t
    results.append(res)
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _probe_setup(args)
        return 0
    traced = bool(args.trace)
    setups = [] if traced else _run_probes(args)

    # --- set-up: from before `import leslie_sim` to the first timed call ---
    t0 = time.perf_counter()
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    import numpy as np
    from leslie_sim import dynamics

    if traced:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            cfg, state = wl.setup(args.seed)
    else:
        cfg, state = wl.setup(args.seed)
    setups.append(time.perf_counter() - t0)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    results, failures = [], []
    walls = {False: [], True: []}  # traced? -> job wall times
    try:
        # --- timed part: closed loop; traced runs alternate untraced/traced jobs ---
        start = time.perf_counter()
        while not failures:
            job_traced = traced and len(results) % 2 == 1
            if job_traced:
                tracer.run_id = f"job{len(results)}"
                with tracer:
                    wall = _run_job(wl, cfg, state, workdir, results, failures)
            else:
                wall = _run_job(wl, cfg, state, workdir, results, failures)
            if wall is not None:
                walls[job_traced].append(wall)
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls[False] + walls[True] or [0.0])
            enough = len(results) >= MIN_JOBS
            if enough and elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # --- verification outside the timed part ---
        ref_cfg, ref_state = wl.setup(REFERENCE_SEED)
        golden = []
        _run_job(wl, ref_cfg, ref_state, workdir, golden, failures)
        dt_ratio = cfg.stepper.dt / dynamics.stable_dt_bound(
            cfg.grid, cfg.elastic, cfg.params, cfg.stepper.theta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for r in results + golden for c in r.checks]
    digests = {r.digest for r in results}
    checks.append(("jobs bitwise equal" + (" traced and untraced" if traced else ""),
                   len(digests) == 1))
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        stored = json.load(fh)[wl.name]
    for r in golden:
        for key, want in stored.items():
            got = r.reference.get(key, math.nan)
            checks.append((f"reference {key} (seed {REFERENCE_SEED})",
                           math.isclose(got, want, rel_tol=REFERENCE_RTOL)))
    attempted = len(checks) + len(failures)
    failed = sum(1 for _, ok in checks if not ok) + len(failures)
    for label, ok in checks:
        if not ok:
            print(f"FAILED CHECK: {label}", file=sys.stderr)
    for tb in failures:
        print(f"FAILED JOB:\n{tb}", file=sys.stderr)

    jobs = walls[False] + walls[True]
    job_med = statistics.median(jobs) if jobs else math.nan
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {len(jobs)} jobs "
          f"of {wl.work} requested cell-steps; job wall median {job_med:.4f} s "
          f"(min {min(jobs, default=math.nan):.4f}, max {max(jobs, default=math.nan):.4f})")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} failed of "
          f"{attempted} checks attempted)")
    print(f"dt / stable_dt_bound = {dt_ratio:.4f} (information; dt was set from measured "
          f"runs because the bound is not sufficient)")
    print(f"threads: nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}, "
          f"process threads {_thread_count()}, OMP/OPENBLAS/MKL_NUM_THREADS=1, "
          f"numpy {np.__version__}")
    print(f"largest array (computed): per-mode 3x3 complex director matrices, "
          f"{wl.cells * 9 * 16 / 2**20:.3f} MiB; {_cache_sizes()}")

    if traced:
        metrics = _layer_metrics(wl, tracer, walls)
        spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "cell_steps_per_s": statistics.median(wl.work / w for w in jobs) if jobs else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(wl, tracer, walls) -> dict:
    per_run = tracer.per_run()
    setup = per_run.get("setup", {})
    jobs = [v for k, v in per_run.items() if k != "setup"]

    def med(key):
        return statistics.median(j.get(key, 0.0) for j in jobs) if jobs else 0.0

    values = {}
    for name, unit in PER_LAYER:
        if name.rsplit(".", 1)[0] in _SETUP_SELF:
            values[name] = setup.get(name, 0.0)
        elif name.endswith(".calls_per_step"):
            steps = med("dynamics.step.calls")
            values[name] = med(name.replace("_per_step", "")) / steps if steps else 0.0
        elif name == "experiments.useful_run_ratio":
            runs = med("dynamics.run.calls")
            values[name] = wl.trajectories / runs if runs else 0.0
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(walls[True]) - statistics.median(walls[False])
                            if walls[True] and walls[False] else 0.0)
        else:
            values[name] = med(name)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
