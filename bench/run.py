"""Benchmark for weylsep: four seeded closed-loop workloads.

    python3 bench/run.py --workload sep-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run draws a pool of inputs from the seed and sends them through the
library in passes, one after another, until ``--seconds`` are spent. ``--trace
0`` measures the end-to-end metrics with tracing off. ``--trace 1`` runs a
fixed number of passes over the same pool, alternately untraced and traced,
and reports the per-layer metrics; the spans go to ``bench/out/``. Every
time a run reports is scaled to the speed of an uncontended core, measured
by timing a frozen copy of the library on fixed inputs between operations
(see ``calibrate``); the unscaled figures are in the informational output.
Informational lines (seed, input hash, environment, sample counts, self-time
table) come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in its own process and prints one table of every metric.

The library is imported from ``src/`` beside this directory; nothing needs
installing. Every run first shows that each correctness check rejects a
deliberately corrupted result.
"""

import os

# One client in one process. The matrices are at most 64x64, too small to
# gain from BLAS threads, and one thread is steadier on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: Windows of inputs in each workload's pool. Every pool holds at least 100
#: inputs, so a p90 over them has ten samples beyond it, and a pass over it
#: takes at most half of a 20 s run at the parent commit. tele-search and
#: cli-mixed have more windows than that needs because the cost of a search
#: varies from state to state, and a bigger pool averages over more states.
POOL_WINDOWS = {"sep-large": 7, "small-states": 4, "tele-search": 10, "cli-mixed": 120}
MIN_PASSES = 2
MAX_MEASURE_S = 120.0  # stop early, well inside the 180 s limit, if the program is very slow
SETUP_SAMPLES = 7
SETUP_CAL_S = 0.1  # calibration kernel time on each side of a set-up sample
IMPORT_SAMPLES = 3
#: Untraced-then-traced pass pairs of a --trace 1 run, per second of --seconds;
#: between a third of --seconds and all of it at the parent commit.
TRACE_PAIRS_PER_S = {"sep-large": 0.12, "small-states": 1.2, "tele-search": 0.04, "cli-mixed": 0.08}
FAILURES_SHOWN = 5
#: How a metric of each unit follows the calibration's speed factor (see ``calibrate``).
SPEED_POWER = {"s": 1, "ms": 1, "1/s": -1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

BIPARTITE_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (3, 8), (4, 6), (5, 5), (5, 7), (6, 6), (7, 7), (8, 8)]
BUSY = [
    "bipartite.decompose_bipartite", "bipartite.reconstruct_bipartite",
    "bipartite.weyl_separability_criterion", "bipartite.kyfan_norm", "bipartite.ppt_criterion",
    "linalg.validate_density", "linalg.singular_values", "linalg.partial_transpose",
    "linalg.min_eigenvalue", "bloch.decompose", "bloch.reconstruct",
    "teleport.fef_search", "teleport.detection_operator", "teleport.mean_value",
    "weyl.weyl_basis", "fileio.load_state",
]
CLI_CASES = ["check-sep-file", "check-sep", "check-tele", "scan", "decompose", "decompose-pair", "malformed"]
SELF_TIME_MODULES = ["weyl", "bloch", "bipartite", "linalg", "teleport", "states", "fileio", "cli", "unattributed"]


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    m = {f"{name}.busy_s": ("s", "lower") for name in BUSY}
    m["states.busy_s"] = ("s", "lower")
    for da, db in BIPARTITE_SHAPES:
        m[f"bipartite.decompose_bipartite.ms.{da}x{db}"] = ("ms", "lower")
    m["bipartite.decompose_bipartite.scaling_exp"] = ("exponent", "lower")
    m["teleport.fef_search.evaluations"] = ("count", "lower")
    m["teleport.fef_search.converged_share"] = ("share", "higher")
    m["teleport.fef_search.fef_mean"] = ("fraction", "higher")
    m["weyl.weyl_basis.cache_misses"] = ("count", "lower")
    m["cli.import_s"] = ("s", "lower")
    for case in CLI_CASES:
        m[f"cli.main.ms.{case}"] = ("ms", "lower")
    for module in SELF_TIME_MODULES:
        m[f"selftime_share.{module}"] = ("share", "lower")
    m["trace_overhead"] = ("share", "lower")
    return m


# ---------------------------------------------------------------------------


class Measurement:
    """Latencies and failures of closed-loop passes over one pool of inputs."""

    def __init__(self):
        self.passes: list[list[float]] = []  # per-operation latencies, one list per pass, in pool order
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def extend(self, other: "Measurement") -> None:
        self.passes += other.passes
        self.failures += other.failures

    def per_input(self) -> list[float]:
        """Each input's mean time over its repeats, one figure for every input of the pool.

        The repeats of one input are spread over the whole run, so their
        mean sees the host's fast and slow states in the same shares as the
        reference windows do (see ``calibrate``); a median or a fastest
        repeat would jump from one state's figure to the other's instead.
        Every input counts once, the costly ones as much as the cheap ones.
        """
        return [math.fsum(repeats) / len(repeats) for repeats in zip(*self.passes)]

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second spent inside the library, over every repeat."""
        return self.attempted / math.fsum(math.fsum(p) for p in self.passes)


def make_pool(wl, seed: int) -> list:
    """The run's inputs: ``POOL_WINDOWS`` windows of the workload, drawn from the seed."""
    return [wl.op(seed, i) for i in range(POOL_WINDOWS[wl.name] * len(wl.window))]


def measure(wl, pool, cal, *, seconds=None, passes=None, tracer=None) -> Measurement:
    """Send each input of the pool when the previous result returns, pass after pass.

    With ``seconds``, runs at least ``MIN_PASSES`` whole passes, and more
    while the next one is expected to end within that much wall time; with
    ``passes``, runs exactly that many. Checks happen outside the timed
    region, on every operation, and so do the reference windows of ``cal``,
    which take ``calibrate.CAL_SHARE`` of the wall time.
    """
    res = Measurement()
    began = time.perf_counter()
    cal_s = 0.0
    while True:
        pass_began = time.perf_counter()
        lat = []
        for i, op in enumerate(pool):
            if tracer is not None:
                tracer.begin(i, op.kind)
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
                problems = None
            except Exception as exc:  # a raising operation counts as failed
                problems = [f"{op.kind}: {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            if problems is None:
                problems = wl.check(op, out)
            lat.append(dt)
            if cal_s < calibrate.CAL_SHARE * (time.perf_counter() - began):
                cal_s += cal.sample()
            if problems:
                res.failures.append(f"input {i} ({op.kind} {op.dims}): " + "; ".join(problems))
        res.passes.append(lat)
        now = time.perf_counter()
        if passes is not None:
            if len(res.passes) >= passes:
                return res
        elif len(res.passes) >= MIN_PASSES and (
            2 * now - began - pass_began > seconds or now - began >= MAX_MEASURE_S
        ):
            return res


def self_check(wl, seed) -> list[str]:
    """Labels of deliberately corrupted results that the checks failed to reject."""
    return [label for label, op, out in wl.corruptions(seed) if not wl.check(op, out)]


def setup_seconds(workload: str, count: int) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, one ``(unscaled, scaled)`` pair per process.

    Each sample is scaled by ``calibrate.kernel`` timed just before and just
    after it, which sees the core in the state the sample saw.
    """
    samples = []
    for _ in range(count):
        before = calibrate.kernel_factor(SETUP_CAL_S)
        if workload == "cli-mixed":
            # what ``python -m weylsep`` loads before it parses its arguments
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import weylsep.cli"], env=CHILD_ENV, check=True)
            raw = time.perf_counter() - t0
        else:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), workload],
                env=CHILD_ENV, capture_output=True, text=True, check=True,
            )
            raw = float(proc.stdout.split()[-1])
        samples.append((raw, raw * (before + calibrate.kernel_factor(SETUP_CAL_S)) / 2))
    return samples


def import_seconds() -> float:
    """Median in-process time of ``import weylsep.cli`` (package, cli and fileio) in fresh processes."""
    code = "import time; t = time.perf_counter(); import weylsep.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                              capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the environment setting."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cli_mode": "weylsep.cli.main(argv) in-process; entry point python -m weylsep with PYTHONPATH=src",
    }


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------


def run_end_to_end(wl, pool, cal, args, info) -> tuple[dict, Measurement]:
    # half the set-up samples before the timed loop and half after, so their
    # median spans the machine's speed over the whole run
    setup = setup_seconds(wl.name, SETUP_SAMPLES // 2)
    wl.warm_up()
    res = measure(wl, pool, cal, seconds=args.seconds)
    setup += setup_seconds(wl.name, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    info["setup_samples_s"] = {"unscaled": [raw for raw, _ in setup], "scaled": [v for _, v in setup]}
    lat_ms = [t * 1e3 for t in res.per_input()]
    info["passes"] = len(res.passes)
    info["latency_samples"] = len(lat_ms)
    values = {
        "setup_s": statistics.median(v for _, v in setup),
        "ops_per_s": res.ops_per_s,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": _quantile(lat_ms, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
    }
    return values, res


def run_traced(wl, pool, cal, args, info) -> tuple[dict, Measurement]:
    import tracing
    import weylsep.weyl

    pairs = max(1, round(args.seconds * TRACE_PAIRS_PER_S[wl.name]))
    info["trace_pass_pairs"] = pairs
    wl.warm_up()
    # each pass runs untraced and then traced, so both see the host in the same state
    untraced, traced, tracer = Measurement(), Measurement(), tracing.Tracer()
    for _ in range(pairs):
        untraced.extend(measure(wl, pool, cal, passes=1))
        tracer.install()
        try:
            traced.extend(measure(wl, pool, cal, passes=1, tracer=tracer))
        finally:
            tracer.uninstall()
    res = Measurement()
    res.extend(untraced)
    res.extend(traced)
    spans = tracer.spans

    values = {f"{name}.busy_s": tracing.busy_seconds(spans, name.__eq__) for name in BUSY}
    values["states.busy_s"] = tracing.busy_seconds(spans, lambda n: n.startswith("states."))
    shapes = tracing.per_shape_ms(spans, "bipartite.decompose_bipartite")
    for da, db in BIPARTITE_SHAPES:
        values[f"bipartite.decompose_bipartite.ms.{da}x{db}"] = shapes.get((da, db), 0.0)
    values["bipartite.decompose_bipartite.scaling_exp"] = tracing.scaling_exponent(shapes)
    fef = tracer.fef
    values["teleport.fef_search.evaluations"] = sum(e for _, e, _ in fef)
    values["teleport.fef_search.converged_share"] = statistics.fmean(c for *_, c in fef) if fef else 0.0
    values["teleport.fef_search.fef_mean"] = statistics.fmean(v for v, *_ in fef) if fef else 0.0
    values["weyl.weyl_basis.cache_misses"] = weylsep.weyl.weyl_basis.cache_info().misses
    values["cli.import_s"] = import_seconds()
    cli = tracing.root_medians_ms(spans, "cli.main")
    for case in CLI_CASES:
        values[f"cli.main.ms.{case}"] = cli.get(case, 0.0)
    self_s = tracing.self_times(spans)
    total = sum(self_s.values())
    for module in SELF_TIME_MODULES:
        values[f"selftime_share.{module}"] = self_s.get(module, 0.0) / total
    values["trace_overhead"] = 1.0 - traced.ops_per_s / untraced.ops_per_s

    info["self_time"] = {
        module: {"s": round(self_s.get(module, 0.0), 6), "share": round(values[f"selftime_share.{module}"], 4)}
        for module in SELF_TIME_MODULES
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "spans": spans}))
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    info["spans"] = len(spans)

    return values, res


def run_one(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    # One core for the run and the set-up processes it starts, so the
    # calibration times the core that everything it scales ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    traced = bool(args.trace)
    wl = cls()
    info = {"workload": wl.name, "seed": args.seed, "trace": int(traced)}
    cal = None
    try:
        pool = make_pool(wl, args.seed)
        info["inputs"] = len(pool)
        info["inputs_sha256"] = wl.inputs_digest(pool)
        info["environment"] = environment()
        missed = self_check(wl, args.seed)
        info["self_check"] = {"missed": missed}
        entry_s, failures = wl.entry_point(args.seed)
        if entry_s:
            info["entry_point_ms"] = [round(t * 1e3, 3) for t in entry_s]
        cal = calibrate.Calibration(cls)
        if traced:
            values, res = run_traced(wl, pool, cal, args, info)
            units = {name: unit for name, (unit, _) in per_layer_units().items()}
        else:
            values, res = run_end_to_end(wl, pool, cal, args, info)
            units = END_TO_END
        factor = cal.speed_factor
    finally:
        if cal is not None:
            cal.close()
        wl.close()
    unscaled = {}
    for name, unit in units.items():
        power = SPEED_POWER.get(unit)
        if power is not None and name in values and name != "setup_s":  # scaled per sample
            unscaled[name] = values[name]
            values[name] *= factor**power
    info["calibration"] = {
        "reference_window_ms": cal.reference_s * 1e3,
        "window_ms": cal.window_s * 1e3,
        "samples": sum(len(t) for t in cal.times),
        "speed_factor": factor,
        "unscaled": unscaled,
    }
    failures += res.failures
    attempted = res.attempted + len(entry_s)
    values["ok_share"] = (attempted - len(failures)) / attempted
    info["failures"] = failures[:FAILURES_SHOWN]
    print(json.dumps({"info": info}))
    for line in failures[:FAILURES_SHOWN]:
        print("FAILED", line, file=sys.stderr)
    for name in missed:
        print("SELF-CHECK MISSED", name, file=sys.stderr)
    result = {
        "correct": not failures and not missed,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
        for metric, entry in results[name]["metrics"].items():
            print(f"   {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "weylsep" / "__init__.py").is_file():
        print(f"error: weylsep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
