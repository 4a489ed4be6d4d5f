"""numrad benchmark: one workload per invocation, end-to-end or traced.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; numrad is imported from its ``src``.
The workload's unit of work (see workloads.py) is repeated until S seconds
have passed. ``--trace 0`` reports the end-to-end metrics with tracing off,
with times scaled to a reference host speed (see REF_S);
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics. Both check the outputs. Human-readable lines come first,
the last line of stdout is one JSON object, and a full record of the run,
environment included, is written under ``.bench_out/``. The exit code is
0 only when every check passed.
"""

# BLAS threads are pinned before numpy loads. On a 2-core machine, default
# OpenBLAS threading made one omega call (side-32 disk at tol 1e-8) take
# 2.97-4.62 s over four runs, against 3.02-3.45 s pinned.
import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Times are reported at a fixed host speed. The benchmark was written on a
# 2-vCPU VM shared with other tenants, whose speed moved by up to 1.6x
# between runs a minute apart, alike in CPU and wall time, so raw times of
# ten runs spread past any useful bound. A fixed kernel of numpy and
# Python work that does not touch numrad is timed before and after every
# unit of work (and every REF_EVERY_S within one), and each unit's times
# are scaled by REF_S over the kernel's mean time around it: times as they
# would read on a host where the kernel takes REF_S, which it took there
# under the usual load. Over 65 units of campaign_omega_p, scaling cut the
# spread of 27 s windows from 0.28 to 0.07. Raw times are printed and
# recorded beside the scaled ones.
REF_S = 0.25
REF_EVERY_S = 2.0

# Per-layer statistics reported for each traced function:
# (metric stat, tracer summary key, unit).
CALLS = ("calls", "calls", "count")
SELF = ("self_s", "self_s", "s")
EIGS = ("eigensolves", "eigensolves", "count")
LAYER_STATS = {
    "ensembles.sample": (CALLS, SELF, EIGS),
    "funcpair.validate_pair": (CALLS, SELF),
    "linalg.spectral_norm": (CALLS, SELF, EIGS),
    "linalg.gram_eigen": (CALLS, SELF, EIGS),
    "linalg.herm_eig": (CALLS, SELF, EIGS, ("eigensolves_incl", "eigensolves_incl", "count")),
    "linalg.fn_of_psd": (CALLS, SELF),
    "linalg.fn_of_abs": (CALLS, SELF),
    "radius.omega": (CALLS, SELF, ("evals", "eigensolves", "count")),
    "radius.omega_p": (CALLS, SELF, ("objective_calls", "objective_calls", "count"),
                       ("gradient_calls", "gradient_calls", "count")),
    "bounds.bound_main1": (CALLS, SELF),
    "bounds.bound_product_xy": (CALLS, SELF),
    "bounds.bound_sum_norm": (CALLS, SELF),
    "bounds.bound_main11": (CALLS, SELF),
    "bounds.bound_main11_young": (CALLS, SELF),
    "bounds.bound_main3": (CALLS, SELF),
    "bounds.bound_main4": (CALLS, SELF),
    "bounds.bound_th1": (CALLS, SELF),
    "harness.run_campaign": (CALLS, SELF),
    "harness.trial": (CALLS, SELF),
    "harness.evaluate_bound": (CALLS, SELF),
    "harness.report_to_json": (CALLS, SELF),
    "harness.report_to_csv": (CALLS, SELF),
}
# Derived per-layer metrics: name -> unit.
DERIVED = {
    "harness.recheck.calls": "count",
    "bounds.zeta_value.calls": "count",
    "radius.omega_p.unconverged": "count",
    "radius.omega_p.trial_share": "ratio",
    "radius.omega.disk_evals.tol1e-6": "count",
    "radius.omega.disk_evals.tol1e-8": "count",
    "radius.omega.disk_evals.tol1e-10": "count",
    "radius.omega.ginibre_evals.max": "count",
    "radius.omega.ginibre_evals.mean": "count",
    "harness.run_campaign.parallel_speedup": "ratio",
    "trace.eigensolves": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "tightness_mean": "ratio",
}
# Printed and recorded with every end-to-end run, but not bounded metrics:
# both are 0 on a healthy run of some workloads.
REPORTED = {"failed_frac": "ratio", "unconverged_frac": "ratio"}


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": unit
             for name, stats in LAYER_STATS.items() for stat, _, unit in stats}
    units.update(DERIVED)
    return units


def environment(workload, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "jobs": workload.jobs,
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


class HostReference:
    """The fixed kernel behind REF_S and the times it took in this run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
        self._stack = a + a.conj().transpose(0, 2, 1)
        self.samples: list[float] = []
        self._last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        for _ in range(150):
            for m in self._stack[:32]:
                np.linalg.eigvalsh(m)
            np.linalg.eigvalsh(self._stack)
            acc = {}
            for i in range(1500):
                acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def due(self) -> None:
        """Time the kernel if REF_EVERY_S has passed since it last ran."""
        if perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def scale(self, since: int) -> float:
        """Factor to reference speed from the samples from index `since` on."""
        return REF_S / statistics.fmean(self.samples[since:])


def median_setup_s(args, ref: HostReference) -> tuple[float, float]:
    """Median wall time, raw and at reference speed, of fresh interpreters
    that import numrad, build the workload's inputs and run its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    ref.sample()
    for _ in range(SETUP_PROBES):
        since = len(ref.samples) - 1
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds times up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - t0)
        ref.sample()
        scaled.append(raw[-1] * ref.scale(since))
    return statistics.median(raw), statistics.median(scaled)


def percentile_ms(values: list, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def per_op_medians(op_s: list) -> list:
    """Each operation's median time over a run's units, from one list of
    op times per unit. Every unit runs the same operations in the same
    order, and a median over repeats taken at different moments is steadier
    on a shared host than pooling single timings."""
    return [statistics.median(times) for times in zip(*op_s)]


def digest_failures(units: list) -> list[str]:
    digests = {unit.digest for unit in units}
    if len(digests) > 1:
        return [f"{len(digests)} different outputs from {len(units)} identical units"]
    return []


def run_end_to_end(args, wl) -> tuple[dict, dict, list, int]:
    ref = HostReference()
    raw_setup_s, setup_s = median_setup_s(args, ref)
    wl.warm_up()
    units, scales = [], []
    start = perf_counter()
    ref.sample()
    while not units or perf_counter() - start < args.seconds:
        since = len(ref.samples) - 1
        units.append(wl.run_unit(capture=not units, between=ref.due))
        ref.sample()
        scales.append(ref.scale(since))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [f for unit in units for f in unit.failures]
    failures += digest_failures(units) + wl.check(units[0])

    first = units[0]
    ops = len(first.op_s)
    op_s = per_op_medians([unit.op_s for unit in units])
    scaled_op_s = per_op_medians([[t * k for t in unit.op_s]
                                  for unit, k in zip(units, scales)])
    raw = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(unit.wall_s for unit in units),
        "op_ms_p50": percentile_ms(op_s, 50),
        "op_ms_p95": percentile_ms(op_s, 95),
    }
    wall_s = statistics.median(unit.wall_s * k for unit, k in zip(units, scales))
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "op_ms_p50": percentile_ms(scaled_op_s, 50),
        "op_ms_p95": percentile_ms(scaled_op_s, 95),
        "peak_rss_mb": peak_rss_mb,
        "tightness_mean": statistics.fmean(first.ratios),
    }
    attempted = ops * len(units)
    extra = {
        "failed_frac": len(failures) / attempted,
        "unconverged_frac": first.unconverged / first.estimates if first.estimates else 0.0,
        "host_scale": ref.scale(0),
        "raw": raw,
        "unit_scales": scales,
        "reference_s": ref.samples,
        "units": len(units),
        "ops_per_unit": ops,
        "unit_wall_s": [unit.wall_s for unit in units],
        "digest": first.digest,
    }
    if wl.serial_wall_s is not None:
        extra["serial_wall_s"] = wl.serial_wall_s
    return metrics, extra, failures, attempted


def run_traced(args, wl) -> tuple[dict, dict, list, int]:
    from tracer import Tracer

    wl.warm_up()
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    omega_calls = None
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        plain.append(wl.run_unit(capture=not plain))
        tracer.reset()
        tracer.install()
        try:
            traced.append(wl.run_unit())
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        summaries[-1]["spans"] = tracer.span_count()
        if omega_calls is None:
            omega_calls = tracer.per_call("radius.omega")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    units = plain + traced
    failures = [f for unit in units for f in unit.failures]
    failures += digest_failures(units) + wl.check(plain[0])
    failures += count_failures(summaries)
    if tracer.missing:
        print(f"not traced, so reported as never called: {', '.join(tracer.missing)}")

    first, fns = summaries[0], summaries[0]["functions"]
    metrics = {}
    for name, stats in LAYER_STATS.items():
        for stat, key, _ in stats:
            if key == "self_s":
                value = statistics.median(s["functions"][name]["self_s"] for s in summaries)
            else:
                value = fns[name][key]
            metrics[f"{name}.{stat}"] = value
    trial_s = fns["harness.trial"]["incl_s"]
    metrics.update({
        "harness.recheck.calls": (fns["harness.evaluate_bound"]["calls"]
                                  - fns["harness.trial"]["calls"]),
        "bounds.zeta_value.calls": first["totals"]["zeta_calls"],
        "radius.omega_p.unconverged": plain[0].unconverged,
        "radius.omega_p.trial_share": fns["radius.omega_p"]["incl_s"] / trial_s if trial_s else 0.0,
        "trace.eigensolves": first["totals"]["eigensolves"],
        "trace.spans": first["spans"],
        "trace.overhead_frac": (statistics.median(u.wall_s for u in traced)
                                / statistics.median(u.wall_s for u in plain) - 1.0),
        "harness.run_campaign.parallel_speedup": (
            wl.serial_wall_s / statistics.median(u.wall_s for u in plain)
            if wl.serial_wall_s is not None else 0.0),
    })
    metrics.update(wl.layer_metrics(omega_calls))
    for name in DERIVED:
        metrics.setdefault(name, 0)
    extra = {"traced_units": len(traced), "digest": plain[0].digest,
             "missing": tracer.missing}
    return metrics, extra, failures, sum(len(u.op_s) for u in units)


def count_failures(summaries: list) -> list[str]:
    """Counts must repeat exactly in every traced unit of the run."""
    def counts(summary):
        return {(name, key): val for name, entry in summary["functions"].items()
                for key, val in entry.items() if not key.endswith("_s")}

    ref = counts(summaries[0])
    bad = sorted({f"{n}.{k}" for s in summaries[1:] for (n, k), v in counts(s).items()
                  if ref[(n, k)] != v})
    return [f"per-layer count changed between traced units: {name}" for name in bad]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "numrad" / "__init__.py").is_file():
        print(f"numrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numrad

    if Path(numrad.__file__).resolve().parent != SRC / "numrad":
        print(f"imported numrad from {numrad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        wl.warm_up()
        return 0

    if args.trace:
        metrics, extra, failures, attempted = run_traced(args, wl)
        units = per_layer_units()
    else:
        metrics, extra, failures, attempted = run_end_to_end(args, wl)
        units = dict(END_TO_END)
    env = environment(wl, workloads.nproc())
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, unit in REPORTED.items():
        if name in extra:
            print(f"{name} = {extra[name]:.6g} {unit}")
    if "raw" in extra:
        print(f"host_scale = {extra['host_scale']:.6g} (reference speed over this run's speed)")
        for name, value in extra["raw"].items():
            print(f"raw {name} = {value:.6g} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print("environment", json.dumps(env, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, extra=extra, failures=failures)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
