"""Benchmark of the qvix experiment runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_batch --seed 0 --seconds 25 --trace 0

One operation is one ``run_experiment`` call.  It fails if the call
records a failure, raises (``MemoryError`` included), or if its outputs
fail a check in ``checks.py``.  The workload runs in this one process as
a closed loop with one client: the next call starts when the previous
one has returned.  The loop runs a fixed number of whole passes over the
workload's calls: ``--seconds`` over the nominal CPU time of one pass
(``workloads.passes``), so that the work of a run, and the number of
calls that fail, do not depend on the speed of the machine.

Times are CPU time of this process (user plus system).  The work is
single-threaded and waits on nothing but the CPU, so on a machine of its
own CPU time equals wall time.  On a shared virtual machine, wall time
also counts the time the hypervisor gives the CPU to someone else, and
that share drifts by tens of percent within a minute; CPU time does not
see it.  Wall time is printed next to it.  CPU time still drifts with
the load on the host, so every reported time is scaled by reference work
run between the calls (``reference.py``).

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics; with ``--trace 1`` the library is traced
from outside (``tracing.py``) and the result carries the per-layer
metrics instead.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# BLAS pinned to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, timed_reference  # noqa: E402
from tracing import Tracer, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# reference_work samples per run, spread evenly over the timed calls
REFERENCE_SAMPLES = 16
# set-ups whose median is setup_s: the run's own and the rest each in a
# child process.  One set-up alone, mostly imports, spread by up to 0.4 of
# its median from one run to the next.
SETUP_SAMPLES = 3

# The 25601-node thermoforming rung asks for two dense 25601^2 arrays
# (2 x 4.9 GiB); under this cap it fails as a recorded MemoryError instead
# of exhausting a shared machine.  The 6401 rung (about 0.7 GB) fits.
ADDRESS_SPACE_CAP = 3 << 30

FAILURE_CLASSES = (
    ("check", ("check:",)),
    ("residual_gate", ("has residual", "complementarity residual", "base residual",
                       "fixed-point residual")),
    ("pdas_not_settled", ("active set did not settle",)),
    ("outer_nonconvergence", ("no convergence within",)),
    ("temperature_stall", ("temperature solve stalled",)),
    ("memory", ("MemoryError",)),
)


def classify(message: str) -> str:
    for name, needles in FAILURE_CLASSES:
        if any(needle in message for needle in needles):
            return name
    return "other"


def cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    counts = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def setup_samples(args) -> list[float]:
    """CPU seconds of SETUP_SAMPLES - 1 more set-ups, one child process at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_SAMPLES - 1)]


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    It weights every order statistic, so it does not jump when the
    percentile falls between two clusters of latencies, as the median of
    the ladder's 14 passing rungs does.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q / 100])[0]) if values else float("nan")


class Bench:
    """One workload in one process: inputs, timed loop, checks."""

    def __init__(self, workload_name: str, seed: int, work: Path):
        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.work = work
        self.bundled = workloads.load_bundled(ROOT / "configs")
        self._passes: list[tuple[list, list]] = []
        self.reference: list[float] = []  # CPU seconds of each reference sample

    def inputs(self, pass_index: int):
        """Calls and parsed configs of one pass, made on first use."""
        from qvix.experiments import parse_config

        while len(self._passes) <= pass_index:
            calls = workloads.make_calls(self.workload, self.seed, len(self._passes),
                                         self.bundled)
            self._passes.append((calls, [parse_config(c.raw) for c in calls]))
        return self._passes[pass_index]

    def call(self, config, out: Path) -> list[str]:
        """Run one config into ``out``; returns its failure messages."""
        import qvix.experiments

        # looked up on the module at every call, so that a tracer sees it
        run = qvix.experiments.run_experiment
        try:
            return list(run(config, out_dir=out, seed=self.seed).failures)
        except MemoryError:
            return ["MemoryError"]
        except Exception as exc:  # any raise is a failed operation, recorded by type
            return [f"{type(exc).__name__}: {exc}"]

    def fresh_dir(self, name: str) -> Path:
        out = self.work / name
        if out.exists():
            shutil.rmtree(out)
        return out

    def timed_loop(self, seconds: float, tracer: Tracer | None) -> list[dict]:
        """The run's fixed number of whole passes, see ``workloads.passes``."""
        records = []
        n_passes = workloads.passes(self.workload, seconds)
        every = max(1, n_passes * len(self.inputs(0)[0]) // REFERENCE_SAMPLES)
        for pass_index in range(n_passes):
            calls, configs = self.inputs(pass_index)
            if tracer is not None:
                tracer.install()
            try:
                for i, (call, config) in enumerate(zip(calls, configs)):
                    if len(records) % every == 0:
                        self.reference.append(timed_reference())
                    out = self.fresh_dir(f"c{i:03d}")
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    failures = self.call(config, out)
                    cpu = time.process_time() - cpu0
                    wall = time.perf_counter() - wall0
                    if not failures:
                        failures = [f"check: {p}"
                                    for p in checks.check_call(out, call.raw, call.family)]
                    records.append({"pass": pass_index, "call": call, "cpu": cpu,
                                    "wall": wall, "failures": failures})
            finally:
                if tracer is not None:
                    tracer.uninstall()
        self.reference.append(timed_reference())
        return records

    def warm_up(self) -> None:
        """Run the warm-up calls, which do not depend on the seed."""
        from qvix.experiments import parse_config

        for call in workloads.warm_up_calls(self.workload, self.bundled):
            self.call(parse_config(call.raw), self.fresh_dir(f"warmup_{call.family}"))

    def identity_check(self, records: list[dict]) -> list[str]:
        """Rerun one call of each config traced and untraced; compare the bytes.

        The call is the first that passed in the timed loop, or the first
        of its config if none passed.  A difference fails that call and,
        whatever its other failures, makes the run incorrect.  Returns the
        problems found.
        """
        from qvix.experiments import parse_config

        chosen = {}
        for rec in records:
            family = rec["call"].family
            if family not in chosen or (chosen[family]["failures"] and not rec["failures"]):
                chosen[family] = rec
        problems = []
        for i, rec in enumerate(chosen.values()):
            config = parse_config(rec["call"].raw)
            plain = self.fresh_dir(f"identity_plain_{i}")
            traced = self.fresh_dir(f"identity_traced_{i}")
            self.call(config, plain)
            with Tracer():
                self.call(config, traced)
            differ = [f"traced and untraced outputs differ: {p}"
                      for p in checks.same_outputs(plain, traced)]
            rec["failures"] += [f"check: {p}" for p in differ]
            problems += [f"{rec['call'].label}: {p}" for p in differ]
        return problems


def report(bench: Bench, args, setups: list[float], tracer: Tracer | None) -> dict:
    records = bench.timed_loop(args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    identity = bench.identity_check(records)

    passing = [r for r in records if not r["failures"]]
    cpu = sum(r["cpu"] for r in records)
    wall = sum(r["wall"] for r in records)
    passes = records[-1]["pass"] + 1
    classes = Counter(classify(r["failures"][0]) for r in records if r["failures"])

    print(f"workload {args.workload}: seed {args.seed}, {passes} passes of "
          f"{len(records) // passes} calls, closed loop with one client")
    print("environment " + json.dumps(environment(args.seed)))
    print("call time per pass (s): " + " ".join(
        f"{sum(r['cpu'] for r in records if r['pass'] == p):.4f}" for p in range(passes)))
    print(f"call time {cpu:.4f} s CPU, {wall:.4f} s wall "
          f"({len(passing) / wall:.4g} passing calls per wall second)")
    failing = Counter(f"{r['call'].label}: {r['failures'][0]}" for r in records if r["failures"])
    for line, count in sorted(failing.items()):
        print(f"failed {count}x {line}")
    print(f"fail_fraction {1 - len(passing) / len(records):.4f} "
          f"({len(records) - len(passing)} of {len(records)} calls); classes: "
          + (", ".join(f"{k}={v}" for k, v in sorted(classes.items())) or "none"))
    print(f"latency samples: {len(passing)} passing calls")
    for problem in identity:
        print(f"check failed: {problem}")

    if tracer is None:
        # times as on the reference machine at its usual speed, see reference.py
        mean_reference = sum(bench.reference) / len(bench.reference)
        scale = REFERENCE_S / mean_reference
        print(f"reference work: {len(bench.reference)} samples, mean {mean_reference:.4f} s "
              f"CPU against {REFERENCE_S} s nominal; times below are scaled by {scale:.4f}")
        latencies = [r["cpu"] * scale for r in passing]
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "solves_per_s": (len(passing) / (cpu * scale), "1/s"),
            "nodes_per_s": (sum(r["call"].n for r in passing) / (cpu * scale), "1/s"),
            "solve_p50_s": (percentile(latencies, 50), "s"),
            "solve_p90_s": (percentile(latencies, 90), "s"),
            "pass_fraction": (len(passing) / len(records), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(wall, span_cost_s())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": "check" not in classes and not identity,
        "attempted": len(records),
        "failed": len(records) - len(passing),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up CPU seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "qvix" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no qvix sources under {SRC} or no configs/ beside them",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cap_address_space()

    import qvix

    if Path(qvix.__file__).resolve().parent != SRC / "qvix":
        print(f"perfbench: imported qvix from {qvix.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # failed calls are recorded here; keep the library's error log off stderr
    logging.getLogger("qvix").addHandler(logging.NullHandler())

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.inputs(0)
        bench.warm_up()
        setup_s = time.process_time()  # since process start
        if args.setup_only:
            print(setup_s)
            return 0
        setups = [setup_s] if args.trace else [setup_s, *setup_samples(args)]
        result = report(bench, args, setups, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
