"""kdlab benchmark: one workload per process, closed loop, single caller.

Usage, from the repository root:

    python3 benchmarks/run.py --workload {witness,build,query} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric listed in ``BENCHMARK.json``; with ``--trace 1``
it holds every per-layer metric instead.  The line before it is a fuller
report (provenance, failures, per-operation breakdowns, self time per
module), also written under ``benchmarks/out/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
clock = time.perf_counter


def _cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use, before numpy loads."""
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= NPROC):
            os.environ[var] = str(NPROC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_kdlab() -> float:
    """Import kdlab from this checkout's ``src/``; returns the import time."""
    if not (SRC / "kdlab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no kdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import kdlab

    elapsed = clock() - start
    if Path(kdlab.__file__).resolve().parent != (SRC / "kdlab").resolve():
        raise SystemExit(f"benchmark: imported kdlab from {kdlab.__file__}, not from {SRC}")
    return elapsed


# ---------------------------------------------------------------------------
# provenance


def _blas_info() -> dict:
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when one is mapped."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kdlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "nproc": NPROC,
        "blas_env_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        **_blas_info(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, seed: int) -> dict:
    """Set-up in fresh interpreters: import kdlab, then the workload's set-up."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = clock()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
        )
        walls.append(clock() - start)
        imports.append(json.loads(out.stdout.strip().splitlines()[-1])["import_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "setup_samples": walls}


class Loop:
    """Accumulates per-operation samples and failures over passes."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.steps: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, tracer=None) -> None:
        if op.prepare is not None:
            op.prepare()
        self.attempted += 1
        start = clock()
        try:
            if tracer is None:
                result = op.call()
            else:
                tracer.active = True
                result = tracer.span("bench", op.label, op.call)
        except Exception as exc:  # a raising operation is a failure, not the end of the run
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = clock() - start
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
            return
        self.samples[op.label].append(elapsed)
        if op.steps is not None:
            self.steps[op.label] = op.steps(result)

    def best(self) -> dict[str, float]:
        """Each operation's fastest repeat.

        Interference from other tenants of the machine only ever adds
        time, and much of it comes and goes within seconds, so the fastest
        repeat is a steadier estimate of an operation's cost than the
        median.  Slowdowns that last the whole run are divided out with
        ``speed.SpeedReference``.
        """
        return {label: min(times) for label, times in self.samples.items()}

    def pass_time(self) -> float:
        """One pass of the operation list, each operation at its fastest repeat."""
        return sum(self.best().values())


def closed_loop(ops, seconds: float, speed) -> tuple[Loop, float]:
    """Issue the operations back to back, repeating the list in whole passes
    until the deadline, so every operation has the same number of samples.
    The speed reference is sampled between operations."""
    loop = Loop()
    start = clock()
    while True:
        for op in ops:
            speed.sample_if_due()
            loop.run_op(op)
        if clock() - start >= seconds:
            return loop, clock() - start


def traced_loop(ops, seconds: float, tracer) -> dict:
    """Alternate untraced and traced whole passes until the deadline."""
    plain, traced = Loop(), Loop()
    start = clock()
    passes = 0
    while True:
        for op in ops:
            plain.run_op(op)
        tracer.install()
        try:
            for op in ops:
                traced.run_op(op, tracer)
        finally:
            tracer.uninstall()
        passes += 1
        if clock() - start >= seconds:
            break
    return {
        "plain": plain,
        "traced": traced,
        "passes": passes,
        "untraced_pass_s": plain.pass_time(),
        "traced_pass_s": traced.pass_time(),
        "self_s": {k: v / passes for k, v in sorted(tracer.self_times().items())},
        "calls": {k: v / passes for k, v in sorted(tracer.counts.items())},
    }


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(loop: Loop, setup: dict, slowdown: float) -> dict:
    best = sorted(t / slowdown for t in loop.best().values())
    return {
        "setup_s": setup["setup_s"],
        "run_s": sum(best),
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p95_ms": _percentile(best, 95) * 1e3,
    }


def workload_extras(loop: Loop, elapsed: float, speed) -> dict:
    """Figures for the report line only: raw and wall-clock figures, per-kind costs."""
    every = [t for times in loop.samples.values() for t in times]
    best = loop.best()
    by_kind: dict = defaultdict(float)   # numbered copies of one request kind summed
    for label, t in sorted(best.items()):
        by_kind[label.split("#")[0]] += t
    extras: dict = {
        "slowdown": speed.slowdown(),
        "reference_median_s": statistics.median(speed.samples),
        "reference_samples": len(speed.samples),
        "raw_run_s": loop.pass_time(),
        "operations_per_pass": len(best),
        "repeats_per_operation": min(len(times) for times in loop.samples.values()),
        "wall_ops_per_s": len(every) / elapsed,
        "wall_latency_p50_ms": statistics.median(every) * 1e3,
        "wall_latency_p95_ms": _percentile(every, 95) * 1e3,
        "wall_latency_samples": len(every),
        "best_s_by_kind": dict(by_kind),
    }
    if loop.steps:
        search_s = sum(best[label] for label in loop.steps)
        extras["steps_per_s"] = sum(loop.steps.values()) / search_s
        extras["time_to_witness_s"] = sum(t for k, t in best.items() if k.startswith("finding:"))
        extras["exhausting_s"] = sum(t for k, t in best.items() if k.startswith("exhausting:"))
    return extras


# ---------------------------------------------------------------------------
# entry points


def setup_child(args) -> int:
    import_s = _import_kdlab()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).setup()
    print(json.dumps({"import_s": import_s}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("witness", "build", "query"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _cap_blas_threads()
    if args.setup_only:
        return setup_child(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_kdlab()
    sys.path.insert(0, str(HERE))
    from speed import SpeedReference
    from tracer import Tracer
    from workloads import WORKLOADS
    import probes

    setup = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.warmup()
    ops = workload.ops()

    report: dict = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                    "provenance": provenance(args.seed), "setup": setup}
    if args.trace:
        tracer = Tracer()
        traced = traced_loop(ops, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        values = {"cli.import_s": setup["import_s"],
                  "trace.overhead_s": traced["traced_pass_s"] - traced["untraced_pass_s"],
                  **probes.run_all(_child_env(), str(ROOT))}
        loops = (traced["plain"], traced["traced"])
        report["trace_run"] = {k: traced[k] for k in
                               ("passes", "untraced_pass_s", "traced_pass_s", "self_s", "calls")}
        wanted = spec["per_layer"]
    else:
        speed = SpeedReference()
        speed.kernel()   # warm-up
        loop, elapsed = closed_loop(ops, args.seconds, speed)
        loops = (loop,)
        values = end_to_end(loop, setup, speed.slowdown())
        report["extras"] = workload_extras(loop, elapsed, speed)
        wanted = spec["end_to_end"]

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    report.update({"metrics": values, "attempted": attempted, "failed": len(failures),
                   "error_rate": len(failures) / attempted, "failures": failures[:20]})
    OUT.mkdir(exist_ok=True)
    text = json.dumps(report, default=float)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
