"""Benchmark of the qmla package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
run measures set-up (several fresh processes), then repeats the workload's
unit on the seed's inputs for about ``--seconds`` and checks every output.
With ``--trace 0`` it reports the end-to-end metrics, each the median over
its samples.  With ``--trace 1`` it alternates untraced and traced units and
reports the per-layer metrics of the traced ones.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
WORK_DIR = ".perfbench"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help="build the inputs in DIR, print 'ready' and exit (times set-up)")
    return p.parse_args(argv)


def import_qmla(root: Path):
    """Import qmla from ``root/src``, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "qmla" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qmla package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import qmla

    if Path(qmla.__file__).resolve().parent != src / "qmla":
        sys.exit(f"perfbench: imported qmla from {qmla.__file__}, not {src}")
    return qmla


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def time_setup(args, root: Path, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(out_dir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed (exit {proc.returncode})")
    return elapsed


def setup_only(args, root: Path) -> int:
    from workloads import WORKLOADS

    import_qmla(root)
    WORKLOADS[args.workload]().setup(args.seed, args.setup_only)
    print("ready", flush=True)
    return 0


class Run:
    """Units of one workload on one seed, with everything they were checked on.

    Set-up is timed in fresh processes, one before each of the first units
    and the rest after the last, so the samples span the run rather than
    one moment of the machine's load.
    """

    def __init__(self, workload, run_dir: Path, time_setup):
        self.workload = workload
        self.run_dir = run_dir
        self.time_setup = time_setup
        self.setups = []
        self.checks = []
        self.operations = 0
        self.failed_operations = 0
        self.digests = []

    def unit(self, index: int, tracer=None) -> tuple:
        """Run one unit; return its wall and CPU seconds and outcome."""
        from tracing import install

        if len(self.setups) < SETUP_SAMPLES:
            self.sample_setup()
        out_dir = self.run_dir / f"unit-{index}"
        spool = self.run_dir / "spool"
        inst = None
        if tracer is not None:
            spool.mkdir(exist_ok=True)
            inst = install(tracer, spool_dir=spool)
            self.checks.append(("every qmla binding of a traced function is wrapped",
                                not inst.leftover_bindings(), str(inst.leftover_bindings())))
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            self.workload.run(out_dir)
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if inst is not None:
                inst.remove()
        if tracer is not None:
            tracer.collect_spool(spool)
        outcome = self.workload.outcome(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.checks += outcome.checks
        self.operations += outcome.operations
        self.failed_operations += outcome.failed_operations
        self.digests.append(outcome.digest)
        return wall, cpu, outcome, inst

    def sample_setup(self) -> None:
        self.setups.append(self.time_setup(self.run_dir / f"setup-{len(self.setups)}"))

    def finish(self) -> tuple:
        """(attempted, failed) over operations and checks."""
        while len(self.setups) < SETUP_SAMPLES:
            self.sample_setup()
        first = self.digests[0]
        for i, digest in enumerate(self.digests[1:], 1):
            self.checks.append((f"unit {i} output identical to unit 0 (same seed)",
                                digest == first, digest[:16]))
        failed_checks = [c for c in self.checks if not c[1]]
        for name, _, detail in failed_checks:
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
        attempted = self.operations + len(self.checks)
        return attempted, self.failed_operations + len(failed_checks)


def measure(run: Run, seconds: float, traced: bool) -> dict:
    """Repeat units until ``seconds`` have passed; traced runs alternate
    untraced and traced units and need at least one of each."""
    import layers
    from tracing import Tracer

    walls = {False: [], True: []}
    cpus, per_unit, spans = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        tracer = Tracer() if traced and index % 2 == 1 else None
        wall, cpu, outcome, inst = run.unit(index, tracer)
        walls[tracer is not None].append(wall)
        if tracer is None:
            cpus.append(cpu)
        else:
            per_unit.append(layers.unit_metrics(tracer.spans))
            run.checks += layers.reconcile(tracer.spans, instances=outcome.instances,
                                           models=outcome.models)
            spans = tracer.spans
            per_unit[-1]["trace.spans"] = len(spans)
            if inst.missing:
                print(f"perfbench: not traced (absent): {', '.join(inst.missing)}", file=sys.stderr)
        index += 1
        if time.perf_counter() - start >= seconds and (not traced or walls[True]):
            break
    unit_walls = {"untraced": walls[False], "traced": walls[True]}
    if not traced:
        values = {"wall_s": statistics.median(walls[False]), "cpu_s": statistics.median(cpus)}
        return values, unit_walls, spans
    for metric in layers.COUNT_METRICS:
        values = {u[metric] for u in per_unit}
        run.checks.append((f"{metric} repeats across traced units", len(values) == 1, str(values)))
    out = layers.combine(per_unit)
    out["trace.wall_s"] = statistics.median(walls[True])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls[False])
    return out, unit_walls, spans


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    load_at_start = os.getloadavg()[0]
    args = parse_args(argv)
    root = Path.cwd()
    if args.setup_only:
        return setup_only(args, root)

    import_qmla(root)
    import checks
    import layers
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, echo_dataset

    workload = WORKLOADS[args.workload]()
    run_dir = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload.setup(args.seed, run_dir)
        run = Run(workload, run_dir, functools.partial(time_setup, args, root))
        run.checks += checks.kernel_checks(args.seed)
        run.checks += checks.bath_checks(args.seed, echo_dataset())
        values, unit_walls, spans = measure(run, args.seconds, bool(args.trace))
        attempted, failed = run.finish()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        trace_file = root / WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans), encoding="utf-8")
        units_of = layers.UNITS
    else:
        values.update(setup_s=statistics.median(run.setups), peak_rss_mb=peak_rss_mb())
        units_of = E2E_UNITS
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units_of.items()}
    for m, v in metrics.items():
        print(f"{m} = {v['value']:.6g} {v['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations and output checks)")
    env = environment(load_at_start)
    env.update(workload=workload.name, seed=args.seed, unit_wall_s=unit_walls,
               default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
