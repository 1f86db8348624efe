"""Benchmark of deepesn: MSO grid search and layer-wise spectra.

    python3 bench/run.py --workload grid-deep --seed 42 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the raw samples.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See bench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS/OpenMP thread per process, set before numpy loads (numpy is only
# imported inside the timed set-up), so no workload runs more threads than
# the program's own.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Set-ups in fresh interpreters per untraced run, before this process sets
#: up too: at least SETUP_MIN_CHILDREN, more while they have taken less than
#: SETUP_MIN_S in total (a short set-up is noisy), at most SETUP_MAX_CHILDREN.
SETUP_MIN_CHILDREN = 2
SETUP_MAX_CHILDREN = 8
SETUP_MIN_S = 3.0
MEMORY_INTERVAL_S = 0.1
TREE_RESCAN = 5


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("grid-deep", "grid-shallow", "spectrum"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up in a fresh interpreter, print the time and exit")
    return p.parse_args(argv)


# -- memory of the whole process tree -------------------------------------
def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages are split among their users."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory(threading.Thread):
    """Peak memory of this process and all its descendants.

    Samples the summed PSS of the tree, which counts processes that run at
    the same time together; the tree is rescanned every ``TREE_RESCAN``
    samples, which finds any child process that lives for more than half a
    second.  A sample can miss a peak that lasts less than the interval, so
    the result is at least this process's own exact peak resident set
    (``ru_maxrss``), which the kernel keeps.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self._halt = threading.Event()
        self._pids = [os.getpid()]
        self._count = 0

    def sample(self) -> None:
        if self._count % TREE_RESCAN == 0:
            children = _children_map()
            self._pids, stack = [], [os.getpid()]
            while stack:
                pid = stack.pop()
                self._pids.append(pid)
                stack.extend(children.get(pid, ()))
        self._count += 1
        self.peak_kb = max(self.peak_kb, sum(_pss_kb(pid) for pid in self._pids))

    def run(self) -> None:
        while not self._halt.wait(MEMORY_INTERVAL_S):
            self.sample()

    def stop(self) -> float:
        self._halt.set()
        self.join()
        own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own_peak_kb) / 1024.0


# -- environment -------------------------------------------------------------
def _blas_runtime_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_at_run_time": _blas_runtime_threads(),
        "thread_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# -- phases --------------------------------------------------------------------
def _import_and_setup(args, traced=False):
    """Imports, workload construction and cold set-up; returns (workload, tracer)."""
    sys.path.insert(0, str(SRC))
    import workloads
    import deepesn
    if Path(deepesn.__file__).resolve().parent != SRC / "deepesn":
        raise SystemExit(f"deepesn imported from {deepesn.__file__}, not {SRC}")
    workload = workloads.make(args.workload, args.seed, str(OUT))
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.unit = "setup"
        tracer.install()
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    return workload, tracer


def _setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up in a fresh interpreter failed ({done.returncode})")
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "deepesn" / "__init__.py").is_file():
        print(f"error: no deepesn package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        started = time.perf_counter()
        _import_and_setup(args)
        print(time.perf_counter() - started)
        return 0

    OUT.mkdir(exist_ok=True)
    memory = TreeMemory()
    memory.start()
    setup_samples = []
    # Fresh interpreters first, while this process is still small.
    while not args.trace and len(setup_samples) < SETUP_MAX_CHILDREN and (
            len(setup_samples) < SETUP_MIN_CHILDREN or sum(setup_samples) < SETUP_MIN_S):
        setup_samples.append(_setup_in_fresh_interpreter(args))
    started = time.perf_counter()
    workload, tracer = _import_and_setup(args, traced=bool(args.trace))
    setup_samples.append(time.perf_counter() - started)

    # Untraced: every unit timed.  Traced: a first unit that also measures
    # the simulator's allocation peak (tracemalloc slows it), then untraced
    # and traced units alternate, so the overhead is measured in this run.
    units, traced, untraced, problems = [], {}, [], []
    clock = time.perf_counter()
    index = 0
    while True:
        kind = "timed"
        if args.trace:
            kind = "probe" if index == 0 else ("traced" if index % 2 == 0 else "untraced")
        if kind in ("probe", "traced"):
            tracer.unit = "probe" if kind == "probe" else index
            tracer.probe_memory = kind == "probe"
            tracer.install()
        try:
            result = workload.unit(index)
        finally:
            if kind in ("probe", "traced"):
                tracer.uninstall()
        problems += result.problems
        units.append(result)
        if kind == "traced":
            traced[index] = result
        elif kind == "untraced":
            untraced.append(result)
        index += 1
        if time.perf_counter() - clock >= args.seconds and index >= workload.min_units and (
                not args.trace or (traced and untraced)):
            break
    problems += workload.check()
    peak_mb = memory.stop()

    attempted = sum(u.guesses for u in units)
    failed = sum(u.failed for u in units)
    if args.trace:
        import spans
        metrics = spans.layer_metrics(tracer.spans, traced, untraced)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        samples = [x for u in units for x in u.samples]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "guesses_per_s": {"value": units[0].guesses_per_sample / statistics.median(samples),
                              "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "setup_samples_s": setup_samples,
            "throughput_samples_s": [u.samples for u in units], "problems": problems}
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": line}, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
