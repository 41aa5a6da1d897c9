"""Benchmark of the dissipative_spins program: sweeps, Landau scans, exact references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/``; one process on one CPU, one BLAS thread. Whole rounds of the
workload's operations are timed for as close to S seconds as whole rounds
come, every output is checked, and the last line of standard output is the
JSON result. Times are reported with the host's speed divided out (see
``ReferenceClock``); the raw wall-clock figures go to the record.
``--trace 1`` wraps the program's modules and reports per-layer metrics
instead of the end-to-end ones. A full record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy loads its BLAS
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = tracing.PACKAGE
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 4        # fresh interpreters timed per run, after one untimed; setup_s is their median
SETUP_REF_CALLS = 3   # reference-kernel calls before and after each of them
REF_S = 1.4e-3        # one ref in seconds: the kernel on an uncontended core of the 2-core VM
REF_INTERVAL = 0.05   # seconds between reference-kernel samples
REF_MARGIN = 0.1      # seconds around an op whose samples give its reference
REF_LOOP = 25


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["inplane_sweep", "staggered_sweep", "landau_scan", "exact_reference"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def pin_cpu() -> tuple[int, int]:
    """Keep the run, its reference kernel and its children on one CPU.

    The cores of a shared host slow down independently; on one core the
    kernel's samples see the speed the ops and the set-up run at. Returns
    the CPU (None where the system refuses) and how many the process could
    use before (what ``nproc`` says).
    """
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None, len(usable)
    return cpu, len(usable)


def import_program():
    """Import the program from this checkout's ``src``, never from elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / PACKAGE}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dissipative_spins

    if Path(dissipative_spins.__file__).resolve().parent != SRC / PACKAGE:
        sys.exit(f"perfbench: imported {dissipative_spins.__file__}, not the checkout's sources")


def time_setup(kernel) -> list[tuple[float, float]]:
    """Start-up every ``dspin`` invocation pays: a fresh interpreter importing the CLI.

    Returns (seconds, host's kernel time around them) per start-up: the
    kernel runs right before and after each child, never alongside it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", f"import {PACKAGE}.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # brings the files into the page cache
    times = []
    for _ in range(SETUP_REPS):
        before = kernel_times(kernel, SETUP_REF_CALLS)
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        spent = time.perf_counter() - t0
        times.append((spent, harmonic_mean(before + kernel_times(kernel, SETUP_REF_CALLS))))
    return times


def kernel_times(kernel, calls: int) -> list[float]:
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def make_reference_kernel():
    """Fixed host-speed yardstick: a Python loop of small numpy calls and one matmul.

    The loop does what the program's bond evaluator does, written afresh:
    Kronecker products of 4-vectors, complex 16x16 and 16x64 matrix-vector
    products, the Hermitian part and a complex 4x4 ``eigvalsh``; then a
    96x96 BLAS call. A host that slows the program slows it alike, so speed
    drift divides out of times expressed in its units.
    """
    import numpy as np

    rng = np.random.default_rng(20150101)
    w1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    w2 = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    big = rng.standard_normal((96, 96))
    vs = [rng.uniform(-0.5, 0.5, 4) for _ in range(8)]

    def kernel() -> float:
        acc = 0.0
        for i in range(REF_LOOP):
            a, b = vs[i % 8], vs[(i + 3) % 8]
            ab = np.kron(a, b)
            k = (w1 @ ab + w2 @ np.kron(ab, a)).reshape(4, 4)
            acc += float(np.abs(np.linalg.eigvalsh(0.5 * (k + k.conj().T))).sum())
        return acc + float((big @ big)[0, 0])

    return kernel


class ReferenceClock:
    """``perf_counter`` minus the time spent in the reference kernel.

    A timer runs the kernel every ``interval`` seconds in the main thread,
    between bytecodes of whatever is running, ops included; its samples
    see the host's speed during the ops themselves, not only between them.
    The kernel's own time is left out of every interval read off ``now``.
    A sample that falls due inside one long native call runs when it returns.
    """

    def __init__(self, kernel, interval: float):
        self.kernel, self.interval = kernel, interval
        self.samples = []   # (perf_counter at start, duration)
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame):
        # a garbage collection the program's allocations are due would
        # otherwise land in a sample; with it held off it runs in the op
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            self.kernel()
        finally:
            spent = time.perf_counter() - t0
            if collecting:
                gc.enable()
        self.samples.append((t0, spent))
        self.paused += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def git_tree_hash(path: Path) -> str:
    """The id git gives this directory's tree (``git rev-parse HEAD:src``), computed without git."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            mode, digest, key = b"40000", git_tree_hash(child), child.name + "/"
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            digest, key = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest(), child.name
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(digest)))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # a source copy without .git, or inside another repository
    return lines[1]


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, cpus) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas = {}
    return {
        "git_sha": git_sha(),
        "src_tree": git_tree_hash(SRC),
        "nproc": cpus[1],
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpus[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "seed": args.seed,
        "seconds": args.seconds,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def run_ops(round_, seconds, clock, tracer):
    """Whole rounds for as close to ``seconds`` as they come; returns timings and verdicts."""
    op_times, op_spans, failures, errors = [], [], [], []
    rounds = attempted = 0
    begin = time.perf_counter()
    while True:
        gc.collect()  # every round starts from the same heap, so peak RSS repeats
        results = []
        for op in round_.ops:
            attempted += 1
            start, t0 = time.perf_counter(), clock.now()
            try:
                if tracer is None:
                    op.run()
                else:
                    with tracer.span("op"):
                        op.run()
                op_times.append(clock.now() - t0)
                op_spans.append((start, time.perf_counter()))
                results.append(op.read())
            except Exception:  # a failed op is counted, the run goes on
                failures.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                results.append(None)
        rounds += 1
        errors += [f"round {rounds}: {e}" for e in round_.check(results)]
        if tracer is not None:
            for res in results:
                if isinstance(res, dict):
                    tracer.counters.update(res.get("counters", {}))
        # stop once another round would end further past ``seconds`` than
        # stopping now ends short of it
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return {"rounds": rounds, "attempted": attempted, "op_times": op_times,
                    "op_refs": local_refs(op_spans, clock.samples),
                    "ref_times": [spent for _, spent in clock.samples],
                    "failures": failures, "errors": errors}


def harmonic_mean(times):
    return len(times) / sum(1.0 / t for t in times)


def local_refs(spans, samples, margin=REF_MARGIN):
    """Reference-kernel time around each op, from ``margin`` s before to after it.

    The samples come at even wall-clock intervals, so the harmonic mean
    weighs each spell of the host by the time it lasted: an op that spent
    half its time at each of two speeds did the work of that mean.
    """
    starts = [t for t, _ in samples]
    overall = harmonic_mean([spent for _, spent in samples])
    refs = []
    for begin, end in spans:
        near = samples[bisect.bisect_left(starts, begin - margin):bisect.bisect_right(starts, end + margin)]
        refs.append(harmonic_mean([spent for _, spent in near]) if near else overall)
    return refs


def end_to_end(run, setup_times) -> dict:
    # each op in units of the reference kernel timed around it, so a fast or
    # slow spell of the host divides out of the op it fell on
    in_ref = [t / ref for t, ref in zip(run["op_times"], run["op_refs"])]
    # and in seconds at the host's full speed, a fixed REF_S per ref: what
    # the op takes when no neighbour on the shared host slows it down
    in_s = [REF_S * x for x in in_ref]
    setup = [REF_S * t / ref for t, ref in setup_times]
    return {
        "wall_s": (sum(in_s) / run["rounds"], "s"),
        "ops_per_s": (len(in_s) / sum(in_s), "1/s"),
        "op_ms.p50": (1e3 * statistics.median(in_s), "ms"),
        "wall_ref": (sum(in_ref) / run["rounds"], "ref"),
        "op_ref.p50": (statistics.median(in_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def probe(workloads, needed, tmp):
    """Per-layer values for layers the workload never reached.

    One small op per missing layer, through the same entry points, each
    traced on its own so that per-op counts describe that op alone.
    """
    steps = (
        (("variational.norm", "variational.compile", "variational.minimize", "variational.restarts",
          "variational.fit", "cli.sweep", "cli.refine", "models."),
         lambda: workloads.sweep_job(tmp, 0.48, 0.04, 2, "uniform", "m", 0, True)[0]),
        (("variational.landau",), lambda: workloads.landau_op(tmp, 0.55, "in-plane")),
        (("liouville.build_ms.n4", "liouville.kernel_ms.n4", "cli.oracle", "operators."),
         lambda: workloads.oracle_op(tmp, 4, 0.7, "probe4")),
        (("liouville.build_ms.n5", "liouville.kernel_ms.n5", "liouville.generator_mb.n5"),
         lambda: workloads.oracle_op(tmp, 5, 0.7, "probe5")),
        (("effective.", "opformat."), lambda: workloads.effective_op(tmp, *workloads.FLIP_RUNS[0])),
    )
    found = {}
    for prefixes, make in steps:
        wanted = [name for name in needed if name.startswith(prefixes) and name not in found]
        if not wanted:
            continue
        op, tracer = make(), tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("op"):
                op.run()
            tracer.counters.update(op.read().get("counters", {}))
        except Exception:  # a probe that fails leaves its metrics unmeasured
            traceback.print_exc()
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics()
        found.update({name: values[name] for name in wanted if values[name] is not None})
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = pin_cpu()
    import_program()
    import workloads

    kernel = make_reference_kernel()
    kernel_times(kernel, 10)  # warm-up
    setup_times = time_setup(kernel)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        round_ = workloads.build_round(args.workload, args.seed, tmp)
        # warm up lazy imports and first-call paths, untimed
        workloads.dspin("oracle", "--n", 2, "--out", tmp / "warm.json")
        workloads.dspin("landau", "--lambda", 0.55, "--out", tmp / "warm.json")

        clock = ReferenceClock(kernel, REF_INTERVAL)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(clock.now)
            tracer.install()
        try:
            with clock:
                run = run_ops(round_, args.seconds, clock, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not run["op_times"]:
            sys.exit("perfbench: every op failed:\n" + "\n".join(run["failures"]))

        e2e = end_to_end(run, setup_times)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "provenance": provenance(args, cpus),
            "inputs": round_.describe,
            "rounds": run["rounds"],
            "attempted": run["attempted"],
            "failed": len(run["failures"]),
            "failures": run["failures"],
            "check_errors": run["errors"],
            "ref_ms": {"q1_p50_q3": [1e3 * x for x in quartiles(run["ref_times"])],
                       "mean": 1e3 * statistics.mean(run["ref_times"]),
                       "n": len(run["ref_times"]),
                       "samples": [1e3 * t for t in run["ref_times"]]},
            # wall-clock times as measured, before the host's speed is divided out
            "raw": {"wall_s": sum(run["op_times"]) / run["rounds"],
                    "op_ms.p50": 1e3 * statistics.median(run["op_times"]),
                    "setup_s": statistics.median(t for t, _ in setup_times)},
            "op_ms": [1e3 * t for t in run["op_times"]],
            "op_refs_ms": [1e3 * t for t in run["op_refs"]],
            "setup_s": [t for t, _ in setup_times],
            "setup_refs_ms": [1e3 * ref for _, ref in setup_times],
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
        }
        if args.trace:
            layers = tracer.layer_metrics()
            needed = [k for k, v in layers.items() if v is None]
            probed = probe(workloads, needed, tmp) if needed else {}
            for k in needed:
                layers[k] = probed.get(k)
            layers["bench.ref_ms"] = 1e3 * statistics.mean(run["ref_times"])
            record.update(per_layer=layers, hooks_missing=tracer.missing,
                          probed=[k for k in needed if layers[k] is not None],
                          unmeasured=[k for k, v in layers.items() if v is None])
            metrics = {k: {"value": 0.0 if v is None else v, "unit": tracing.unit(k)}
                       for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in e2e.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for line in run["errors"] + run["failures"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
