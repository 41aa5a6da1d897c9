"""Record a point of the perf trajectory: every benchmark workload, untraced and traced.

    python3 scripts/bench.py --label NAME [--root CHECKOUT]

Runs the benchmark command that ``BENCHMARK.json`` declares
(``perfbench/run.py`` on one BLAS thread) from the checkout at --root
(default: this one) for each of its workloads at a fixed seed, once
untraced and once with ``--trace 1``, one run at a time. Then times the
A2 and A3 acceptance sweeps (``dspin sweep`` over 0.3-0.7 uniform and
1.3-1.7 bipartite, step 0.01, refined, seed 0, ``--jobs 1``) from that
checkout's ``src/``, three times each on one BLAS thread and the lowest
CPU this process may use, interpreter start-up included; these are not
benchmark workloads. Each such child is timed by ``time_child``: the
benchmark's reference kernel (``make_reference_kernel`` from this
checkout's ``perfbench/run.py``) runs ``SETUP_REF_CALLS`` times just
before and after it on the same CPU, this process pinned there while it
times, and the raw seconds (``wall_s``) go beside the seconds divided by
the harmonic mean of those kernel times (``wall_ref``, in the benchmark's
ref units, so a slow spell of the host divides out of the quoted time).
The last CSV of each is fitted with ``dspin fit`` as the acceptance tests
fit it, and its ``lambda_c`` and ``beta`` go beside the times, with the
CSV's sha256 (``csv_sha256``), so that two BENCH files show whether a
change left the A2 and A3 outputs byte-identical. One more run of each sweep, in a child process on the
checkout's ``src/``, counts the calls of ``variational._spectra`` (the one
stacked ``eigvalsh`` every norm evaluation of a batch ends in), the rows
they carry and the seconds spent inside them (``spectra_calls``,
``spectra_rows``, ``spectra_s``): the number of links a change to the
per-call cost works on, and what those links cost in that run; it also
counts the ``CompiledBond`` constructions of the sweep (``compiles``: one
per batch, so two for a refined sweep on one worker) and the calls of
``variational._derivative_features`` (one per Newton derivative pass) and
the states they carry (``derivative_calls``, ``derivative_rows``). Under
``oracle``, one child process on the checkout's ``src/``, on one BLAS thread
and the lowest CPU, writes the ``dspin oracle`` JSON of rings of 4, 5 and 6
sites at lambda 0 and 0.7 and records its sha256 (``json_sha256``, the
oracle's counterpart of ``csv_sha256``), and the median of 5 timings of each
of ``liouville.ring_liouvillian`` and ``steady_states`` at each point,
untraced and warm: the traced ``liouville`` layers of the workloads also
form the dense generator. Before the ``dspin oracle`` call of each point it
times one ``steady_states`` call with the sector plan cache emptied
(``steady_states_first_ms``): the plan is built inside it, as in a one-shot
``dspin oracle`` process. Then it times the
start-up every ``dspin`` call pays: five fresh interpreters that only
``import dissipative_spins.cli``, on one BLAS thread and the lowest CPU,
timed by ``time_child``, and one more under ``python -X importtime``
whose cumulative microseconds of ``numpy``, ``scipy`` (0 when start-up
does not load it) and each ``dissipative_spins`` module go beside them.
Last it times one full tier-1 test run (``python -m pytest -q
--continue-on-collection-errors`` in the checkout, its ``src/`` on the
path, one BLAS thread, no CPU pinning, since some tests start worker
processes). Writes ``BENCH_<label>.json`` next to
this checkout's ``BENCHMARK.json``: the checkout's git sha and whether its
``src/`` differed from that commit, the git tree id of ``src/`` from the
runs' records, per run its last-line JSON result and the path of its full
record inside the checkout, per sweep its times (``wall_s`` and ``wall_ref``
with their medians), point count and fit, under ``startup`` the import
times in the same two units and their medians, and under ``tier1`` the
test run's wall time, exit code and passed/failed/error counts, and under
``src_lines`` the non-blank lines of each ``src/dissipative_spins`` module
and their total, and of each ``scripts/*.py`` file (``scripts``), so a
change that shrinks the code quotes its size from the same file as its
timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
from run import SETUP_REF_CALLS, harmonic_mean, kernel_times, make_reference_kernel  # noqa: E402

SEED = 1
SWEEP_REPEATS = 3
STARTUP_REPEATS = 5
# the acceptance sweeps A2 and A3 and their fits, as tests/test_acceptance.py runs them
SWEEPS = {
    "a2_uniform_sweep": (["--ansatz", "uniform", "--lambda-min", "0.3", "--lambda-max", "0.7"],
                         ["--which", "m", "--window", "0.01,0.1"]),
    "a3_bipartite_sweep": (["--ansatz", "bipartite", "--lambda-min", "1.3", "--lambda-max", "1.7"],
                           ["--which", "ms", "--window", "0.01,0.1"]),
}


# runs ``dspin`` (its arguments follow the script) counting the calls, rows and seconds of
# _spectra, the CompiledBond constructions, and the calls and states of _derivative_features
COUNT_SPECTRA = """\
import sys, time
from dissipative_spins import cli, variational
counts = [0, 0, 0.0, 0, 0, 0]
spectra = variational._spectra
def counted(products):
    counts[0] += 1
    counts[1] += len(products)
    t0 = time.perf_counter()
    lam = spectra(products)
    counts[2] += time.perf_counter() - t0
    return lam
variational._spectra = counted
compile_ = variational.CompiledBond.__init__
def counted_compile(self, model):
    counts[3] += 1
    compile_(self, model)
variational.CompiledBond.__init__ = counted_compile
derivatives = variational._derivative_features
def counted_derivatives(alpha_a, *args):
    counts[4] += 1
    counts[5] += len(alpha_a)
    return derivatives(alpha_a, *args)
variational._derivative_features = counted_derivatives
code = cli.main(sys.argv[1:])
print(*counts)
sys.exit(code)
"""


ORACLE_POINTS = [(n, lam) for n in (4, 5, 6) for lam in (0.0, 0.7)]
ORACLE_REPEATS = 5
# writes the ``dspin oracle`` JSON of each point into the directory argv[1] names, then
# prints one JSON list: per point its sha256, the milliseconds of a first steady_states call
# with the sector plan cache emptied (a checkout without one has nothing to empty), and
# the median milliseconds of the two calls, warm
TIME_ORACLE = """\
import hashlib, json, statistics, sys, time
from pathlib import Path
from dissipative_spins import cli, liouville
from dissipative_spins.liouville import ring_liouvillian, steady_states
from dissipative_spins.models import LatticeSpec, dissipative_heisenberg
out, points, repeats = Path(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3])
rows = []
for n, lam in points:
    model = dissipative_heisenberg(lam, LatticeSpec())
    liou = ring_liouvillian(model, n)
    if hasattr(liouville, "_sector_plan"):
        liouville._sector_plan.cache_clear()
    t0 = time.perf_counter()
    steady_states(liou)
    first = 1e3 * (time.perf_counter() - t0)
    path = out / f"oracle_{n}_{lam}.json"
    if cli.main(["oracle", "--n", str(n), "--lambda", str(lam), "--out", str(path)]) != 0:
        sys.exit(f"oracle n = {n}, lambda = {lam} failed")
    times = {"ring_liouvillian_ms": [], "steady_states_ms": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        liou = ring_liouvillian(model, n)
        t1 = time.perf_counter()
        steady_states(liou)
        t2 = time.perf_counter()
        for key, dt in zip(times, (t1 - t0, t2 - t1)):
            times[key].append(1e3 * dt)
    rows.append({"n": n, "lambda": lam, "json_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                 "steady_states_first_ms": first, **{key: statistics.median(ts) for key, ts in times.items()}})
print(json.dumps(rows))
"""


def git(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)


def child_env(root: Path) -> dict:
    """This environment with the checkout's ``src/`` on the path and one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def time_child(argv: list, env: dict, cpu: int) -> tuple:
    """Run ``argv`` as a child on ``cpu``: (its CompletedProcess, wall seconds, them in refs).

    The benchmark's reference kernel runs SETUP_REF_CALLS times just before
    and just after the child, as perfbench times its set-up; the seconds in
    refs are the wall seconds over the harmonic mean of those kernel times.
    This process pins itself to ``cpu`` while it times, so the kernel and
    the child, which inherits the pin, run on the same CPU.
    """
    kernel = make_reference_kernel()
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        before = kernel_times(kernel, SETUP_REF_CALLS)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        spent = time.perf_counter() - t0
        ref = harmonic_mean(before + kernel_times(kernel, SETUP_REF_CALLS))
    finally:
        os.sched_setaffinity(0, usable)
    return proc, spent, spent / ref


def count_run(root: Path, argv: list) -> dict:
    """``dspin`` with ``argv`` in the COUNT_SPECTRA child on the checkout's ``src/``: its counts."""
    proc = subprocess.run([sys.executable, "-c", COUNT_SPECTRA, *argv], env=child_env(root),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: counting run exited with {proc.returncode}:\n{proc.stderr}")
    calls, rows, seconds, compiles, derivative_calls, derivative_rows = proc.stdout.split()
    return {"spectra_calls": int(calls), "spectra_rows": int(rows), "spectra_s": float(seconds),
            "compiles": int(compiles), "derivative_calls": int(derivative_calls),
            "derivative_rows": int(derivative_rows)}


def run_one(root: Path, command: list, workload: str, seconds: float, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {workload} trace {trace} exited with {proc.returncode}:\n{proc.stderr}")
    record = next(ln.split("record in ", 1)[1] for ln in lines if "record in " in ln)
    src_tree = json.loads((root / record).read_text())["provenance"]["src_tree"]
    return {"workload": workload, "seed": SEED, "trace": trace, "record": record,
            "src_tree": src_tree, "result": json.loads(lines[-1])}


def time_sweep(root: Path, name: str, args: list, fit_args: list) -> dict:
    argv = [sys.executable, "-m", "dissipative_spins.cli", "sweep", *args,
            "--step", "0.01", "--seed", "0", "--jobs", "1"]
    env = child_env(root)
    cpu = min(os.sched_getaffinity(0))
    times, refs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for _ in range(SWEEP_REPEATS):
            proc, spent, in_ref = time_child(argv + ["--out", str(out)], env, cpu)
            times.append(spent)
            refs.append(in_ref)
            if proc.returncode != 0:
                sys.exit(f"bench: {name} exited with {proc.returncode}:\n{proc.stderr}")
        points = len(out.read_text().strip().splitlines()) - 1
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        counted = Path(tmp) / "counted.csv"
        counts = count_run(root, argv[3:] + ["--out", str(counted)])
        if counted.read_bytes() != out.read_bytes():
            sys.exit(f"bench: {name} counting run wrote another CSV")
        fit_argv = argv[:3] + ["fit", "--in", str(out), *fit_args]
        proc = subprocess.run(fit_argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench: {name} fit exited with {proc.returncode}:\n{proc.stderr}")
        fit = json.loads(proc.stdout)
    return {"name": name, "argv": ["dspin"] + argv[3:], "cpu": cpu, "points": points,
            "wall_s": times, "wall_s_median": statistics.median(times),
            "wall_ref": refs, "wall_ref_median": statistics.median(refs),
            "fit_argv": ["dspin", "fit", *fit_args],
            "lambda_c": fit["lambda_c"], "beta": fit["beta"], "csv_sha256": digest, **counts}


def time_oracle(root: Path, points=ORACLE_POINTS, repeats=ORACLE_REPEATS) -> dict:
    """The TIME_ORACLE child on the checkout's ``src/``, on the lowest CPU: its points."""
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", TIME_ORACLE, tmp, json.dumps(points), str(repeats)],
                              env=child_env(root), capture_output=True, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        sys.exit(f"bench: oracle timing exited with {proc.returncode}:\n{proc.stderr}")
    return {"cpu": cpu, "repeats": repeats, "points": json.loads(proc.stdout)}


def time_startup(root: Path) -> dict:
    argv = [sys.executable, "-c", "import dissipative_spins.cli"]
    env = child_env(root)
    cpu = min(os.sched_getaffinity(0))
    times, refs = [], []
    for _ in range(STARTUP_REPEATS):
        proc, spent, in_ref = time_child(argv, env, cpu)
        times.append(spent)
        refs.append(in_ref)
        if proc.returncode != 0:
            sys.exit(f"bench: start-up import exited with {proc.returncode}:\n{proc.stderr}")
    proc = time_child([sys.executable, "-X", "importtime", *argv[1:]], env, cpu)[0]
    if proc.returncode != 0:
        sys.exit(f"bench: -X importtime start-up exited with {proc.returncode}:\n{proc.stderr}")
    # "import time: self [us] | cumulative | name", one line per module loaded
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    modules = {"numpy": cumulative.get("numpy", 0), "scipy": cumulative.get("scipy", 0)}
    modules.update((name, us) for name, us in cumulative.items()
                   if name.split(".")[0] == "dissipative_spins")
    return {"argv": ["python"] + argv[1:], "cpu": cpu, "wall_s": times,
            "wall_s_median": statistics.median(times), "wall_ref": refs,
            "wall_ref_median": statistics.median(refs), "importtime_cumulative_us": modules}


def time_tier1(root: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    env = child_env(root)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: 0 for kind in ("passed", "failed", "errors")}
    for number, kind in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        counts["errors" if kind.startswith("error") else kind] = int(number)
    return {"argv": ["python"] + argv[1:], "wall_s": wall, "returncode": proc.returncode,
            **counts, "summary": summary}


def count_src_lines(root: Path) -> dict:
    """Non-blank lines per ``src/dissipative_spins`` module and their total, and per ``scripts/*.py``."""
    def count(folder: Path) -> dict:
        return {path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
                for path in sorted(folder.glob("*.py"))}

    modules = count(root / "src" / "dissipative_spins")
    return {"modules": modules, "total": sum(modules.values()), "scripts": count(root / "scripts")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--root", type=Path, default=HERE, help="checkout to benchmark")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs.append(run_one(root, spec["command"], workload, spec["run_seconds"], trace))
            print(f"bench: {workload} trace {trace} done", file=sys.stderr)
    sweeps = []
    for name, (sweep_args, fit_args) in SWEEPS.items():
        sweeps.append(time_sweep(root, name, sweep_args, fit_args))
        print(f"bench: {name} done", file=sys.stderr)
    oracle = time_oracle(root)
    print("bench: oracle done", file=sys.stderr)
    startup = time_startup(root)
    print(f"bench: startup done ({startup['wall_s_median']:.3f} s)", file=sys.stderr)
    tier1 = time_tier1(root)
    print(f"bench: tier1 done ({tier1['summary']})", file=sys.stderr)
    sha = git(root, "rev-parse", "HEAD").stdout.strip() or None
    out = {
        "label": args.label,
        "git_sha": sha,
        "src_modified": bool(sha) and git(root, "diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "src_tree": sorted({r.pop("src_tree") for r in runs}),
        "command": spec["command"],
        "seconds": spec["run_seconds"],
        "runs": runs,
        "sweeps": sweeps,
        "oracle": oracle,
        "startup": startup,
        "tier1": tier1,
        "src_lines": count_src_lines(root),
    }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
