"""Record a point of the perf trajectory: every benchmark workload, untraced and traced.

    python3 scripts/bench.py --label NAME [--root CHECKOUT]

Runs the benchmark command that ``BENCHMARK.json`` declares
(``perfbench/run.py`` on one BLAS thread) from the checkout at --root
(default: this one) for each of its workloads at a fixed seed, once
untraced and once with ``--trace 1``, one run at a time. Writes
``BENCH_<label>.json`` next to this checkout's ``BENCHMARK.json``: the
checkout's git sha and whether its ``src/`` differed from that commit, the
git tree id of ``src/`` from the runs' records, and per run its last-line
JSON result and the path of its full record inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 1


def git(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)


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
    sha = git(root, "rev-parse", "HEAD").stdout.strip() or None
    out = {
        "label": args.label,
        "git_sha": sha,
        "src_modified": bool(sha) and git(root, "diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "src_tree": sorted({r.pop("src_tree") for r in runs}),
        "command": spec["command"],
        "seconds": spec["run_seconds"],
        "runs": runs,
    }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
