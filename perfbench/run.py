"""Run the repository benchmark.

    python3 perfbench/run.py --workload dumbbell_tcp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from the root of a checkout: the program is imported from
``src/`` there. ``--trace 0`` prints the end-to-end metrics, measured
with tracing off; ``--trace 1`` runs the traced pass and prints the
per-layer metrics. ``--workload all`` runs every workload, each in a
fresh interpreter. The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("dumbbell_tcp", "chain_udp64", "transit_mp")


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources, so a result names the
    exact code it measured even outside a git repository."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit_id(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: str, workload: str) -> dict:
    cpus = os.cpu_count() or 1
    env = {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "kernel": platform.release(),
        "commit": commit_id(root),
        "source_sha256": source_digest(os.path.join(root, "src", "repro"))[:16],
    }
    if workload == "transit_mp" and cpus < 2:
        env["flag"] = "fewer than 2 CPUs: the 2 workers share one CPU"
    return env


def import_program(root: str):
    """Import ``repro`` from the checkout's ``src/`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program to measure: {src}/repro is missing "
            "(run from the root of a checkout)"
        )
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")


def load_workload(name: str, root: str):
    import_program(root)
    sys.path.insert(0, os.path.dirname(HERE))
    from perfbench import workloads

    return workloads.WORKLOADS[name]


def run_one(args, root: str) -> dict:
    workload = load_workload(args.workload, root)
    env = environment(root, workload.name)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if "flag" in env:
        print(f"WARNING: {env['flag']}")
    if args.trace:
        from perfbench.tracing import traced_run

        result = traced_run(workload, args.seed, root)
    else:
        from perfbench.measure import measure

        result = measure(
            workload, args.seed, args.seconds, os.path.abspath(__file__), root
        )
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print_metrics(result)
    return result


def run_all(args, root: str) -> dict:
    """Each workload in a fresh interpreter, so RSS and GC state do not
    carry over; prints every workload's metrics by name and unit."""
    import_program(root)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            merged["failed"] += 1
            merged["attempted"] += 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--experiment", action="store_true",
        help="internal: run one experiment and print it as JSON",
    )
    args = parser.parse_args(argv)
    if args.experiment and args.workload == "all":
        parser.error("--experiment needs a single workload")
    root = os.getcwd()
    if args.experiment:
        workload = load_workload(args.workload, root)
        from perfbench.measure import experiment_main

        print(json.dumps(experiment_main(workload, args.seed)))
        return 0
    if args.workload == "all":
        result = run_all(args, root)
    else:
        result = run_one(args, root)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
