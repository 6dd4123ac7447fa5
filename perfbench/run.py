"""ballrep benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a ballrep checkout:

    python3 perfbench/run.py --workload paper-solves --seed 1 --seconds 25 --trace 0

Workloads: paper-solves, engine-queries, cli-cold (see perfbench/README.md).
Each runs in its own interpreter on one thread (BLAS pinned to 1 thread),
one item after the other.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced pass.  Everything the run writes
goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402

WORKLOADS = ("paper-solves", "engine-queries", "cli-cold")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "failed_frac": "ratio",
                    "max_rel_err": "1", "max_cert_residual": "1", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def spawn(root: str, env: dict, args, mode: str, out_dir: str, deadline: float, tag: str):
    """Run one worker; return (set-up reference seconds, result dict or None).

    Set-up is timed from process start to the worker's ready line, scaled by
    the interpreter start-up kernel run three times just before the start
    and three times at the ready line.
    """
    log = os.path.join(out_dir, f"worker-{tag}.stderr")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", out_dir]
    if args.max_items is not None:
        cmd += ["--max-items", str(args.max_items)]
    setup = result = None
    clock = calibration.Clock(calibration.startup_seconds, samples=3)
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.startswith('{"ready"'):
                    setup = time.perf_counter() - start
                    for _ in range(3):
                        clock.tick()
                    setup *= clock.scale()
                elif line.startswith('{"result"'):
                    result = json.loads(line)["result"]
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or setup is None or (mode != "setup" and result is None):
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise WorkerError(f"{mode} worker exited with {code}:\n{tail}")
    return setup, result


def environment(root: str, env: dict, args, result: dict) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src", "ballrep")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "commit": git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: env[k] for k in THREAD_VARIABLES},
        "src_ballrep_lines": lines,
        "passes": result["passes"],
        "items_per_pass": result["items_per_pass"],
    }


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ballrep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, default=None,
                        help="run only the first N items of each pass (self-tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ballrep", "__init__.py")):
        print("error: run from the root of a ballrep checkout (src/ballrep not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    out_dir = os.path.join(root, ".perfbench_out",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace:
            _, result = spawn(root, env, args, "trace", out_dir, deadline, "trace")
            setups = []
        else:
            setups = [spawn(root, env, args, "setup", out_dir, deadline, f"setup{i}")[0]
                      for i in range(SETUP_REPEATS - 1)]
            setup, result = spawn(root, env, args, "measure", out_dir, deadline, "measure")
            setups.append(setup)
    except (WorkerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from tracer import LAYER_UNITS

        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(result["reference_walls"]),
            "failed_frac": result["failed"] / result["attempted"],
            "max_rel_err": result["max_rel_err"],
            "max_cert_residual": result["max_cert_residual"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    env_block = environment(root, env, args, result)
    report = {"environment": env_block, "setups_s": setups, "worker": result,
              "metrics": metrics}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"environment": env_block}))
    for failure in result["failures"]:
        print(f"failed: {failure}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
