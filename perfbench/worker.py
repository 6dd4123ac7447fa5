"""One benchmark process: set up, run timed passes, check every output.

Run by run.py in a fresh interpreter, with ``src`` on PYTHONPATH and the
BLAS thread count pinned to 1.  It prints one JSON line ``{"ready": true}``
when set-up is done (the parent times set-up up to that line) and one
JSON line with the results at the end.

Modes:
  setup    set up (import ballrep, make the first pass's inputs, run one
           untimed warm-up item) and exit
  measure  set up, then run passes with tracing off, with a calibration
           kernel between items
  trace    set up, then run pairs of passes (tracing off, tracing on) on
           the same inputs

Pass k of a run uses inputs made from (seed, k), so a run samples several
inputs of the same shape.  The number of passes is fixed by --seconds and
the workload's nominal pass time, not by the clock, so the whole run (its
items, and which of them fail) is fixed by the seed and --seconds.  Only on
a host so slow that the passes take twice --seconds does a run stop early.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402


# reference seconds of one untraced pass on the 2-core Intel Xeon the
# benchmark was built on; a run makes as many passes as fill --seconds there
NOMINAL_PASS_S = {"paper-solves": 5.1, "engine-queries": 4.7, "cli-cold": 7.4}


def pass_count(workload: str, seconds: float, per_pass: int = 1) -> int:
    """Passes (or pairs of passes, per_pass = 2) that fill ``seconds`` nominally."""
    return max(1, round(seconds / (per_pass * NOMINAL_PASS_S[workload])))


class Workload:
    """Binds a workload name to its item lists."""

    def __init__(self, name: str, seed: int, out_dir: str):
        import workloads

        if name == "paper-solves":
            self._items = lambda k: workloads.paper_solves(seed, k)
            self.warmup = workloads.paper_solves_warmup(seed)
        elif name == "engine-queries":
            self._items = lambda k: workloads.engine_queries(seed, k)
            self.warmup = workloads.engine_queries_warmup(seed)
        elif name == "cli-cold":
            paths = workloads.write_cli_inputs(os.path.join(out_dir, "inputs"), seed)
            self._items = lambda k: workloads.cli_cold(paths, seed)
            self.warmup = workloads.cli_cold_warmup(paths, seed)
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.in_process = name != "cli-cold"

    def items(self, k: int, limit: int | None = None):
        return self._items(k)[:limit]


def run_pass(items, tracer=None, clock=None):
    """Run every item once, one after the other; return (wall, outputs).

    With a calibration clock, the kernel runs after each item; the wall time
    counts only the items.
    """
    outputs = []
    wall = 0.0
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            outputs.append((True, item.call()))
        except Exception as exc:  # an unexpected raise fails the item
            outputs.append((False, f"{type(exc).__name__}: {exc}"))
        wall += time.perf_counter() - start
        if clock is not None:
            clock.tick()
    return wall, outputs


# a relative error this large is a wrong answer, not an inaccurate one: it is
# three times the worst known defect (spherical B_{1/2} at n = 3, 3.1e-2)
GROSS_REL_ERR = 0.1


def check_pass(items, outputs, tally):
    """Check each output; count failures, wrong answers and malformed outputs.

    An item fails when it raised, exited with an unexpected code or missed
    its reference check.  Malformed outputs and gross errors also make the
    run incorrect.
    """
    for item, (ran, out) in zip(items, outputs):
        tally["attempted"] += 1
        if not ran:
            tally["raised"] += 1
            tally["failed"] += 1
            tally["failures"].append(f"{item.id}: {out}")
            continue
        try:
            outcome = item.check(out)
        except Exception as exc:  # malformed output
            tally["wrong"] += 1
            tally["failed"] += 1
            tally["failures"].append(f"{item.id}: check raised {type(exc).__name__}: {exc}")
            continue
        if not outcome.ok:
            tally["failed"] += 1
            tally["failures"].append(f"{item.id}: {outcome.note}")
        if outcome.rel_err is not None:
            tally["max_rel_err"] = max(tally["max_rel_err"], outcome.rel_err)
            tally["wrong"] += outcome.rel_err > GROSS_REL_ERR
        if outcome.cert_residual is not None:
            tally["max_cert_residual"] = max(tally["max_cert_residual"], outcome.cert_residual)


def traced_pass(workload, items, out_dir, k):
    """One pass with every layer wrapped; returns (wall, outputs, spans)."""
    import tracer as layertrace

    if workload.in_process:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            wall, outputs = run_pass(items, tracer)
        finally:
            tracer.uninstall()
        return wall, outputs, tracer.spans, tracer.missing
    import cli_child

    spans, outputs = [], []
    start = time.perf_counter()
    missing = []
    for item in items:
        run, child_spans, child_missing = cli_child.run_traced(
            item.meta["argv"], item.id, os.path.join(out_dir, f"cli-spans-{k}.jsonl"),
            offset=len(spans))
        spans.extend(child_spans)
        outputs.append((True, run))
        missing = child_missing
    return time.perf_counter() - start, outputs, spans, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--max-items", type=int, default=None)
    args = parser.parse_args(argv)

    import ballrep  # noqa: F401  (set-up covers the package import)

    workload = Workload(args.workload, args.seed, args.out_dir)
    items = workload.items(0, args.max_items)
    run_pass([workload.warmup])
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return 0

    tally = {"attempted": 0, "failed": 0, "raised": 0, "wrong": 0, "failures": [],
             "max_rel_err": 0.0, "max_cert_residual": 0.0}
    walls, scaled, kernels, traced = [], [], [], []
    passes = []
    begin = time.perf_counter()
    clock = None
    if args.mode == "measure":
        clock = calibration.Clock(calibration.compute_seconds if workload.in_process
                                  else calibration.startup_seconds)
    rounds = pass_count(args.workload, args.seconds, 2 if args.mode == "trace" else 1)
    for k in range(rounds):
        if k > 0:
            if time.perf_counter() - begin > 2 * args.seconds:
                break  # keep the run within its time limit on a very slow host
            items = workload.items(k, args.max_items)
        wall, outputs = run_pass(items, clock=clock)
        if clock is not None:
            kernels.append(clock.samples)
            scaled.append(wall * clock.scale())
        walls.append(wall)
        passes.append((items, outputs))
        if args.mode == "trace":
            t_wall, t_outputs, spans, missing = traced_pass(workload, items, args.out_dir, k)
            traced.append((t_wall, wall, spans, missing, k))
            passes.append((items, t_outputs))
    measured = time.perf_counter() - begin
    # peak memory of the workload itself, before the references are computed
    usage = resource.getrusage(
        resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)

    for items, outputs in passes:
        check_pass(items, outputs, tally)
    result = {
        "walls": walls,
        "reference_walls": scaled,
        "kernel_s": kernels,
        "measured_s": measured,
        "check_s": time.perf_counter() - begin - measured,
        "passes": len(walls),
        "items_per_pass": len(items),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "raised": tally["raised"],
        "wrong": tally["wrong"],
        "failures": sorted(set(tally["failures"])),
        "max_rel_err": tally["max_rel_err"],
        "max_cert_residual": tally["max_cert_residual"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if traced:
        import tracer

        # report the traced pass whose wall time is the median
        traced.sort(key=lambda t: t[0])
        t_wall, u_wall, spans, missing, k = traced[(len(traced) - 1) // 2]
        metrics = tracer.layer_metrics(spans, t_wall)
        metrics["trace.overhead_s"] = statistics.median(t[0] - t[1] for t in traced)
        trace_path = os.path.join(args.out_dir, "trace.jsonl")
        tracer.write_jsonl(spans, trace_path)
        result.update(layer=metrics, trace_file=trace_path, unpatched=missing, traced_pass=k)
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
