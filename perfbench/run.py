"""invsp benchmark: three exact-search workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gamma7-triple --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One process, one caller, closed loop (``jobs=1``): a pass runs every
operation of the workload in order, and passes repeat until ``--seconds``
have elapsed (at least one pass).  Every result is checked against frozen
expected outcomes.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` one untraced reference pass is followed by traced
passes, and the per-layer metrics, the tracing overhead and the identity of
traced and untraced reports are printed.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Results (with their environment stamp) and spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, unit) reported by a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("ratlp.solve_lp.calls", "count"),
    ("ratlp.solve_lp.s", "s"),
    ("ratlp.solve_lp.ms_per_call", "ms"),
    ("ratlp.solve_lp.rows_mean", "count"),
    ("ratlp.solve_lp.vars_mean", "count"),
    ("ratlp.solve_lp.useful_ratio", "ratio"),
    ("sweep.run_l0_sweep.calls", "count"),
    ("sweep.run_l0_sweep.s", "s"),
    ("sweep.run_l0_sweep.self_s", "s"),
    ("sweep.self_us_per_region", "us"),
    ("sweep.regions_total", "count"),
    ("sweep.regions_explored", "count"),
    ("sweep.regions_infeasible", "count"),
    ("sweep.useful_region_ratio", "ratio"),
    ("sweep.nodes", "count"),
    ("sweep.lp_calls", "count"),
    ("sweep.leaves", "count"),
    ("polycore.Polynomial.__mul__.calls", "count"),
    ("polycore.Polynomial.__mul__.s", "s"),
    ("polycore.Polynomial.__mul__.self_s", "s"),
    ("polycore.Polynomial.__mul__.term_pairs", "count"),
    ("polycore.Polynomial.restrict_to_hyperplane.calls", "count"),
    ("polycore.Polynomial.restrict_to_hyperplane.s", "s"),
    ("polycore.Polynomial.restrict_to_hyperplane.self_s", "s"),
    ("transform.tensor_step.calls", "count"),
    ("transform.tensor_step.s", "s"),
    ("transform.tensor_step.self_s", "s"),
    ("transform.validate_special.calls", "count"),
    ("transform.validate_special.s", "s"),
    ("transform.validate_special.self_s", "s"),
    ("transform.quotient_H.calls", "count"),
    ("transform.quotient_H.s", "s"),
    ("transform.quotient_H.self_s", "s"),
    ("groups.is_invariant.calls", "count"),
    ("groups.is_invariant.s", "s"),
    ("groups.is_invariant.self_s", "s"),
    ("construct.basic_poly_closed.calls", "count"),
    ("construct.basic_poly_closed.s", "s"),
    ("affinefamily.build_coefficient_family.calls", "count"),
    ("affinefamily.build_coefficient_family.s", "s"),
    ("gapsearch.achievable_set.calls", "count"),
    ("gapsearch.achievable_set.s", "s"),
    ("gapsearch.achievable_set.self_s", "s"),
    ("gapsearch.frobenius_closure.calls", "count"),
    ("gapsearch.frobenius_closure.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("rat.rat.calls", "count"),
] + [(f"layer.{layer}.self_s", "s") for layer in LAYERS if layer != "rat"] + [
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class SetupError(Exception):
    """The program to benchmark cannot be found or imported."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- set-up -----------------------------------------------------------------------


def fresh_setup(args):
    """Import invsp from this checkout and build the workload's operations."""
    if not os.path.isfile(os.path.join(SRC, "invsp", "__init__.py")):
        raise SetupError(f"no invsp package under {SRC}")
    for key in [k for k in sys.modules if k == "invsp" or k.startswith("invsp.")]:
        del sys.modules[key]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    m = workloads.load_invsp()
    if not os.path.abspath(m.rat.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported invsp from {m.rat.__file__}, not from {SRC}")
    return m, workloads.build(m, args.workload, args.seed)


def timed_setups(args):
    """Set up SETUP_REPEATS times; the first is timed from process start."""
    times = []
    start = PROCESS_T0
    for _ in range(SETUP_REPEATS):
        m, ops = fresh_setup(args)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
    return m, ops, times


def environment(m, args) -> dict:
    # invsp.rat on the package is the rat() function; read the module itself.
    have_gmpy2 = sys.modules["invsp.rat"].HAVE_GMPY2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "backend": "gmpy2" if have_gmpy2 else "fraction",
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": args.seed,
        "d17_budget": workloads.D17_BUDGET,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    fingerprints: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # (op name, problem)


def run_pass(ops, tracer=None) -> PassResult:
    """Run every operation once; only the calls themselves are timed."""
    res = PassResult(attempted=len(ops))
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0 = time.perf_counter()
        try:
            out, raised = op.run(), None
        except Exception:  # one failed operation must not stop the pass
            raised = traceback.format_exc()
        res.wall += time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        fingerprint = None
        if raised:
            problems = [raised]
        else:
            try:
                problems = op.check(out)
                fingerprint = workloads.digest(op.fingerprint(out))
            except Exception:  # a malformed result
                problems = [traceback.format_exc()]
        if problems:
            res.failed += 1
            res.problems += [(op.name, p) for p in problems]
        res.fingerprints.append(fingerprint)
    return res


def run_passes(ops, seconds, tracer=None):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer))
        if time.perf_counter() - start >= seconds:
            return passes


# -- metrics ----------------------------------------------------------------------


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return int(100 * (n - 10) / n), ordered[n - 11]


def layer_metrics(tracer: Tracer, n_passes: int, traced_walls, untraced_wall) -> dict:
    """Per-pass per-layer values from the tracer, keyed as in PER_LAYER."""
    summary = tracer.summary()

    def get(entry, key):
        return summary.get(entry, {}).get(key, 0) / n_passes

    def ratio(a, b):
        return a / b if b else 0.0

    # "<entry>.<key>" names read straight from the summary; derived ones follow
    values = {name: get(*name.rsplit(".", 1)) for name, _ in PER_LAYER}
    lp = "ratlp.solve_lp"
    lp_calls = get(lp, "calls")
    values.update({
        f"{lp}.ms_per_call": ratio(1000 * get(lp, "s"), lp_calls),
        f"{lp}.rows_mean": ratio(get(lp, "rows"), lp_calls),
        f"{lp}.vars_mean": ratio(get(lp, "vars"), lp_calls),
        f"{lp}.useful_ratio": ratio(get(lp, "useful"), lp_calls),
    })
    sw = "sweep.run_l0_sweep"
    explored = get(sw, "regions_explored")
    infeasible = get(sw, "regions_infeasible")
    values.update({
        "sweep.self_us_per_region": ratio(1e6 * get(sw, "self_s"), explored),
        "sweep.useful_region_ratio": ratio(explored - infeasible, explored),
    })
    for key in ("regions_total", "regions_explored", "regions_infeasible",
                "nodes", "lp_calls", "leaves"):
        values[f"sweep.{key}"] = get(sw, key)
    for layer, seconds in tracer.layer_self_seconds().items():
        if layer != "rat":
            values[f"layer.{layer}.self_s"] = seconds / n_passes
    traced_wall = statistics.median(traced_walls)
    values.update({
        "trace.spans": len(tracer.spans) / n_passes,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- one workload -----------------------------------------------------------------


def run_workload(args) -> int:
    try:
        m, ops, setup_times = timed_setups(args)
    except (SetupError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    env = environment(m, args)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    problems = []
    tracer = None
    if args.trace:
        reference = run_pass(ops)
        tracer = Tracer()
        with tracer:
            passes = run_passes(ops, args.seconds, tracer)
        for i, p in enumerate(passes):
            if p.fingerprints != reference.fingerprints:
                diff = [op.name for op, a, b in zip(ops, reference.fingerprints, p.fingerprints)
                        if a != b]
                problems.append(f"traced pass {i} reports differ from untraced in {diff}")
        all_passes = [reference] + passes
    else:
        passes = run_passes(ops, args.seconds)
        for i, p in enumerate(passes[1:], 1):
            if p.fingerprints != passes[0].fingerprints:
                problems.append(f"pass {i} reports differ from pass 0")
        all_passes = passes

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for p in all_passes:
        for name, text in p.problems:
            print(f"FAILED {name}: {text}", file=sys.stderr)
    for text in problems:
        print(f"FAILED {text}", file=sys.stderr)
    correct = failed == 0 and not problems
    walls = [p.wall for p in passes]

    if args.trace:
        metrics = layer_metrics(tracer, len(passes), walls, reference.wall)
        for name, _ in PER_LAYER:
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        print("traced reports identical to untraced: " + ("yes" if not problems else "NO"))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]}={tail[1]:.4f} s" if tail
                     else "no tail percentile (fewer than 11 samples)")
        print(f"wall_s: median={metrics['wall_s']['value']:.4f} s  {tail_text}  "
              f"samples={len(walls)}")
        print(f"setup_s: median={metrics['setup_s']['value']:.4f} s  samples={len(setup_times)}")
        print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"fail_ratio: {failed / attempted:.4g} ratio ({failed}/{attempted})")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "pass_walls_s": walls,
        "setup_s_samples": setup_times,
    }
    if tracer is not None:
        record["entries"] = tracer.summary()
        tracer.write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# -- every workload, each in a fresh process ------------------------------------


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
        print(f"== {name}")
        print("\n".join(lines[:-1]))
    if not args.trace:
        print(f"{'workload':<20}{'wall_s':>12}{'setup_s':>10}{'peak_rss_mb':>13}{'fail_ratio':>12}")
        for name, r in rows:
            mt = r["metrics"]
            print(f"{name:<20}{mt['wall_s']['value']:>12.4f}{mt['setup_s']['value']:>10.4f}"
                  f"{mt['peak_rss_mb']['value']:>13.1f}{r['failed'] / r['attempted']:>12.4g}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
