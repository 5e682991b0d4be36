#!/usr/bin/env python3
"""siotsec benchmark: closed-loop workloads with one client, oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src; nothing
is installed.  Workload names, metric names and units come from
BENCHMARK.json.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of one traced cycle with --trace 1.  The
lines before it are a human-readable report; the full report (environment,
per-op-kind latencies, failures) and, when traced, the spans go to
.perfbench_work/.
"""
import os
import sys

# one client, no hidden parallelism: pin BLAS/OpenMP before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
MAX_FAILURES_SHOWN = 5
# sop_rel_err_max and tv_abs_err_max cover the first timed cycles, a fixed set
# of inputs for a seed, so they do not depend on how many cycles a run reaches
STATS_CYCLES = 8


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_siotsec() -> float:
    """Import the package from ./src and return the seconds it took."""
    if not (SRC / "siotsec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: error: no siotsec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import siotsec
    import siotsec.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not Path(siotsec.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: error: siotsec imported from {siotsec.__file__}, not {SRC}")
    return elapsed


def probe(workload: str, seed: int) -> None:
    """One set-up as the workload process does it, then report ready."""
    import_siotsec()
    import workloads
    WORK.mkdir(exist_ok=True)
    workloads.build(workload, seed, 0, WORK)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to first op ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe",
                                 "--workload", workload, "--seed", str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise SystemExit(f"perfbench: error: set-up probe for {workload} failed")
    return samples


class Cycles:
    """The workload's cycles, each built and given its references on first use.

    Building a cycle and computing its references happen between cycles, so
    they fall outside every op's latency and outside the `--seconds` of op
    time.  Only pooled variants are kept; a fresh variant is kept until the
    next one is built (a traced run reruns it once).
    """

    def __init__(self, workload: str, seed: int):
        import workloads
        self.workload, self.seed = workload, seed
        self.pooled = workloads.INPUT_POOL[workload] is not None
        self.built: dict[int, tuple[list, list]] = {}

    def get(self, cycle_no: int) -> tuple[list, list]:
        import workloads
        variant = workloads.variant_of(self.workload, cycle_no)
        if variant not in self.built:
            if not self.pooled:
                self.built.clear()
            ops = workloads.build(self.workload, self.seed, variant, WORK)
            self.built[variant] = ops, [op.reference() for op in ops]
        return self.built[variant]


@dataclass
class Result:
    cycle: int
    slot: int
    op: object
    latency: float
    failure: str | None
    completed: bool  # returned without raising (an oracle miss still completed)


def execute(cycle_no, ops, refs, stats, *, tracer=None, only=None, budget=math.inf):
    """Run one cycle's ops (or the slots in `only`) in order, closed loop, and
    stop early once `budget` seconds of op time are spent."""
    results, busy = [], 0.0
    for k in range(len(ops)) if only is None else only:
        if busy >= budget:
            break
        op = ops[k]
        if tracer is not None:
            tracer.op_id = k
        t0 = time.perf_counter()
        try:
            out = op.run()
            failure = None
        except Exception as e:  # an op that raises is a failed op, not a benchmark crash
            failure = f"raised {type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        busy += latency
        completed = failure is None
        if completed:
            problems = op.check(out, refs[k], stats)
            failure = "; ".join(problems) if problems else None
        results.append(Result(cycle_no, k, op, latency, failure, completed))
    return results


def busy_s(results) -> float:
    return sum(r.latency for r in results)


def quantile(values, pct: int) -> float:
    """Percentile `pct` (an integer), interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(results, tail_pct: int) -> dict:
    """Latency and rate figures over every op of one phase, each op counted once."""
    lat = [r.latency for r in results]
    done = [r.op for r in results if r.completed]
    busy = sum(lat)
    tail = quantile(lat, tail_pct)
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.latency)
    return {
        "ops": len(results),
        "cycles": len({r.cycle for r in results}),
        "busy_s": busy,
        "ops_per_s": len(done) / busy,
        "op_p50_ms": 1e3 * quantile(lat, 50),
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": sum(t > tail for t in lat),
        "mc_samples_per_s": sum(op.mc_samples for op in done) / busy,
        "attack_iters_per_s": sum(op.attack_iters for op in done) / busy,
        "kind_median_ms": {kind: 1e3 * statistics.median(ts)
                           for kind, ts in sorted(by_kind.items())},
    }


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "clients": 1,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = {"Data": "d", "Instruction": "i"}.get((d / "type").read_text().strip(), "")
            env["caches"][f"L{(d / 'level').read_text().strip()}{kind}"] = (
                (d / "size").read_text().strip())
    except OSError:
        pass
    return env


def measure_timed(args, config, cycles):
    """End-to-end metrics: the closed loop runs for `args.seconds` of op time."""
    import workloads
    stats: dict = {}
    setup = measure_setup(args.workload, args.seed)
    timed, cycle_no = [], 1
    while busy_s(timed) < args.seconds:
        ops, refs = cycles.get(cycle_no)
        timed += execute(cycle_no, ops, refs, stats if cycle_no <= STATS_CYCLES else {},
                         budget=args.seconds - busy_s(timed))
        cycle_no += 1
    s = summarize(timed, workloads.TAIL_PERCENTILE[args.workload])
    s["setup_s"] = statistics.median(setup)
    s["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": len(setup), "peak_rss_mib": 1}
    metrics = {m["name"]: (s[m["name"]], m["unit"], samples.get(m["name"], s["ops"]))
               for m in config["end_to_end"]}
    extra = {"op_tail_percentile": (s["op_tail_percentile"], "%", s["ops"]),
             "op_tail_ops_beyond": (s["op_tail_ops_beyond"], "count", s["ops"])}
    if args.workload == "monte_carlo":
        extra["mc_samples_per_s"] = (s["mc_samples_per_s"], "1/s", s["ops"])
    if args.workload == "attack_defense":
        extra["attack_iters_per_s"] = (s["attack_iters_per_s"], "1/s", s["ops"])
    if "sop_values" in stats:
        extra["sop_rel_err_max"] = (stats["sop_rel_err_max"], "1", stats["sop_values"])
    if "tv_values" in stats:
        extra["tv_abs_err_max"] = (stats["tv_abs_err_max"], "1", stats["tv_values"])
    return timed, metrics, extra, {"summary": s}


def measure_traced(args, config, cycles, import_s):
    """Per-layer metrics of one traced cycle, and the tracing overhead.

    Each cycle runs untraced and then traced, on the same inputs, until
    `args.seconds` of op time, so load from outside the benchmark hits both
    sides alike; the layer figures come from the first traced cycle, the
    overhead from every op of both sides.
    """
    import tracer as tracing
    import workloads
    spans = tracing.Tracer()
    untraced, traced, first, cycle_no = [], [], None, 1
    while first is None or busy_s(untraced) + busy_s(traced) < args.seconds:
        ops, refs = cycles.get(cycle_no)
        untraced += execute(cycle_no, ops, refs, {})
        with spans:
            traced += execute(cycle_no, ops, refs, {}, tracer=spans)
        if first is None:
            first = list(spans.spans)
        spans.spans.clear()
        cycle_no += 1
    with open(WORK / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as f:
        for span in first:
            f.write(json.dumps(span) + "\n")

    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    before, after = summarize(untraced, tail_pct), summarize(traced, tail_pct)
    layers = tracing.layer_metrics(first, import_s)
    layers["trace.overhead_ops_per_s"] = before["ops_per_s"] - after["ops_per_s"]
    samples = {"trace.overhead_ops_per_s": len(untraced) + len(traced)}
    n_first = sum(r.cycle == 1 for r in traced)
    metrics = {m["name"]: (layers[m["name"]], m["unit"], samples.get(m["name"], n_first))
               for m in config["per_layer"]}
    extra = {"trace.untraced_ops_per_s": (before["ops_per_s"], "1/s", len(untraced)),
             "trace.traced_ops_per_s": (after["ops_per_s"], "1/s", len(traced))}
    return untraced + traced, metrics, extra, {"untraced": before, "traced": after}


def run_workload(args, config: dict) -> dict:
    import_s = import_siotsec()
    import workloads

    WORK.mkdir(exist_ok=True)
    cycles = Cycles(args.workload, args.seed)
    ops, refs = cycles.get(0)
    # cycle 0 is a warm-up: one op of each kind, so lazy imports and first-call
    # set-up happen before the measured ops; its ops are checked like the rest
    warmup = sorted({op.kind: k for k, op in reversed(list(enumerate(ops)))}.values())
    results = execute(0, ops, refs, {}, only=warmup)
    if args.trace:
        measured, metrics, extra, detail = measure_traced(args, config, cycles, import_s)
    else:
        measured, metrics, extra, detail = measure_timed(args, config, cycles)
    results += measured

    failures = [f"cycle {r.cycle} op {r.slot} ({r.op.kind}): {r.failure}"
                for r in results if r.failure]
    attempted = len(results)
    extra["error_rate"] = (len(failures) / attempted, "1", attempted)
    everything = {**metrics, **extra}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cycle_ops": len(ops),
              "input_pool": workloads.INPUT_POOL[args.workload],
              "environment": environment(), **detail, "failures": failures,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in everything.items()}}
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} ops checked, {len(failures)} failed, "
          f"cycles of {len(ops)} ops")
    for name, (v, u, n) in everything.items():
        print(f"#   {name:28s} {v:>14.6g} {u:6s} n={n}")
    for f in failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {f}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}}


def run_all(args, config: dict) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in config["workloads"]:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", w["name"], "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: error: workload {w['name']} failed")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    return combined


def main() -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    result = run_all(args, config) if args.workload == "all" else run_workload(args, config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
