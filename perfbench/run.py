"""rootsep benchmark: run one workload in a closed loop and print one result.

    python3 perfbench/run.py --workload embed --seed 1 --seconds 45 --trace 0

Run from anywhere; the package is imported from the `src` directory next to
this one.  One client in this process runs one operation at a time until
the operations would take longer than --seconds with the next one (at least
one operation); with --trace 0, the setup_s probes run between operations.
The last stdout line is the result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  The line before it is a summary with every
operation's timings, exact work counts, gate margins, artifact digest and
run metadata.

--trace 1 alternates an untraced and a traced operation.  It fails an
operation whose traced and untraced results differ, or whose span self
times do not add up to its wall time, and writes the spans to
.perfbench_out/.  Exit status 2, with no result, when rootsep cannot be
imported from this checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9            # fresh interpreters per run; setup_s is their median
SELF_TIME_TOLERANCE = 0.02  # span self times must sum to the traced wall_s within 2%
# counts the untraced and traced operations must both report identically
EXACT_COUNTS = ("stop_solver.node_updates", "stop_solver.solve_layers.calls",
                "stop_solver.solve_layers.repeat_calls", "simulator.path_steps",
                "simulator.normals_drawn", "io.bytes_written")
# artifacts holding wall-clock readings, whose length varies from run to run
CLOCK_FILES = {"run_info.json", "level_runtimes.json"}
WRITER_SPANS = ("io.write_surface_csv", "io.write_limit_csv", "io.write_json",
                "barriers.write_barriers_csv")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import rootsep, build the inputs, print the elapsed time")
    return p.parse_args(argv)


def artifact_bytes(path: Path) -> int:
    """Bytes of the artifacts an operation wrote, less the wall-clock files."""
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*")
               if f.is_file() and f.name not in CLOCK_FILES)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return {"percentile": 100.0 * rank / n, "value": sorted(values)[rank - 1], "n": n}


def setup_probe(workload: str, seed: int) -> float:
    """One setup_s sample: a fresh interpreter importing rootsep and building inputs."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(wl, seed, work, rec, index, tracing):
    """One operation: build inputs (untimed), run and check it (timed)."""
    inputs = wl.build(seed, work)
    out = work / f"op{index}"
    gc.collect()
    rec.begin_op(index, tracing)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracing:
            with rec.span("bench.op"):
                outcome = wl.run(inputs, out)
        else:
            outcome = wl.run(inputs, out)
    except Exception as exc:  # a crashed operation counts as a failed one
        outcome = workloads.Outcome([f"{type(exc).__name__}: {exc}"], None)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    counts = rec.end_op()
    counts["io.bytes_written"] = artifact_bytes(out)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "failures": outcome.failures,
            "digest": outcome.digest, "margins": outcome.margins, "counts": counts}


def closed_loop(seconds, step, between=None):
    """Call step() until the next call would likely take the steps past `seconds`.

    After each step, between(share) is called with the share of `seconds`
    the steps have used so far; its time is not counted against `seconds`.
    """
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        if between is not None:
            between(min(1.0, sum(durations) / seconds))
        if sum(durations) + statistics.median(durations) > seconds:
            return results


def cache_sizes() -> dict:
    """L2 and L3 sizes as lscpu reports them (total over instances), in bytes."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    out = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for level in ("L2", "L3"):
        m = re.search(rf"^{level} cache:\s*([\d.]+)\s*([KMG])", text, re.M)
        out[f"{level.lower()}_bytes"] = int(float(m.group(1)) * units[m.group(2)]) if m else None
    return out


def metadata(wl, counts) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = ROOT / "src" / "rootsep"
    digest = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    caches = cache_sizes()
    working_set = counts.get("stop_solver.panel_bytes", 0) \
        + counts.get("simulator.ensemble_bytes", 0)
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "threads": wl.threads, **caches,
            "working_set_bytes": working_set,
            "working_set_over_l3": working_set / caches["l3_bytes"] if caches["l3_bytes"] else None}


def summarize(ops, extra) -> dict:
    walls = [o["wall_s"] for o in ops]
    counts = [{k: o["counts"].get(k, 0) for k in EXACT_COUNTS} for o in ops]
    digests = {o["digest"] for o in ops}
    return {"operations": len(ops), "wall_s": walls, "wall_s_median": statistics.median(walls),
            "wall_s_tail": tail(walls), "cpu_s": [o["cpu_s"] for o in ops],
            "counts": ops[0]["counts"], "counts_identical": all(c == counts[0] for c in counts),
            "digest": ops[0]["digest"], "digest_changed": len(digests) > 1,
            "failures": [f for o in ops for f in o["failures"]],
            "margins": ops[0]["margins"], **extra}


def timed_run(args, wl, work, spec):
    rec = probes.Recorder()
    setup = []

    def probe_setup(share):
        # spread the probes over the run, so that setup_s samples the host
        # across the same minute as the operations, not one burst of seconds
        while len(setup) < math.ceil(SETUP_PROBES * share):
            setup.append(setup_probe(wl.name, args.seed))

    first_rss = []

    def step(i):
        op = run_op(wl, args.seed, work, rec, i, tracing=False)
        if not first_rss:
            # a fresh process after one operation, as a CLI user's process
            # is; later operations add allocator fragmentation that depends
            # on the seed (up to 35 MB on embed) and is reported separately
            first_rss.append(peak_rss_mb())
        return op

    with probes.instrument(rec, tracing=False):
        ops = closed_loop(args.seconds, step, probe_setup)
    probe_setup(1.0)
    values = {"wall_s": statistics.median(o["wall_s"] for o in ops),
              "cpu_s": statistics.median(o["cpu_s"] for o in ops),
              "peak_rss_mb": first_rss[0], "setup_s": statistics.median(setup)}
    summary = summarize(ops, {"setup_s": setup, "peak_rss_mb_end": peak_rss_mb()})
    return ops, values, summary


def layer_metrics(spans, op) -> dict:
    """Per-layer values of one traced operation, keyed like BENCHMARK.json.

    Only what the operation observed is present: a span name that was
    opened, a counter that a hook added to, a ratio whose inputs both were.
    """
    totals = probes.span_totals(spans)
    m = dict(op["counts"])
    for name, row in totals.items():
        layer = name.split(".")[0]
        for key in ("self_s", "wall_s", "cpu_s"):
            m[f"{name}.{key}"] = row[key]
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + row["self_s"]

    def ratio(key, num, den):
        if num in m and den in m and m[den]:
            m[key] = m[num] / m[den]

    def wall(key, *names):
        if any(n in totals for n in names):
            m[key] = sum(totals[n]["wall_s"] for n in names if n in totals)

    wall("simulator.wall_s", "simulator.simulate_root", "simulator.alternative_embedding")
    wall("io.writers.wall_s", *WRITER_SPANS)
    ratio("stop_solver.node_updates_per_s", "stop_solver.node_updates",
          "stop_solver.solve_layers.wall_s")
    ratio("simulator.path_steps_per_s", "simulator.path_steps", "simulator.wall_s")
    ratio("simulator.draw_efficiency", "simulator.path_steps", "simulator.normals_drawn")
    ratio("barriers.prune_survival", "barriers.lookup.rows", "barriers.range_min.spans")
    ratio("io.bytes_per_s", "io.bytes_written", "io.writers.wall_s")
    m["trace.spans"] = len(spans)
    return m


def traced_run(args, wl, work, spec):
    rec = probes.Recorder()

    def step(i):
        # alternate which runs first, so warm-up does not bias the overhead
        ops = {}
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            with probes.instrument(rec, tracing=tracing):
                ops[tracing] = run_op(wl, args.seed, work, rec, 2 * i + tracing,
                                      tracing=tracing)
        plain, traced = ops[False], ops[True]
        spans = rec.op_spans(2 * i + 1)
        layers = layer_metrics(spans, traced)
        if plain["digest"] != traced["digest"]:
            traced["failures"].append("traced and untraced results differ")
        for key in EXACT_COUNTS:
            if plain["counts"].get(key, 0) != traced["counts"].get(key, 0):
                traced["failures"].append(f"traced and untraced {key} differ")
        accounted = sum(probes.self_times(spans).values())
        if abs(accounted - traced["wall_s"]) > SELF_TIME_TOLERANCE * traced["wall_s"]:
            traced["failures"].append(f"span self times sum to {accounted:.4f} s, "
                                      f"traced wall_s is {traced['wall_s']:.4f} s")
        return plain, traced, layers

    pairs = closed_loop(args.seconds, step)
    plain_ops = [p for p, _, _ in pairs]
    traced_ops = [t for _, t, _ in pairs]
    overhead = statistics.median(o["wall_s"] for o in traced_ops) \
        - statistics.median(o["wall_s"] for o in plain_ops)
    values = {"trace.overhead_s": overhead,
              "trace.overhead_frac":
                  overhead / statistics.median(o["wall_s"] for o in plain_ops)}
    for metric in spec["per_layer"]:
        name = metric["name"]
        seen = [lay[name] for _, _, lay in pairs if name in lay]
        if seen:
            values[name] = statistics.median(seen)
    # the result must carry every per-layer metric; one this workload never
    # reached reads 0 there and is named in the summary
    unobserved = sorted(m["name"] for m in spec["per_layer"] if m["name"] not in values)
    values.update(dict.fromkeys(unobserved, 0.0))
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    summary = summarize(plain_ops + traced_ops,
                        {"peak_rss_mb_end": peak_rss_mb(), "unobserved": unobserved})
    return plain_ops + traced_ops, values, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.load_rootsep()
    except ImportError as exc:
        print(f"perfbench: cannot import rootsep from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            wl.build(args.seed, work)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        run = traced_run if args.trace else timed_run
        ops, values, summary = run(args, wl, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list}
    failed = sum(1 for o in ops if o["failures"])
    summary.update(workload=wl.name, seed=args.seed, trace=args.trace,
                   meta=metadata(wl, summary["counts"]))
    print(json.dumps(summary, sort_keys=True, default=repr))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
