"""The benchmark's own self-test.

    python3 perfbench/selftest.py [--workloads ladder,embed,pipeline] [--seed 1]

Checks, in order:
1. BENCHMARK.json has the shape run.py relies on: unique metric names, units,
   bounds at most 0.25, and a setup_s metric with the largest bound.
2. Span self times: nested spans get their duration minus their children's,
   concurrent spans split the time they share, and the self times of one
   operation add up to its outermost span.
3. The Monte Carlo gates shrink with the path count and are no looser than
   the library's fixed 0.01 at the acceptance sizes (1e5 and 1e6 paths).
4. `probes.instrument` puts back every attribute of the package it replaced.
5. For each workload, one `run.py --trace 1` run: its traced and untraced
   operations must give identical results, artifact digests and exact work
   counts, their checks must pass, and the span self times must add up to
   the traced wall_s within run.SELF_TIME_TOLERANCE.  The per-layer
   metrics that the workload exists to move (EXPECTED) must have been
   observed there, with a nonzero value; a wrapper that no longer sees its
   calls fails here instead of reading 0.
6. Over the workloads run, every per-layer metric was observed somewhere.
Exit status 0 when every check passes.
"""

import argparse
import json
import re
import subprocess
import sys

from run import HERE, ROOT, SELF_TIME_TOLERANCE

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# per-layer metrics each workload must observe, nonzero: the layers it is
# there to measure, as the README's prediction table lists them
EXPECTED = {
    "ladder": [
        "stop_solver.solve_layers.self_s", "stop_solver.node_updates",
        "stop_solver.node_updates_per_s", "stop_solver.panel_bytes",
        "limit_solver.level0.wall_s", "limit_solver.level1.wall_s",
        "limit_solver.level2.wall_s", "limit_solver.solve_limit.calls",
        "limit_solver.checks.self_s", "marginals.assumption_check.self_s",
        "marginals.potential.points"],
    "embed": [
        "stop_solver.complementarity_check.self_s", "barriers.extract.self_s",
        "barriers.lookup.rows", "barriers.lookup.points", "barriers.lookup.self_s",
        "barriers.range_min.spans", "barriers.range_min.self_s", "barriers.prune_survival",
        "simulator.simulate_root.self_s", "simulator.simulate_root.cpu_s",
        "simulator.alternative_embedding.self_s", "simulator.path_steps",
        "simulator.path_steps_per_s", "simulator.normals_drawn", "simulator.draw_efficiency",
        "simulator.paths", "simulator.fit.self_s", "simulator.self_s"],
    "pipeline": [
        "cli.cmd_solve.wall_s", "cli.cmd_limit.wall_s", "cli.cmd_verify.wall_s",
        "cli.self_s", "io.write_surface_csv.self_s", "io.write_limit_csv.self_s",
        "io.write_json.self_s", "io.sha256_file.self_s", "io.bytes_written",
        "io.bytes_per_s", "io.self_s", "barriers.write_barriers_csv.self_s",
        "stop_solver.solve_layers.calls", "stop_solver.solve_layers.repeat_calls",
        "marginals.convex_order_validate.calls", "marginals.convex_order_validate.self_s",
        "grid.make_grid.calls", "limit_solver.solve_limit.self_s",
        "limit_solver.partition_independence.wall_s",
        "limit_solver.partition_independence.cpu_s", "simulator.simulate_root.cpu_s"],
}
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec) -> list:
    problems = []
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("metric or workload names repeat")
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                problems.append(f"bad name or unit: {m}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better': {m}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"bounds outside (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    return problems


def check_self_times(probes) -> list:
    # (sid, name, start, end, parent, op, cpu0, cpu1)
    chain = [(0, "root", 0.0, 10.0, None, 0, None, None),
             (1, "a", 1.0, 6.0, 0, 0, None, None),
             (2, "b", 2.0, 3.0, 1, 0, None, None)]
    own = probes.self_times(chain)
    problems = []
    if [round(own[i], 9) for i in range(3)] != [5.0, 4.0, 1.0]:
        problems.append(f"nested self times wrong: {dict(own)}")
    concurrent = [(0, "root", 0.0, 10.0, None, 0, None, None),
                  (1, "w1", 2.0, 6.0, 0, 0, None, None),
                  (2, "w2", 4.0, 8.0, 0, 0, None, None)]
    own = probes.self_times(concurrent)
    if [round(own[i], 9) for i in range(3)] != [4.0, 3.0, 3.0]:
        problems.append(f"concurrent self times wrong: {dict(own)}")
    if abs(sum(own.values()) - 10.0) > 1e-9:
        problems.append("self times do not add up to the outermost span")
    return problems


def check_gates(gates) -> list:
    problems = []
    for m in (100_000, 1_000_000):
        for h in (5e-5, 0.0025):  # embed's and pipeline's monitoring steps
            ks = gates.ks_gate(m, h)
            atoms = max(gates.atom_mass_gate(p, m, k, h) for p in (0.1, 0.3, 0.5)
                        for k in (2, 3))
            if ks > 0.01 or atoms > 0.01:
                problems.append(f"gates at M={m}, h={h} looser than 0.01: "
                                f"ks {ks:.4f}, atoms {atoms:.4f}")
    if not gates.ks_gate(20_000, 5e-5) < gates.ks_gate(10_000, 5e-5):
        problems.append("KS gate does not shrink with M")
    return problems


def check_restore(probes) -> list:
    modules = probes._rootsep_modules()
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("rootsep")]
    def snapshot():
        return [{k: id(v) for k, v in vars(o).items()} for o in modules + classes]

    before = snapshot()
    rec = probes.Recorder()
    with probes.instrument(rec, tracing=True):
        changed = snapshot() != before
    after = snapshot()
    problems = []
    if not changed:
        problems.append("instrument replaced nothing")
    if after != before:
        problems.append("instrument left wrappers behind")
    return problems


def check_workload(workload, seed, spec, observed) -> list:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-1000:]}"]
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = [f"{workload}: {f}" for f in summary["failures"]]
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: {result['failed']} of {result['attempted']} failed")
    missing = {m["name"] for m in spec["per_layer"]} - set(result["metrics"])
    if missing:
        problems.append(f"{workload}: per-layer metrics missing: {sorted(missing)}")
    seen = set(result["metrics"]) - set(summary["unobserved"])
    observed |= seen
    for name in EXPECTED.get(workload, []):
        if name not in seen or result["metrics"][name]["value"] == 0:
            problems.append(f"{workload}: {name} was not observed")
    if summary["digest_changed"] or not summary["counts_identical"]:
        problems.append(f"{workload}: traced and untraced operations differ")
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    print(f"  {workload}: traced {summary['wall_s'][1]:.3f} s vs untraced "
          f"{summary['wall_s'][0]:.3f} s (overhead {overhead:+.3f} s), digest "
          f"{summary['digest'][:16]}, self times within {SELF_TIME_TOLERANCE:.0%}")
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(EXPECTED))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    import gates
    import workloads
    workloads.load_rootsep()
    import probes

    problems = []
    for title, run in (("spec", lambda: check_spec(spec)),
                       ("self times", lambda: check_self_times(probes)),
                       ("gates", lambda: check_gates(gates)),
                       ("restore", lambda: check_restore(probes))):
        found = run()
        print(f"{title}: {'ok' if not found else 'FAILED'}")
        problems += found
    observed = set()
    for workload in args.workloads.split(","):
        found = check_workload(workload, args.seed, spec, observed)
        print(f"workload {workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    never = sorted({m["name"] for m in spec["per_layer"]} - observed)
    if never:
        problems.append(f"per-layer metrics no workload observed: {never}")
    for text in problems:
        print(f"PROBLEM {text}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
