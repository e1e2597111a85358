"""Run the benchmark on each workload and print its metrics with units.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --sets 2   # steadiness check

Every run is a fresh `run.py` process with --trace 0; run i of a set uses
seed --seed + i.  Per workload the report prints each end-to-end metric of
BENCHMARK.json with its unit as the median over runs, wall_s also at the
highest percentile with ten samples above it (pooled over the operations of
all runs, with the sample count), failed against attempted operations, the
exact work counts and the pipeline's artifact digest.

With --runs 2 or more it also prints each metric's quartile spread,
(Q3 - Q1) / median over the runs, against the metric's bound, and for each
Monte Carlo gate the smallest margin (gate minus value) over the runs, which
shows how close a seed came to flipping the verdict.  A workload is steady
when every spread is below a third of its bound, except setup_s's: its
spread is printed but not judged, because set-up time is gated on its
median alone, as cold interpreter starts vary more than operations do.  With
--sets 2 each seed runs twice.  Then the second set's median of each metric
must be within the bound of the first's, and each seed's exact work counts
must be identical; a changed artifact digest is flagged, not failed.  The
full report is also written to .perfbench_out/report.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import EXACT_COUNTS, HERE, ROOT, tail


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def format_tail(walls) -> str:
    t = tail(walls)
    if t is None:
        return f"no percentile has ten samples above it (n={len(walls)})"
    return f"p{t['percentile']:.1f} {t['value']:.4f} s (n={t['n']})"


def closest_margins(runs) -> dict:
    """Per gate, the smallest gate - value over the runs, with its seed."""
    out = {}
    for r in runs:
        for name, g in r["summary"]["margins"].items():
            margin = g["gate"] - g["value"]
            if name.startswith("optimality_direction"):  # a lower bound above the gate
                margin = -margin
            if name not in out or margin < out[name]["margin"]:
                out[name] = {"margin": margin, "value": g["value"], "gate": g["gate"],
                             "seed": r["seed"]}
    return out


def report_workload(workload: str, spec: dict, args) -> dict:
    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            summary, result = run_once(workload, args.seed + i, spec["run_seconds"])
            runs.append({"seed": args.seed + i, "summary": summary, "result": result})
            m = result["metrics"]
            print(f"  {workload} set {s + 1} seed {args.seed + i}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in m.items())
                + f"; failed {result['failed']}/{result['attempted']}", flush=True)
        sets.append(runs)

    first = sets[0]
    out = {"workload": workload, "metrics": {}, "problems": [], "flags": []}
    print(f"{workload}:")
    for metric in spec["end_to_end"]:
        name, unit, bound = metric["name"], metric["unit"], metric["bound"]
        values = [r["result"]["metrics"][name]["value"] for r in first]
        row = {"median": statistics.median(values), "unit": unit, "bound": bound,
               "values": values}
        line = f"  {name:12s} {row['median']:10.4f} {unit:3s} (median of {len(values)} runs)"
        if len(values) >= 2:
            row["spread"] = spread(values)
            line += f"  spread {row['spread']:.4f} vs bound {bound} (a third: {bound / 3:.4f})"
            if name != "setup_s" and row["spread"] > bound / 3:
                out["problems"].append(f"{name} spread {row['spread']:.4f} > {bound / 3:.4f}")
        if len(sets) > 1:
            again = statistics.median(r["result"]["metrics"][name]["value"] for r in sets[1])
            row["second_median"] = again
            line += f"  second set {again:.4f}"
            if again > row["median"] * (1.0 + bound):
                out["problems"].append(f"{name} second median {again:.4f} worse than "
                                       f"{row['median']:.4f} by more than {bound}")
        print(line)
        out["metrics"][name] = row
    walls = [w for r in first for w in r["summary"]["wall_s"]]
    print(f"  wall_s tail  {format_tail(walls)}")
    out["margins"] = closest_margins([r for runs in sets for r in runs])
    for name, g in out["margins"].items():
        print(f"  margin       {name}: {g['margin']:.4g} (value {g['value']:.4g}, "
              f"gate {g['gate']:.4g}, seed {g['seed']})")
    attempted = sum(r["result"]["attempted"] for runs in sets for r in runs)
    failed = sum(r["result"]["failed"] for runs in sets for r in runs)
    print(f"  operations   {failed} failed of {attempted} attempted")
    if failed:
        out["problems"].append(f"{failed} failed operations")
    counts = first[0]["summary"]["counts"]
    print("  counts       " + ", ".join(f"{k} {counts.get(k, 0)}" for k in EXACT_COUNTS)
          + f" (seed {first[0]['seed']})")
    for runs in sets:
        for r in runs:
            if not r["summary"]["counts_identical"]:
                out["problems"].append(f"seed {r['seed']}: counts differ between operations")
            if r["summary"]["digest_changed"]:
                out["flags"].append(f"seed {r['seed']}: artifact digest differs between operations")
    for later in sets[1:]:
        for a, b in zip(first, later):
            ca = {k: a["summary"]["counts"].get(k, 0) for k in EXACT_COUNTS}
            cb = {k: b["summary"]["counts"].get(k, 0) for k in EXACT_COUNTS}
            if ca != cb:
                out["problems"].append(f"seed {a['seed']}: counts differ between sets")
            if a["summary"]["digest"] != b["summary"]["digest"]:
                out["flags"].append(f"seed {a['seed']}: artifact digest differs between sets")
    for text in out["problems"]:
        print(f"  PROBLEM      {text}")
    for text in out["flags"]:
        print(f"  flag         {text}")
    out["tail"] = format_tail(walls)
    out["failed"], out["attempted"] = failed, attempted
    out["runs"] = sets
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    reports = [report_workload(w, spec, args) for w in args.workloads.split(",")]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(reports, indent=1), encoding="utf-8")
    return 1 if any(r["problems"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
