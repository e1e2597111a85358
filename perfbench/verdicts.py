"""Verdict of `rootsep all` on every shipped config, untimed.

    python3 perfbench/verdicts.py

Each file in configs/ runs through `rootsep all` in a fresh interpreter,
with the pipeline workload's thread count.  One line per config gives its
exit code (0 checks passed, 1 bad input, 2 a numerical check failed), the
elapsed seconds and the program's last message; the last line is the same
as JSON.  Nothing here is timed as a workload:
a timing run that stops at a defect would count a later fix as a slowdown.
This report keeps those defects visible instead.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import PIPELINE_THREADS, ROOT


def verdict(config: Path, out: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rootsep.cli", "all", "--config", str(config),
                           "--out", str(out), "--threads", str(PIPELINE_THREADS)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    said = (proc.stdout + proc.stderr).strip().splitlines()
    return {"config": config.relative_to(ROOT).as_posix(), "exit": proc.returncode,
            "seconds": round(time.perf_counter() - t0, 2), "message": said[-1] if said else ""}


def main() -> int:
    work = ROOT / ".perfbench_work" / f"verdicts-{os.getpid()}"
    rows = []
    try:
        for config in sorted((ROOT / "configs").glob("*.ini")):
            row = verdict(config, work / config.stem)
            rows.append(row)
            print(f"{row['config']:28s} exit {row['exit']}  {row['seconds']:7.2f} s  "
                  f"{row['message'][:160]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
