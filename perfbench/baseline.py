"""Write perfbench/baseline.json: where each workload's time goes.

Run from the repository root:

    python3 perfbench/baseline.py

For every workload it makes one untraced and one traced run at seed 0 and
records, next to the workload's reason from BENCHMARK.json, its end-to-end
metrics, the traced self-time share of each layer, the total-time share of
each traced span and its exact work counts; it records the same traced
figures for each command group the workloads are made of, and the machine
the runs were made on. A change aimed at one layer can use it to pick the
workload where that layer does most of the work and one where it does none.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import COMMANDS, SPANS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, seconds: int) -> dict:
    """All metrics of one benchmark run, from the line before the result."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    if not json.loads(out[-1])["correct"]:
        raise SystemExit(f"{workload}: reports differ from the reference")
    return json.loads(out[-2].removeprefix("all metrics: "))


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def traced_summary(metrics: dict) -> dict:
    return {
        "layer_self_share": {layer: round(metrics[f"{layer}.self_share"], 4)
                             for layer in LAYERS},
        "span_total_share": {s: round(metrics[f"{s}.total_share"], 4)
                             for s in SPANS},
        "work_counts": {k: v for k, v in metrics.items()
                        if k.endswith((".calls", ".cells", "proj_rank_total",
                                       "_frac"))},
        "trace": {k.removeprefix("trace."): v for k, v in metrics.items()
                  if k.startswith("trace.")},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(),
                    "commit": commit()},
        "run_seconds": seconds,
        "workloads": {},
        "command_groups": {},
    }
    for w in spec["workloads"]:
        e2e = run(w["name"], 0, seconds)
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": {m["name"]: e2e[m["name"]]
                           for m in spec["end_to_end"]},
            **traced_summary(run(w["name"], 1, seconds)),
        }
        print(f"{w['name']}: done", flush=True)
    for group in COMMANDS:
        # The fewest passes a traced run makes are enough for the shares.
        out["command_groups"][group] = traced_summary(run(group, 1, 0))
        print(f"{group}: done", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
