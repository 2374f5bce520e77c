"""Benchmark the HEAD commit against an earlier revision, in alternating pairs.

Usage, from the repository root:

    python3 scripts/bench.py --parent REV --pairs 10 --out BENCH_N.json

The committed files of REV and of HEAD are exported (`git archive`) into
temporary directories, so uncommitted edits are never measured. Each pair
then runs `perfbench/run.py --trace 0` once in each tree on every workload
of BENCHMARK.json, with the same seed on both sides and the `run_seconds`
BENCHMARK.json sets; the side that goes first alternates from pair to
pair, so a drift in the machine's speed does not favour one side. The
output file records every run, the median and quartiles of each end-to-end
metric on each side, how many pairs the change won per metric, the
operations attempted and failed and the runs not correct per side, and the
line counts of `src/koszulity` in both trees.

After the pairs, one `perfbench/run.py --trace 1` run per side and
workload, at seed 0, records whether it was correct and the exact work
counts of WORK_COUNTS, and names the counts that differ between the sides:
a "same work" statement read off the runs.

Last, each of DEEP_WINDOWS, five deep CLI windows, runs DEEP_RUNS times per
side, each run in a fresh interpreter and alternating which side goes
first. The file records the wall time, the peak RSS (reaped with wait4)
and the exit code of every run, and whether both sides printed the same
stdout. After writing the file, the script exits 1 if any run, timed or
traced, was not correct, or if a deep window's stdout differs between the
sides.

The script changes nothing under `perfbench/`; it only reads the last line
run.py prints.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
SIDES = ("parent", "change")
# Exact work counts of a traced run: the same inputs give the same values.
WORK_COUNTS = ("linalg.rref.calls", "linalg.rref.cells", "resolution.proj_rank_total",
               "modules.is_isomorphic.calls", "modules.hom_space.calls")
# Deep windows of the CLI, timed outside perfbench, and the runs per side.
TILTING = [f"tests/data/T{k}.mod" for k in range(1, 5)]
DEEP_WINDOWS = {
    "trivext-dual-d6": ["verify", "trivext-dual", "--algebra", "tests/data/kron.alg",
                        "--n", "1", "--degree-max", "6"],
    "ext-i30": ["ext", "--algebra", "tests/data/a4.alg", "--trivext", "--n", "2",
                "--i-max", "30", *[x for t in TILTING for x in ("--M", t)],
                *[x for t in TILTING for x in ("--N", t)]],
    "beil2-nrep-depth4": ["nrep", "--algebra", "tests/data/beil2.alg", "--mode",
                          "infinite", "--n", "2", "--depth", "4"],
    "beil2-nrep-depth6": ["nrep", "--algebra", "tests/data/beil2.alg", "--mode",
                          "infinite", "--n", "2"],
    "beil2-trivext-dual-d2": ["verify", "trivext-dual", "--algebra",
                              "tests/data/beil2.alg", "--n", "2", "--degree-max", "2"],
}
DEEP_RUNS = 3


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def source_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src" / "koszulity").glob("*.py")))


def run_perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The result line of one `perfbench/run.py` run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"run.py failed in {tree} on {workload}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def traced_work(trees: dict, workload: str) -> dict:
    """Correctness and exact work counts of one traced run per side."""
    out = {}
    for side in SIDES:
        run = run_perfbench(trees[side], workload, 0, 1)
        out[side] = {"correct": run["correct"],
                     **{k: run["metrics"][k] for k in WORK_COUNTS}}
    out["changed"] = [k for k in WORK_COUNTS
                      if out["parent"][k] != out["change"][k]]
    return out


def run_cli(tree: Path, argv) -> tuple:
    """(costs, stdout) of `python3 -m koszulity.cli argv` in a fresh
    interpreter in tree; the child is reaped with wait4 for its rusage."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "koszulity.cli", *argv],
                            cwd=tree, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode}, out


def deep_windows(trees: dict) -> dict:
    """DEEP_RUNS alternating runs per side of each deep window."""
    out = {}
    for name, argv in DEEP_WINDOWS.items():
        runs = []
        for k in range(DEEP_RUNS):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            record, stdout = {"first": order[0]}, {}
            for side in order:
                record[side], stdout[side] = run_cli(trees[side], argv)
            record["stdout_equal"] = stdout["parent"] == stdout["change"]
            runs.append(record)
            print(f"deep {name} run {k}: " + ", ".join(
                f"{side} wall_s {record[side]['wall_s']:.3f}" for side in SIDES),
                file=sys.stderr)
        out[name] = {
            "command": "python3 -m koszulity.cli " + " ".join(argv),
            "median": {side: {m: statistics.median(r[side][m] for r in runs)
                              for m in ("wall_s", "peak_rss_mb")}
                       for side in SIDES},
            "stdout_equal": all(r["stdout_equal"] for r in runs),
            "runs": runs,
        }
    return out


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs) -> dict:
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        entry = {side: spread(values[side]) for side in SIDES}
        med_p, med_c = entry["parent"]["median"], entry["change"]["median"]
        entry.update(unit=metric["unit"], better=metric["better"],
                     bound=metric["bound"], change_wins=wins, pairs=len(runs),
                     relative_change=(med_c - med_p) / med_p if med_p else None)
        out[name] = entry
    out["totals"] = {side: {"attempted": sum(r[side]["attempted"] for r in runs),
                            "failed": sum(r[side]["failed"] for r in runs),
                            "incorrect_runs": sum(not r[side]["correct"] for r in runs)}
                     for side in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True,
                    help="JSON file to write, relative to the repository root")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", "HEAD")}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            trees[side].mkdir()
            export(shas[side], trees[side])
        runs = {w: [] for w in workloads}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                record = {"pair": pair, "seed": pair, "first": order[0]}
                for side in order:
                    record[side] = run_perfbench(trees[side], workload, pair, 0)
                runs[workload].append(record)
                print(f"pair {pair} {workload}: " + ", ".join(
                    f"{side} wall_s {record[side]['metrics']['wall_s']:.3f}"
                    for side in SIDES), file=sys.stderr)
        traced = {w: traced_work(trees, w) for w in workloads}
        deep = deep_windows(trees)
        loc = {side: source_lines(trees[side]) for side in SIDES}
    report = {
        **shas,
        "command": "perfbench/run.py --trace 0",
        "traced_command": "perfbench/run.py --trace 1 --seed 0",
        "seconds": SECONDS,
        "pairs": args.pairs,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "src_koszulity_lines": {**loc, "net": loc["change"] - loc["parent"]},
        "workloads": {w: {"summary": summarize(runs[w]), "traced": traced[w],
                          "runs": runs[w]}
                      for w in workloads},
        "deep_windows": deep,
    }
    (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n",
                                 encoding="utf-8")
    incorrect = [f"{w} {side} pair {r['pair']}" for w in workloads
                 for r in runs[w] for side in SIDES if not r[side]["correct"]]
    incorrect += [f"{w} {side} traced" for w in workloads
                  for side in SIDES if not traced[w][side]["correct"]]
    incorrect += [f"{name} stdout differs" for name, d in deep.items()
                  if not d["stdout_equal"]]
    if incorrect:
        print("runs not correct: " + ", ".join(incorrect), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
