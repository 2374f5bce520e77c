"""Benchmark of the koszulity command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ext-dual --seed 0 --seconds 55 --trace 0

Each workload is a fixed list of `koszulity` commands; the seed is passed to
every command as `--seed`. A run is a closed loop with one client: it repeats
passes over the list, one command at a time, while another pass fits in
`--seconds`. Every report (stdout bytes, plus the file `build --dump`
writes) and every exit code is compared with `perfbench/reference.json`.
A command group of `COMMANDS` can be named as a workload too, to see where
that group's time goes on its own.

`--trace 0` starts each command in a fresh interpreter, as a user does, and
reads the child's rusage. It prints the end-to-end metrics of
`BENCHMARK.json`: median wall, CPU and peak RSS of a pass, and the median
time for a fresh interpreter to import `koszulity.cli`.

`--trace 1` calls `koszulity.cli.main` in this process instead, alternating
passes in which every layer is wrapped by `perfbench/tracer.py` with
untraced passes, at least three: traced, untraced, traced. It prints the
per-layer metrics of `BENCHMARK.json` and fails the run if the exact work
counts differ between traced passes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a line before it lists every metric the
run computed, named or not in `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DATA = "tests/data"
DUMP = ".bench_build/perfbench/delta.alg"

# A command that runs longer than this counts as failed.
COMMAND_TIMEOUT_S = 150
# Fresh interpreters started to measure set-up time: this many before each
# pass, so the samples spread over the run, and at least SETUP_SAMPLES in all.
SETUP_PER_PASS = 2
SETUP_SAMPLES = 10


def _files(flag, names):
    return [x for name in names for x in (flag, f"{DATA}/{name}.mod")]


TILTING = ("T1", "T2", "T3", "T4")

# The command groups the workloads are made of.
COMMANDS = {
    "ext-deep": [
        ["ext", "--algebra", f"{DATA}/a4.alg", "--trivext", "--n", "2",
         "--i-max", "12", *_files("--M", TILTING), *_files("--N", TILTING)],
    ],
    "trivext-dual": [
        ["verify", "trivext-dual", "--algebra", f"{DATA}/kron.alg",
         "--n", "1", "--degree-max", "4"],
    ],
    "characterization": [
        ["verify", "characterization", "--algebra", f"{DATA}/a4.alg",
         "--trivext", *_files("--tilting", TILTING), "--n", "2",
         "--i-max", "6"],
    ],
    "desk": [
        ["build", "--algebra", f"{DATA}/a4.alg", "--trivext", "--dump", DUMP],
        ["ext", "--algebra", f"{DATA}/a4.alg", "--trivext", "--n", "2",
         "--i-max", "6", *_files("--M", TILTING), *_files("--N", TILTING)],
        ["koszul", "--algebra", f"{DATA}/kron.alg", "--trivext", "--n", "2",
         "--i-max", "6"],
        ["nrep", "--algebra", f"{DATA}/a2.alg", "--mode", "finite",
         "--n", "1", "--json"],
        ["preprojective", "--algebra", f"{DATA}/a2.alg", "--n", "1",
         "--degree-max", "4"],
        ["veronese", "--algebra", f"{DATA}/x3.alg", "--r", "2",
         "--degree-max", "5"],
        ["dual", "--algebra", f"{DATA}/dualnum.alg",
         *_files("--module", ["k_dualnum"]), "--n", "1", "--degree-max", "6"],
        ["verify", "nrepfin-char", "--algebra", f"{DATA}/x3.alg",
         *_files("--module", ["k_x3"]), "--n", "1"],
    ],
    # Small theorem checks that between them call every span of SPANS, so
    # each workload calls every span and none of its span times reads 0.
    "spot-checks": [
        ["verify", "trivext-koszul", "--algebra", f"{DATA}/a2.alg",
         "--n", "1"],
        ["verify", "preproj-veronese", "--algebra", f"{DATA}/x3.alg",
         *_files("--module", ["k_x3"]), "--n", "1", "--degree-max", "3"],
        ["verify", "nrepfin-char", "--algebra", f"{DATA}/x3.alg",
         *_files("--module", ["k_x3"]), "--n", "1"],
    ],
}


def join_groups(*groups):
    """The commands of the groups in order, each command once."""
    out = []
    for group in groups:
        out += [argv for argv in COMMANDS[group] if argv not in out]
    return out


# Why each workload was chosen is recorded in BENCHMARK.json. The groups are
# paired into two workloads so that each run can last about a minute: the
# speed of a shared machine swings too much over half-minute runs.
WORKLOADS = {
    "ext-dual": join_groups("ext-deep", "trivext-dual", "spot-checks"),
    "char-desk": join_groups("characterization", "desk", "spot-checks"),
}

# Spans whose calls, self seconds and total seconds the traced run reports.
SPANS = (
    "cli.main",
    "linalg.rref", "linalg.matmul",
    "resolution.extend", "resolution.ext_group", "resolution.delta_matrix",
    "resolution.yoneda_product", "resolution.cocycle_lift",
    "modules.hom_space", "modules.hom_space_with_constraints",
    "modules.is_isomorphic", "modules.projective_cover",
    "modules.kernel_submodule", "modules.injective_envelope",
    "modules.stable_hom",
    "truncated.check", "truncated.find_graded_iso", "truncated.koszul_dual",
    "hereditary.preprojective_algebra", "hereditary.is_n_rep_finite",
    "hereditary.is_n_rep_infinite_upto",
    "koszul.check_n_T_koszul", "koszul.rigidity_check",
    "koszul.stable_endomorphism_algebra",
    "frobenius.frobenius_analysis", "algebra.trivial_extension",
    "presentation.parse_algebra_file", "presentation.build_algebra",
)

# Exact work counts that must repeat between two traced passes.
EXACT_COUNTS = ("linalg.rref.calls", "linalg.rref.cells",
                "resolution.proj_rank_total", "modules.is_isomorphic.calls",
                "modules.hom_space.calls")


RUNNABLE = {**COMMANDS, **WORKLOADS}
REFERENCE = HERE / "reference.json"


def commands(workload: str, seed: int):
    return [argv + ["--seed", str(seed)] for argv in RUNNABLE[workload]]


def load_reference(workload: str):
    """The reference entry of each of the workload's commands, in order."""
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    by_argv = {tuple(r["argv"]): r for r in refs}
    try:
        return [by_argv[tuple(argv)] for argv in RUNNABLE[workload]]
    except KeyError as exc:
        raise SystemExit("no reference report for koszulity "
                         + " ".join(exc.args[0]))


def report_bytes(argv, stdout: bytes) -> bytes:
    """A command's report: its stdout, then the file it dumped, if any."""
    if "--dump" not in argv:
        return stdout
    dump = ROOT / argv[argv.index("--dump") + 1]
    return stdout + b"\0dump\0" + (dump.read_bytes() if dump.exists() else b"")


def clear_dump(argv) -> None:
    if "--dump" in argv:
        (ROOT / argv[argv.index("--dump") + 1]).unlink(missing_ok=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


@dataclass
class Result:
    """One command run: exit code, report bytes and its costs."""

    code: int
    report: bytes
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    stderr: str = ""


def run_child(args, env) -> Result:
    """Run `python3 *args` from the repo root; reap it with wait4 for rusage."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, err_path.read_text(errors="replace"))


def run_command(argv, env) -> Result:
    clear_dump(argv)
    res = run_child(["-m", "koszulity.cli", *argv], env)
    res.report = report_bytes(argv, res.report)
    return res


def run_in_process(main, argv) -> Result:
    """Call koszulity.cli.main(argv) here, capturing what it prints."""
    clear_dump(argv)
    buf = io.StringIO()
    stderr = ""
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this command, not the whole run
            code, stderr = 1, traceback.format_exc()
    wall = time.perf_counter() - t0
    return Result(code, report_bytes(argv, buf.getvalue().encode("utf-8")),
                  wall, stderr=stderr)


def matches(res: Result, ref, argv) -> bool:
    want = ref["report"].encode("utf-8")
    if res.code == ref["exit_code"] and res.report == want:
        return True
    print(f"MISMATCH: koszulity {' '.join(argv)}: exit {res.code} "
          f"(want {ref['exit_code']}), report {len(res.report)} bytes "
          f"(want {len(want)})\n{res.stderr[-2000:]}", file=sys.stderr)
    return False


def measure_setup(env, samples: int) -> list:
    """Seconds for a fresh interpreter to import koszulity.cli, per sample."""
    probe = ["-c", "import koszulity.cli"]
    out = []
    for _ in range(samples):
        res = run_child(probe, env)
        if res.code != 0:
            raise SystemExit(f"cannot import koszulity.cli: {res.stderr}")
        out.append(res.wall_s)
    return out


def run_untraced(workload: str, seed: int, seconds: float):
    env = child_env()
    refs = load_reference(workload)
    cmds = commands(workload, seed)
    measure_setup(env, 1)  # writes the bytecode caches
    setup, walls, cpus, peaks = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Start a pass only if it should end within the budget, so a run lasts
    # about `seconds` (or one pass, if that is longer) on any machine.
    while not walls or (time.perf_counter() - start
                        + statistics.mean(walls) <= seconds):
        setup += measure_setup(env, SETUP_PER_PASS)
        t0 = time.perf_counter()
        cpu = 0.0
        peak_kb = 0
        for argv, ref in zip(cmds, refs):
            res = run_command(argv, env)
            attempted += 1
            failed += not matches(res, ref, argv)
            cpu += res.cpu_s
            peak_kb = max(peak_kb, res.maxrss_kb)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu)
        peaks.append(peak_kb / 1024)
    setup += measure_setup(env, SETUP_SAMPLES - len(setup))
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup),
        "passes": len(walls),
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, True


def pass_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass.

    Times are seconds. A share divides seconds by the traced time of the
    pass: its wall time less the tracer's own bookkeeping.
    """
    traced_s = wall_s - tracer.paused_s
    out = {"trace.wall_s": wall_s, "trace.paused_s": tracer.paused_s}
    for span in SPANS:
        out[f"{span}.calls"] = tracer.calls[span]
        out[f"{span}.self_s"] = tracer.self_s[span]
        out[f"{span}.total_s"] = tracer.total_s[span]
        out[f"{span}.total_share"] = tracer.total_s[span] / traced_s
    for layer, secs in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = secs
        out[f"{layer}.self_share"] = secs / traced_s
    counts = tracer.counts
    out["linalg.rref.cells"] = counts["linalg.rref.cells"]
    out["linalg.rref.nnz_frac"] = (counts["linalg.rref.nnz"]
                                   / max(counts["linalg.rref.cells"], 1))
    out["resolution.proj_rank_total"] = counts["resolution.proj_rank_total"]
    out["modules.hom_space.repeat_frac"] = (
        counts["modules.hom_space.repeats"]
        / max(tracer.calls["modules.hom_space"], 1))
    out["modules.is_isomorphic.certified_frac"] = (
        counts["modules.is_isomorphic.certified"]
        / max(tracer.calls["modules.is_isomorphic"], 1))
    return out


def run_traced(workload: str, seed: int, seconds: float):
    sys.path.insert(0, str(SRC))
    from koszulity import cli

    refs = load_reference(workload)
    cmds = commands(workload, seed)
    attempted = failed = 0

    def one_pass():
        nonlocal attempted, failed
        t0 = time.perf_counter()
        for argv, ref in zip(cmds, refs):
            # Look main up each time: instrument() rebinds cli.main.
            res = run_in_process(cli.main, argv)
            attempted += 1
            failed += not matches(res, ref, argv)
        return time.perf_counter() - t0

    # Traced and untraced passes alternate, traced first, so drift in the
    # machine's speed falls on both sides of the tracing overhead alike.
    untraced, passes, walls = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start
                              + statistics.mean(walls) <= seconds):
        if len(untraced) < len(passes):
            untraced.append(one_pass())
            walls.append(untraced[-1])
        else:
            tracer = Tracer()
            restore = instrument(tracer)
            try:
                walls.append(one_pass())
            finally:
                restore()
            passes.append(pass_metrics(tracer, walls[-1]))
    repeat = all(p[k] == passes[0][k] for p in passes for k in EXACT_COUNTS)
    if not repeat:
        print("MISMATCH: exact work counts differ between traced passes: "
              + json.dumps([{k: p[k] for k in EXACT_COUNTS} for p in passes]),
              file=sys.stderr)
    # Times are medians; counts take the lower middle value, a whole number.
    metrics = {k: (statistics.median if isinstance(passes[0][k], float)
                   else statistics.median_low)([p[k] for p in passes])
               for k in passes[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    metrics["trace.passes"] = len(passes)
    return metrics, attempted, failed, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNABLE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (SRC / "koszulity" / "cli.py").is_file():
        print(f"no koszulity sources under {SRC}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, consistent = run(args.workload, args.seed,
                                                 args.seconds)
    print("all metrics: " + json.dumps(metrics, sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
