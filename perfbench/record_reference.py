"""Record the reference reports the benchmark compares against.

Run from the repository root, on the commit whose reports are the reference:

    python3 perfbench/record_reference.py

For every command of every group it stores the argv (without `--seed`), the
exit code and the report (stdout, plus the file `build --dump` writes) in
`perfbench/reference.json`. Each command runs once, at seed 0, in a fresh
interpreter, exactly as an untraced benchmark pass runs it. One reference
serves every seed: a benchmark run at another seed fails if a report
depends on the seed.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 0


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    refs = []
    for base in run.join_groups(*run.COMMANDS):
        argv = base + ["--seed", str(SEED)]
        res = run.run_command(argv, env)
        refs.append({"argv": base, "exit_code": res.code,
                     "report": res.report.decode("utf-8")})
        print(f"exit {res.code}, {res.wall_s:.2f} s, {len(res.report)} bytes: "
              f"koszulity {' '.join(argv)}")
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
