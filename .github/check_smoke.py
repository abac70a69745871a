"""Fail a benchmark smoke run whose operations went wrong.

`perfbench/run.py` exits 0 whatever its operations do, and prints its JSON
summary as the last line of its output.  This script passes that output
through and exits 1 when the summary reports a crashed operation
("correct" false) or, on the workloads where every operation has a known
right answer (highdim, cli-files), an untraced run that got any of them
wrong (right_ratio below 1; a library error such as a write into a
read-only block counts as a wrong verdict, not a crash).  Traced runs carry
no right_ratio.  The catalog holds known wrong verdicts, so only its
crashes fail.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py W
"""

import json
import sys

EVERY_OPERATION_RIGHT = ("highdim", "cli-files")


def main() -> int:
    workload = sys.argv[1]
    lines = sys.stdin.read().splitlines()
    print("\n".join(lines))
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"smoke check: no JSON summary from {workload}", file=sys.stderr)
        return 1
    problems = []
    if summary.get("correct") is not True:
        problems.append(f"{summary.get('failed')} operation(s) crashed")
    right = summary.get("metrics", {}).get("right_ratio", {}).get("value")
    if workload in EVERY_OPERATION_RIGHT and right is not None and not right >= 1.0:
        problems.append(f"right_ratio {right}")
    for problem in problems:
        print(f"smoke check: {workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
