"""Fail a benchmark smoke run whose operations went wrong.

`perfbench/run.py` exits 0 whatever its operations do, and prints its JSON
summary as the last line of its output.  This script passes that output
through and exits 1 when the summary reports a crashed operation
("correct" false), or an untraced run whose right_ratio is below its
workload's floor in RIGHT_FLOOR or whose trusted_degree_min is below its
floor in TRUSTED_FLOOR (a library error such as a write into a read-only
block counts as a wrong verdict, not a crash).  Traced runs carry neither
metric.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py W
"""

import json
import sys

# A run covers whole rounds, so a commit reads one ratio in every run.
# Every highdim and cli-files operation has a known right answer; the
# catalog's floor is 67 of the 80 operations of a round, short of its 13
# known wrong configurations, and ROADMAP items 2 and 8 raise it.
RIGHT_FLOOR = {"catalog": 0.8375, "highdim": 1.0, "cli-files": 1.0}
# The highest degree N at which every verdict of degree <= N is right; the
# catalog's wrong configurations hold it at 4, and ROADMAP items 2 and 8
# raise it.
TRUSTED_FLOOR = {"catalog": 4, "highdim": 10, "cli-files": 12}


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
    metrics = summary.get("metrics", {})
    for name, floors, default in (("right_ratio", RIGHT_FLOOR, 1.0),
                                  ("trusted_degree_min", TRUSTED_FLOOR, 0)):
        value = metrics.get(name, {}).get("value")
        floor = floors.get(workload, default)
        if value is not None and not value >= floor:
            problems.append(f"{name} {value} below {floor}")
    for problem in problems:
        print(f"smoke check: {workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
