"""Fail a benchmark smoke run whose operations went wrong.

`perfbench/run.py` exits 0 whatever its operations do, and prints its JSON
summary as the last line of its output.  This script passes that output
through and exits 1 when the summary reports a crashed operation
("correct" false), or an untraced run whose right_ratio, trusted_degree_min,
coef_digits or margin_decades is below its workload's floor in RIGHT_FLOOR,
TRUSTED_FLOOR, COEF_FLOOR or MARGIN_FLOOR (a library error such as a write
into a read-only block counts as a wrong verdict, not a crash).  Traced runs
carry none of these metrics.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | python3 .github/check_smoke.py W
"""

import json
import math
import sys

# A run covers whole rounds, so a commit reads one ratio in every run.
# Every highdim and cli-files operation has a known right answer; the
# catalog's floor is 73 of the 80 operations of a round, short of its 7
# known wrong configurations (the simplex d=3 gate at N >= 6, and at N=12
# orthogonality-reference on the Laguerre pair with j=2, gram-link on the
# Laguerre pair with j=1 and gram-link on Krall-Laguerre), and ROADMAP items
# 2 and 8 raise it.
RIGHT_FLOOR = {"catalog": 0.9125, "highdim": 1.0, "cli-files": 1.0}
# The highest degree N at which every verdict of degree <= N is right; the
# catalog's wrong configurations hold it at 4, and ROADMAP items 2 and 8
# raise it.
TRUSTED_FLOOR = {"catalog": 4, "highdim": 10, "cli-files": 12}
# Accuracy: each floor is the lowest value untraced runs read when the floor
# was set (seeds 1-3, 1 s and 5 s runs: coef_digits 15.45, 15.62, 15.45;
# margin_decades 7.65 for highdim and 8.11 for cli-files; the catalog's,
# read again once the disk pairs' one-variable systems came from closed-form
# Jacobi recurrences, moves with the seed's cheb-koornwinder draws between
# 6.76 and 6.88) minus the benchmark's 0.1 bound, so an accuracy regression
# the benchmark would refuse fails CI first.
COEF_FLOOR = {"catalog": 15.35, "highdim": 15.52, "cli-files": 15.35}
MARGIN_FLOOR = {"catalog": 6.66, "highdim": 7.55, "cli-files": 8.00}


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
                                  ("trusted_degree_min", TRUSTED_FLOOR, 0),
                                  ("coef_digits", COEF_FLOOR, -math.inf),
                                  ("margin_decades", MARGIN_FLOOR, -math.inf)):
        value = metrics.get(name, {}).get("value")
        floor = floors.get(workload, default)
        if value is not None and not value >= floor:
            problems.append(f"{name} {value} below {floor}")
    for problem in problems:
        print(f"smoke check: {workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
