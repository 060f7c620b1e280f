"""Summarise a set of perfbench runs of one workload.

    python3 perfbench/spread.py RESULT_FILE...

Each file holds the standard output of one run; its last line is the
result object. For every metric the script prints the run count, the
median, the quartiles and the spread: the distance between the first and
the third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A run that is not correct is reported and left out.
"""

import json
import statistics
import sys


def main(paths):
    values = {}
    for path in paths:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            print(f"{path}: no result")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{path}: not correct ({result['failed']} of {result['attempted']} failed)")
            continue
        for name, m in result["metrics"].items():
            values.setdefault((name, m["unit"]), []).append(m["value"])
    print(f"{'metric':30} {'unit':8} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for (name, unit), vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:30} {unit:8} {len(vs):3d} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
