"""Freeze the count-table reference counts and the time each one took.

    python3 perfbench/freeze.py [--max-order 22]

For every group presentation of order 2..max-order (the `--family all`
list), the package's exact count (the row `mstd table` computes) is
compared with the independent numpy recount in recount.py; a count is
written to frozen_counts.json only when both agree, and the script exits
nonzero without writing if any group disagrees. The package row's wall
time is stored as `cost_s`: the benchmark sizes the count-table band
from these frozen costs, so the band depends on the run length only and
never on the speed of the commit under test. Re-freezing can move the
band, so it needs a new baseline in trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from recount import recount_mstd  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=22)
    args = parser.parse_args()

    from mstd import bounds, enumerate_subsets
    from mstd.groups import groups_up_to

    threads = len(os.sched_getaffinity(0))
    entries = []
    for group in groups_up_to(args.max_order, min_order=2):
        start = time.perf_counter()
        count = enumerate_subsets.count_mstd(group, threads=threads).mstd_count
        bounds.build_report(group, exact=count)
        cost = time.perf_counter() - start
        again = recount_mstd(group.factors)
        if again != count:
            print(f"{group}: package {count} != recount {again}", file=sys.stderr)
            return 1
        entries.append({
            "group": str(group),
            "order": group.order,
            "count": str(count),
            "cost_s": round(cost, 3),
        })
        print(f"{group}: {count} ({cost:.2f} s)", file=sys.stderr)
    doc = {
        "about": "exact MSTD counts agreed by the package scan and perfbench/recount.py; "
                 "cost_s is the package row time at freeze time",
        "machine": {"nproc": threads, "arch": platform.machine(), "python": platform.python_version()},
        "groups": entries,
    }
    with open(HERE / "frozen_counts.json", "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
