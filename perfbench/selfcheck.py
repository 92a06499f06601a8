"""Quick self-check of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/selfcheck.py

For each workload it makes one untraced and one traced execution (the
tree workloads shrink to width 2, depth 1) and asserts that the output
checks pass, that the call counts match the budget arithmetic, and that
the metric names are exactly those BENCHMARK.json declares. A renamed
action, a moved helper or a changed budget rule shows up here first.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run


def main() -> int:
    if not run.use_checkout():
        print("run from the repository root: src/leandecomp and tests/ are needed")
        return 2
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    errors = []
    try:
        for name in run.WORKLOADS:
            for trace in (False, True):
                report = run.measure(name, seed=7, seconds=0, trace=trace, tiny=True)
                line = run.result_line(report)
                label = f"{name} (trace {int(trace)})"
                errors += [f"{label}: {p}" for p in report["problems"]]
                got = {key: m["unit"] for key, m in line["metrics"].items()}
                if got != wanted[trace]:
                    errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                                  f"{sorted(set(got) ^ set(wanted[trace]))}")
                bad = [k for k, m in line["metrics"].items() if not math.isfinite(m["value"])]
                if bad:
                    errors.append(f"{label}: non-finite values for {bad}")
                print(f"{label}: {report['attempted']} executions, {report['failed']} failed")
    except run.BenchError as exc:
        errors.append(str(exc))
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("self-check passed" if not errors else f"self-check failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
