"""Fast smoke test of the benchmark itself (about a minute on two cores).

    python3 perfbench/smoke.py

For every workload it runs run.py --smoke (a few instances, trials and
cells) untraced and traced, and checks that the last line names exactly
the metrics BENCHMARK.json declares for that mode, each with its declared
unit and a finite value, and that the run is correct with no failures.
It then runs each workload with --corrupt-reference and with
--break-program (a fault injected into pvb itself) and checks that the
run still prints a full result that reports the failure (correct: false,
failures, exit code 1), and that two campaign runs at one seed produce
identical rows.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-nodelp", "solve-sb", "campaign", "sweep-cli")


def run(workload: str, *extra: str) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload} {extra}: no result\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(label: str, result: dict, declared: list[dict]) -> list[str]:
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{label}: metric names differ: missing {sorted(set(want) - set(got))},"
                      f" extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{label}: {name} has unit {m.get('unit')!r}, declared {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{label}: {name} value {m.get('value')!r} is not a finite number")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    digests = []
    for workload in WORKLOADS:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            rc, record, result = run(workload, "--trace", trace)
            errors += check_metrics(label, result, declared)
            if rc != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: rc {rc}, correct {result['correct']}, "
                              f"failed {result['failed']}/{result['attempted']}")
            if workload == "campaign":
                digests.append(record["work_per_pass"]["rows_digest"])
        rc, _, result = run(workload, "--trace", "0", "--corrupt-reference")
        if rc != 1 or result["correct"] or not result["failed"]:
            errors.append(f"{workload}: a corrupted reference passed the checks "
                          f"(rc {rc}, correct {result['correct']}, failed {result['failed']})")
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace} --break-program"
            rc, _, result = run(workload, "--trace", trace, "--break-program")
            errors += check_metrics(label, result, declared)
            if rc != 1 or result["correct"] or not result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: a program failure was not reported (rc {rc}, "
                              f"correct {result['correct']}, "
                              f"failed {result['failed']}/{result['attempted']})")
        print(f"{workload}: checked", flush=True)
    if len(set(digests)) != 1:
        errors.append(f"campaign rows differ between runs at one seed: {digests}")
    for error in errors:
        print("FAIL", error)
    print("smoke:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
