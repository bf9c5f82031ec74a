"""Self-test of the benchmark harness at toy sizes (seconds, not minutes).

    python3 perfbench/selftest.py

Checks that every workload runs in both modes, that each mode emits exactly
the metrics BENCHMARK.json names with their units, and that a report with a
NaN or a wrong treatment count is counted as failed. Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

TOY = {
    "analyze-1m": {"treatments": 2, "sessions": 2, "rounds": 200},
    "cycle-short": {"treatments": 4, "reps": 50},
    # 1000 reps keep the smallest Monte-Carlo p-value below the default
    # alpha, so detection can still fire.
    "cycle-long": {"rounds": 2000, "reps": 1000},
    "minimax-short": {"treatments": 4, "reps": 30},
}

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def check_metrics(name: str, result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{name}: metrics {sorted(set(got) ^ set(want))} differ "
                        f"or units differ from BENCHMARK.json")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{name}: {key} = {value!r} is not a finite number")


def check_injected(w: run.Workload) -> None:
    """Corrupt a real report two ways; each must count as one failed
    command."""
    os.chdir(run.WORK / w.name)
    try:
        with open(run.REPORT, encoding="utf-8") as fh:
            doc = json.load(fh)
        nan_doc = json.loads(json.dumps(doc))
        nan_doc["treatments"][0]["observables"]["epr"] = float("nan")
        short_doc = json.loads(json.dumps(doc))
        short_doc["treatments"].pop()
        cases = (("NaN", nan_doc, "non-finite JSON constant NaN"),
                 ("treatment count", short_doc, f"expected {w.treatments} treatments"))
        for label, bad, reason in cases:
            checker = run.Checker(w)
            with open(run.REPORT, "w", encoding="utf-8") as fh:
                json.dump(bad, fh)
            checker.command(label, 0, report=True)
            expect(checker.failed == 1 and checker.attempted == 1
                   and any(reason in f for f in checker.failures),
                   f"injected {label} was not counted as failed for "
                   f"{reason!r}: {checker.failures}")
    finally:
        os.chdir(run.ROOT)


def main() -> int:
    if not run.use_sources():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(run.WORKLOADS), f"workloads {names} != {list(run.WORKLOADS)}")
    for name in names:
        toy = run.WORKLOADS[name].resized(**TOY[name])
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, facts = run.run_workload(toy, seed=7, seconds=0, trace=trace)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: {facts['failures']}")
            check_metrics(label, result, declared)
            print(f"ok {label}: {result['attempted']} commands in {facts['run_s']:.1f} s")
    check_injected(run.WORKLOADS["minimax-short"].resized(**TOY["minimax-short"]))
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
