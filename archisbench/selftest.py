"""Smoke self-test of the benchmark.

Run from the repository root::

    python3 archisbench/selftest.py

1. Checks the interval model against a hand-worked history of three keys.
2. Runs every workload at the tiny size through the same code path as a
   full run, with every check on: twice with one seed and once with
   another, plus one traced run.  The same seed must give the same inputs
   and loop counts; another seed must give other inputs and the same
   verdict (correct, same share of failed operations); every end-to-end
   or per-layer metric named in ``BENCHMARK.json`` must be printed.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   this directory: it must exit non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracle import FOREVER, IntervalModel  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def oracle_by_hand() -> None:
    """Three keys, hand-worked.

    day 100: hire 1 (salary 10, Engineer) and 2 (salary 20, Manager)
    day 110: 1 raised to 15           -> 1's first salary ends 109
    day 120: 2 leaves                 -> all of 2's versions end 119
    day 130: hire 3 (salary 40, Manager)
    day 140: 1 becomes Manager; 1 raised to 30 the same day (two changes
             of different attributes) -> salary 15 ends 139
    """
    model = IntervalModel()
    base = {"name": "n", "deptno": "d001"}
    model.hire(1, {**base, "salary": 10, "title": "Engineer"}, 100)
    model.hire(2, {**base, "salary": 20, "title": "Manager"}, 100)
    model.update(1, "salary", 15, 110)
    model.leave(2, 120)
    model.hire(3, {**base, "salary": 40, "title": "Manager"}, 130)
    model.update(1, "title", "Manager", 140)
    model.update(1, "salary", 30, 140)

    now = 140
    check(model.versions("salary", 1, now) == [
        (10, 100, 109), (15, 110, 139), (30, 140, FOREVER)],
        "key 1 salary history")
    check(model.versions("salary", 2, now) == [(20, 100, 119)],
          "key 2 closes on leave")
    # a snapshot pinned at day 125 sees key 1's second salary as open
    check(model.versions("salary", 1, 125) == [
        (10, 100, 109), (15, 110, FOREVER)], "snapshot re-renders tend")
    check(model.as_of("salary", 1, 109, now) == [(1, 10)], "as of 109")
    check(model.as_of("salary", 1, 110, now) == [(1, 15)], "as of 110")
    check(model.as_of("salary", 2, 120, now) == [], "as of after leave")
    check(model.key_history("salary", 1, 0, 110, now) == [(10, 100, 109)],
          "FROM..TO is closed-open")
    check(model.current_row(1, now) == [(1, "n", 30, "Manager", "d001")],
          "current row of 1")
    check(model.current_row(2, now) == [], "left key has no current row")
    check(model.current_row(2, 115) == [(2, "n", 20, "Manager", "d001")],
          "current row of 2 before it left")
    check(model.snapshot_all("salary", 115, now) == [(1, 15), (2, 20)],
          "snapshot at 115")
    check(model.slice_count("salary", 105, 131, 12, now) == 3,
          "versions over 12 in [105, 131): 15, 20, 40")
    check(model.temporal_join("Manager", now) == [
        (1, 30, "Manager", 140, FOREVER),
        (2, 20, "Manager", 100, 119),
        (3, 40, "Manager", 130, FOREVER),
    ], "salary join title = Manager")
    # tavg periods: [100,109] (10+20)/2, [110,119] (15+20)/2,
    # [120,129] 15, [130,139] (15+40)/2, [140,..] (30+40)/2
    check(model.tavg("salary", 0, FOREVER, now) == [
        (15.0, 100, 109), (17.5, 110, 119), (15.0, 120, 129),
        (27.5, 130, 139), (35.0, 140, FOREVER)], "tavg periods")
    check(model.q2(115, now) == 17.5, "Q2 average at 115")
    check(model.q4(now) == 5, "Q4 counts salary versions")
    check(model.q5(12, 105, 131, now) == 3, "Q5 closed window")
    check(model.q5e(12, 105, 131, now) == 3, "Q5e distinct keys")
    check(model.q6(100, 20, now) == 5, "Q6: 10 -> 15 within 20 days")
    check(model.q6(100, 30, now) == 15, "Q6: 15 -> 30 within 30 days")
    check(model.q6(111, 30, now) is None, "Q6 with no pair")
    # a raise and a leave on one day: the raised version is empty and
    # dropped; the program's departure keeps it for that one day
    departure = IntervalModel(keep_one_day_versions=True)
    for each in (model, departure):
        if each is departure:
            departure.hire(3, {**base, "salary": 40, "title": "Manager"}, 130)
        each.update(3, "salary", 50, 150)
        each.leave(3, 150)
    check(model.versions("salary", 3, 150) == [(40, 130, 149)],
          "same-day raise then leave")
    check(model.versions("id", 3, 150) == [(3, 130, 149)],
          "key lifetime ends the day before the leave")
    check(departure.versions("salary", 3, 150) == [
        (40, 130, 149), (50, 150, 150)], "departure keeps [150, 150]")
    print("oracle: hand-worked history ok")


def run_bench(args: list, cwd: str = ROOT) -> tuple:
    process = subprocess.run(
        [sys.executable, os.path.join("archisbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    return process, lines


def result_of(process, lines, label: str) -> dict:
    check(process.returncode == 0,
          f"{label} exited {process.returncode}: {process.stderr[-2000:]}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True,
          f"{label} not correct:\n" + "\n".join(lines[-30:]))
    return result


def line_value(lines, prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    check(False, f"no line starting {prefix!r}")
    return ""


def workloads_at_tiny_size(benchmark: dict) -> None:
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    for workload in (w["name"] for w in benchmark["workloads"]):
        common = ["--workload", workload, "--seconds", "1", "--size", "tiny"]
        runs = {}
        for label, seed in (("a", "11"), ("a again", "11"), ("b", "12")):
            process, lines = run_bench(common + ["--seed", seed, "--trace", "0"])
            runs[label] = (result_of(process, lines, f"{workload} {label}"),
                           lines)
        for label, (result, _) in runs.items():
            check(set(result["metrics"]) == end_to_end,
                  f"{workload} {label}: end-to-end metrics "
                  f"{sorted(set(result['metrics']) ^ end_to_end)}")
        inputs = {label: line_value(lines, "inputs:")
                  for label, (_, lines) in runs.items()}
        check(inputs["a"] == inputs["a again"],
              f"{workload}: one seed gave two inputs")
        check(inputs["a"] != inputs["b"],
              f"{workload}: another seed gave the same inputs")
        check(line_value(runs["a again"][1], "determinism:").startswith("same"),
              f"{workload}: loop counts differ for one seed")

        def share(result):
            return result["failed"] / result["attempted"]

        check(share(runs["a"][0]) == share(runs["b"][0]),
              f"{workload}: failed share depends on the seed")
        process, lines = run_bench(common + ["--seed", "11", "--trace", "1"])
        traced = result_of(process, lines, f"{workload} traced")
        check(set(traced["metrics"]) == per_layer,
              f"{workload} traced: per-layer metrics "
              f"{sorted(set(traced['metrics']) ^ per_layer)}")
        print(f"{workload}: tiny runs ok ({runs['a'][0]['attempted']} ops, "
              f"{runs['a'][0]['failed']} failed as expected)")


def refuses_without_program() -> None:
    """Only BENCHMARK.json and the benchmark directory: no result."""
    bare = os.path.join(ROOT, ".archisbench_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "archisbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        process, lines = run_bench(
            ["--workload", "point_reads", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
        check(process.returncode != 0, "ran without the program source")
        check(not any(line.startswith("{") for line in lines),
              "printed a result without the program source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: refused without a result")


def main() -> int:
    oracle_by_hand()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    workloads_at_tiny_size(benchmark)
    refuses_without_program()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
