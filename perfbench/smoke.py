"""Smoke test of the benchmark itself: every workload at a tiny size.

Checks, for each workload and both ``--trace`` modes, that the run exits
0, that its last line is the result object, that every metric listed in
BENCHMARK.json is reported with its unit (and printed by name in the
report), and that the answers were all correct.  Then it checks that a
reply corrupted before the answer check raises ``error_rate`` and clears
``correct``, and that a directory without the program's sources makes
the benchmark exit non-zero without a result line.

Usage, from the repository root (about two minutes)::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from harness import ROOT, WORK_ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Figures the report prints by name for one workload only.
_REPORTED_ONLY = {"search_ivfpq": "recall_at_10",
                  "ingest_while_serving": "write_rows_per_s"}


def _run(workload: str, trace: int, *extra: str,
         cwd=ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(process: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert process.returncode == 0, process.stderr[-2000:]
    *report, last = process.stdout.strip().splitlines()
    return json.loads(last), "\n".join(report)


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, report = _result(_run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, report
        assert result["failed"] == 0 and result["attempted"] >= 1, result
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        reported = {name: value["unit"]
                    for name, value in result["metrics"].items()}
        assert reported == expected, (workload, trace, reported)
        names = list(expected) + ["error_rate"]
        if trace == 0 and workload in _REPORTED_ONLY:
            names.append(_REPORTED_ONLY[workload])
        for name in names:
            assert f"{name} = " in report, (workload, name, report)
        print(f"ok  {workload} --trace {trace}: "
              f"{len(reported)} metrics, {result['attempted']} requests")


def check_wrong_answer_counts() -> None:
    result, report = _result(_run("predict_vectors", 0,
                                  "--inject-wrong-answer"))
    assert result["correct"] is False, result
    assert result["failed"] >= 1, result
    assert result["metrics"]["success_rate"]["value"] < 1.0, result
    error_line = next(line for line in report.splitlines()
                      if "error_rate = " in line)
    assert "1 wrong answers" in error_line, error_line
    print(f"ok  injected wrong answer: {error_line.strip()}")


def check_refuses_without_sources() -> None:
    bare = WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        process = _run("predict_vectors", 0, cwd=bare)
        assert process.returncode != 0, process.stdout
        assert '"metrics"' not in process.stdout, process.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  no sources: exit {process.returncode}, no result line")


def main() -> int:
    for bench_workload in BENCH["workloads"]:
        check_workload(bench_workload["name"])
    check_wrong_answer_counts()
    check_refuses_without_sources()
    print("perfbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
