"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at reduced size (``--quick``), untraced and traced, and
checks the shape of each report against BENCHMARK.json: the last line is a
JSON object with exactly the keys correct, attempted, failed and metrics,
every listed metric is present with its unit and a number, and no operation
failed.  Then it checks that a copy of the benchmark without the program
next to it exits non-zero without printing a result.  Takes about a minute.
"""
import json
import math
import os
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS, load_spec


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_report(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}: {proc.stderr}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in wanted]:
        problems.append(f"{where}: metrics {list(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if (set(got) != {"value", "unit"} or got["unit"] != m["unit"]
                or isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value < 0
                or (not trace and value == 0)):
            problems.append(f"{where}: metric {m['name']} = {got}")
    return problems


def check_bare_copy():
    """Without src/ next to it the benchmark must fail, not report."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "census", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_report(spec, workload, trace, _run(ROOT, workload, trace))
    problems += check_bare_copy()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
