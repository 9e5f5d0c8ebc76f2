"""Run the mwb benchmark: one workload, or all of them in turn.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload, each in a fresh interpreter
(bench/worker.py) so that mwb's homology caches start empty as they do for
an ``mw`` invocation, until ``--seconds`` have passed; at least one round
runs.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json: the median over rounds of the timed wall time, the longest
of the operations' median times, the median set-up time (set up at least
SETUP_SAMPLES times) and the largest peak resident memory.  The three times
are scaled to a fixed machine speed (``at_reference_speed``).  With
``--trace 1`` the rounds run with every layer wrapped in spans and it
reports the medians of the per-layer metrics.  The last line printed is
the JSON result; round details and spans go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census", "reduce", "verify")
SETUP_SAMPLES = 9
# Mean time of worker.speed_kernel() on the reference machine (README.md).
REFERENCE_KERNEL_S = 0.0022
RUN_TIMEOUT_S = 175  # a run, set-ups included, is stopped after this


def worker(workload, seed, trace=0, quick=False, spans=None, timeout=RUN_TIMEOUT_S,
           setup_only=False):
    """Run one round in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--quick"] * quick + ["--setup-only"] * setup_only
    cmd += ["--spans", spans] if spans else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def at_reference_speed(seconds, kernel_s):
    """A time measured while worker.speed_kernel() took ``kernel_s`` on
    average, scaled to the reference machine speed.

    The host runs this process at two speeds about 1.7 times apart and
    switches between them many times a minute; CPU time changes with wall
    time.  The worker samples
    the speed during set-up and during each operation by timing a fixed
    kernel that does not use mwb, so a change to mwb moves the scaled times
    as much as the measured ones.  A time with no sample stays as measured.
    """
    return seconds * REFERENCE_KERNEL_S / kernel_s if kernel_s else seconds


def run(workload, seed, seconds, trace, quick=False):
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()

    def remaining():
        return start + RUN_TIMEOUT_S - time.monotonic()

    rounds = []
    longest = 0.0
    while not rounds or time.monotonic() - start < seconds:
        if longest > remaining() - 20:
            break  # another round could overrun the run's time limit
        spans = (os.path.join(OUT, f"spans-{workload}-seed{seed}-round{len(rounds)}.json")
                 if trace else None)
        t = time.monotonic()
        rounds.append(worker(workload, seed, trace, quick, spans, remaining()))
        longest = max(longest, time.monotonic() - t)
    setups = list(rounds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, quick=quick, setup_only=True,
                             timeout=remaining()))

    if trace:
        measured = {name: statistics.median(r["layers"][name] for r in rounds)
                    for name in rounds[0]["layers"]}
        wanted = spec["per_layer"]
    else:
        adjusted = [{label: at_reference_speed(t, r["op_kernel_s"][label])
                     for label, t in r["op_s"].items()} for r in rounds]
        measured = {
            "wall_s": statistics.median(sum(a.values()) for a in adjusted),
            "op_max_s": max(statistics.median(a[label] for a in adjusted)
                            for label in adjusted[0]),
            "setup_s": statistics.median(at_reference_speed(r["setup_s"], r["setup_kernel_s"])
                                         for r in setups),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": all(not r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    fingerprints = rounds[0]["fingerprints"]
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "rounds": rounds,
                   "setups": [{key: r[key] for key in ("setup_s", "setup_kernel_s")}
                              for r in setups],
                   "fingerprints": fingerprints}, fh, indent=1)
    return result, rounds, fingerprints


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference_fingerprints():
    path = os.path.join(HERE, "fingerprints.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, result, rounds, fingerprints):
    """Human-readable lines; the JSON result line is printed by the caller."""
    print(f"{workload}: {len(rounds)} round(s), {result['attempted']} operations "
          f"attempted, {result['failed']} failed, correct={result['correct']}")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"  measured wall time per round, before the speed adjustment: {walls} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    reference = load_reference_fingerprints().get(workload, {})
    for key, value in fingerprints.items():
        note = ("no reference" if key not in reference else
                "same as reference" if reference[key] == value else "differs from reference")
        print(f"  fingerprint {key} = {value} ({note})")
    for r in rounds:
        for text in r["errors"] + r["problems"]:
            print(f"{workload}: {text}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced workload sizes, for bench/selftest.py")
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result, rounds, fingerprints = run(name, args.seed, args.seconds,
                                               args.trace, args.quick)
            report(name, result, rounds, fingerprints)
            print(json.dumps(result))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
