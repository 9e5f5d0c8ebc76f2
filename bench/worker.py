"""One round of one workload in a fresh interpreter; run.py starts it.

    python3 bench/worker.py --workload census --seed 1 --trace 0 [--quick]
                            [--setup-only] [--spans FILE]

Prints one JSON line: set-up time, the timed operations' wall time and
each operation's time, the machine speed sampled during set-up and during
each operation (untraced rounds), peak resident memory at the end of the
timed part, operations attempted and failed, the problems the checks found,
behaviour fingerprints and, when traced, the per-layer metrics.  mwb is
imported from ``src/`` of the checkout this file sits in, and from nowhere
else.
"""
from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SAMPLE_INTERVAL_S = 0.05


def speed_kernel():
    """A fixed pure-Python loop of the operations mwb spends its time in:
    sorting small tuples and updating a dict and sets keyed by them.  It
    takes about 2 ms and does not use mwb."""
    seen = {}
    for i in range(1200):
        face = tuple(sorted(((i * 7) % 101, (i * 13) % 97, (i * 31) % 89)))
        seen[face] = seen.get(face, 0) + len(frozenset(face) | {i % 11})


class SpeedSampler:
    """Samples the speed the machine gives this process during an untraced
    round's set-up and timed operations.

    The host runs the process at two speeds about 1.7 times apart and
    switches between them many times a minute.  Every SAMPLE_INTERVAL_S a
    SIGALRM handler times one pass of speed_kernel with the collector off,
    so that mwb's live objects do not slow it.  ``samples`` holds the start
    and duration of every pass; ``spent`` is the handler's total time, which
    the worker takes off the set-up and operation times.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        entered = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        speed_kernel()
        self.samples.append((start, perf_counter() - start))
        if enabled:
            gc.enable()
        self.spent += perf_counter() - entered

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean_kernel_s(self, start=float("-inf"), end=float("inf")):
        """Mean kernel time of the passes that began in [start, end], or
        None if none did."""
        passes = [d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(passes) if passes else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=("census", "reduce", "verify"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced run's spans here")
    args = p.parse_args(argv)
    sampler = SpeedSampler()
    if not args.trace:  # traced rounds are timed by their spans, unsampled
        sampler.start()
    try:
        return run_round(args, sampler)
    finally:
        sampler.stop()


def run_round(args, sampler) -> int:
    sys.path.insert(0, SRC)
    try:
        import mwb
    except ImportError as exc:
        print(f"cannot import mwb from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(mwb.__file__))) != SRC:
        print(f"mwb was imported from {mwb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    homology_cache_info = workloads.homology.homology.cache_info  # before wrapping
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    with span(tracing.SETUP):
        inputs = workload.setup()
    setup_end = perf_counter()
    out = {"setup_s": setup_end - START - sampler.spent,
           "setup_kernel_s": sampler.mean_kernel_s()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    hits_before = homology_cache_info().hits
    results = {}
    op_times = {}
    op_spans = {}
    errors = []
    ops = workload.ops(inputs, results)
    for label, thunk in ops:
        spent = sampler.spent
        t = perf_counter()
        try:
            with span(tracing.OP + label):
                results[label] = thunk()
        except Exception:  # a failed operation is counted, the round goes on
            errors.append(f"{label}: {traceback.format_exc()}")
        end = perf_counter()
        op_times[label] = end - t - (sampler.spent - spent)
        op_spans[label] = (t, end)
    sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Mean kernel time during each operation; the timed part's mean for an
    # operation too short to be sampled.
    timed_kernel_s = sampler.mean_kernel_s(setup_end)
    out.update({
        "wall_s": sum(op_times.values()),
        "op_s": op_times,
        "op_kernel_s": {label: sampler.mean_kernel_s(*op_spans[label]) or timed_kernel_s
                        for label in op_times},
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
    })
    if tracer:
        tracer.uninstall()
        hits = homology_cache_info().hits - hits_before
        out["layers"] = tracer.metrics(hits)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "by_name": tracer.by_name()}, fh)
    out["problems"] = workload.check(inputs, results)
    out["fingerprints"] = workload.fingerprints(results)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
