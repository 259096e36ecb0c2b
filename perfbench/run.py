"""Benchmark for tandempoll: the analytic, simulation and deterministic routes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced passes with passes that record spans around every call
into a layer, and reports the per-layer metrics, each layer's
share of the request time and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the metrics under their workload-specific names and, when tracing, the
layer map and predictions.  The exit code is 0 only if every output check
passed.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Extra set-up samples taken in fresh interpreters; setup_s is the median of
# these and the run's own set-up.
SETUP_REPEATS = 2
# work_per_s is the median rate over blocks of at least this many busy seconds.
BLOCK_S = 1.0
# Host-speed reference: a fixed pure-Python loop, timed REF_BATCH times about
# every REF_EVERY_S between calls.  On a quiet 2.1 GHz Xeon it takes about
# REF_NOMINAL_S; when other tenants of a shared host slow the benchmark, they
# slow this loop alike, and the adj_ metrics and setup_s scale that out.
REF_ITERS = 200_000
REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.5
REF_BATCH = 3


def load_package():
    """Import tandempoll from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tandempoll", "__init__.py")):
        sys.exit(f"tandempoll sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tandempoll

    if os.path.dirname(os.path.dirname(os.path.abspath(tandempoll.__file__))) != SRC:
        sys.exit(f"imported tandempoll from {tandempoll.__file__}, not from {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and warm-up in this interpreter, print it and exit")
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tandempoll")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly; checkouts without one say so."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter: import plus warm-up."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def reference_s() -> list:
    out = []
    for _ in range(REF_BATCH):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERS):
            acc += i * i
        out.append(time.perf_counter() - t0)
    return out


def measure(wl, seconds: float, tracer=None):
    """Closed loop of timed calls for ``seconds``, finishing the current pass.

    Returns the per-call latencies and work units, keyed by whether the call
    was traced, and the reference-loop times taken between calls.  With a tracer, odd passes are traced and even
    passes are not, so both halves see the same mix of inputs and cache
    states.  Checks run after each call, outside the timed interval.
    """
    phases = {False: {"lat": [], "units": []}, True: {"lat": [], "units": []}}
    refs = reference_s()
    last_ref = time.perf_counter()
    deadline = last_ref + seconds
    while True:
        traced = tracer is not None and (wl.n_calls // wl.whole) % 2 == 1
        inp = wl.next_input()
        if traced and wl.n_calls % wl.whole == 0:
            tracer.on()
        with tracer.request() if traced else nullcontext():
            t0 = time.perf_counter()
            result, units = wl.call(inp)
            t1 = time.perf_counter()
        wl.n_calls += 1
        phase = phases[traced]
        phase["lat"].append(t1 - t0)
        phase["units"].append(units)
        if traced and wl.n_calls % wl.whole == 0:
            tracer.off()
        wl.check(result)
        now = time.perf_counter()
        if now - last_ref >= REF_EVERY_S:
            refs += reference_s()
            last_ref = time.perf_counter()
        if (wl.n_calls % wl.whole == 0 and now >= deadline
                and (tracer is None or phases[True]["lat"])):
            return phases, refs


def block_rate(phase: dict, whole: int) -> float:
    """Median work rate over consecutive blocks of whole passes lasting at
    least BLOCK_S busy seconds.  Every block then holds the same input mix,
    and the median is robust to the host's transient slow-downs, which a
    total-over-time ratio averages in."""
    rates, work, busy = [], 0, 0.0
    for i, (lat, units) in enumerate(zip(phase["lat"], phase["units"]), 1):
        work += units
        busy += lat
        if busy >= BLOCK_S and i % whole == 0:
            rates.append(work / busy)
            work, busy = 0, 0.0
    if not rates:
        rates.append(work / busy)
    return statistics.median(rates)


def end_to_end(phase: dict, refs: list, setup_s: float, wl, layers):
    """(gated metrics, raw rate and latency, host slow-down factor)."""
    slowdown = statistics.median(refs) / REF_NOMINAL_S
    raw = {
        "setup_s": setup_s,
        "work_per_s": block_rate(phase, wl.whole),
        "call_p50_ms": 1e3 * statistics.median(phase["lat"]),
    }
    values = {
        "setup_s": setup_s / slowdown,
        "ok_share": 1.0 - wl.failed / wl.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "adj_work_per_s": raw["work_per_s"] * slowdown,
        "adj_call_p50_ms": raw["call_p50_ms"] / slowdown,
    }
    metrics = {k: {"value": v, "unit": layers.E2E_UNITS[k]} for k, v in values.items()}
    return metrics, raw, slowdown


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed, ROOT)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_REPEATS)]
        return report(args, wl, statistics.median(setups), layers)
    finally:
        shutil.rmtree(wl.scratch, ignore_errors=True)


def report(args, wl, setup_s: float, layers) -> int:
    env = environment(args.seed)
    if not args.trace:
        phases, refs = measure(wl, args.seconds)
        phase = phases[False]
        wl.finish()
        metrics, raw, slowdown = end_to_end(phase, refs, setup_s, wl, layers)
        named = layers.named(args.workload, metrics, raw, phase["lat"])
        print(json.dumps({"workload": args.workload, "env": env}))
        print(json.dumps({"named": named, "host_slowdown": slowdown, "reference_samples": len(refs),
                          "calls": len(phase["lat"]), "work": sum(phase["units"]), **wl.info()}))
    else:
        from tracer import Tracer, layer_metrics

        tr = Tracer()
        try:
            phases, _ = measure(wl, args.seconds, tr)
        finally:
            tr.off()
        wl.finish()
        plain, traced = phases[False], phases[True]
        metrics = {}
        values = layer_metrics(tr, layers.WORK_UNIT[args.workload], sum(traced["units"]))
        plain_rate, traced_rate = block_rate(plain, wl.whole), block_rate(traced, wl.whole)
        values["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
        for name, unit_name, _ in layers.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit_name}
        spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.npz")
        tr.save(spans)
        print(json.dumps({"workload": args.workload, "env": env, "spans": os.path.relpath(spans, ROOT)}))
        print(json.dumps({"layer_map": layers.LAYER_MAP}))
        print(json.dumps({"predictions": layers.predictions(args.workload, values),
                          "untraced_work_per_s": plain_rate, "traced_work_per_s": traced_rate,
                          **wl.info()}))
    for p in wl.problems[:20]:
        print("CHECK FAILED: " + p, file=sys.stderr)
    correct = not wl.problems
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
