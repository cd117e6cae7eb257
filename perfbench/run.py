"""The repository benchmark: one workload per process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload paper-validation --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` times the workload's operation list untraced and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes of the same list and reports the per-layer metrics (the traced
passes wrap each layer's entry points, see ``tracing.py``).  Either way
every operation's simulated result is checked (pinned digests at the
default seed, determinism plus an independent reference elsewhere), and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Times are reported
in seconds of a nominal host: each timed sample is paired with a sample
of a fixed reference kernel (see ``reference_sample``), which cancels
the shared host's changing speed.  A fuller record (machine
fingerprint, raw samples, reference samples, spans) is written under
``.perfbench/``.

See ``perfbench/README.md`` for the metrics, layers and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Run records, span dumps and the search store live here (in the
#: checkout the benchmark runs from).
WORKDIR = ".perfbench"
DEFAULT_SEED = 0

sys.path.insert(0, HERE)
from tracing import Tracer, format_self_time_table  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The reference kernel's time on the nominal host: its typical time in
#: the fast phases of a shared 2-vCPU Intel Xeon host (Python 3.11,
#: numpy 2).  Reported times are in seconds of that host.
REFERENCE_S = 0.0058


def reference_sample() -> float:
    """Seconds for a fixed mix of interpreter work (dict updates) and
    numpy work (sorts), the two kinds the workloads spend their time on.

    The host alternates between fast and slow phases, up to 1.8x apart
    and from a few seconds to minutes long, so a time measured on it
    depends on when it was measured.  Each timed operation is followed
    by one reference sample; the ratio of the two cancels the phase."""
    import numpy as np

    t0 = time.perf_counter()
    counts = {}
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + i * 3
    a = np.arange(20000.0)
    for _ in range(20):
        a = np.sort(a[::-1]) + 1.0
    return time.perf_counter() - t0


def normalized(pairs) -> float:
    """Median of (seconds ÷ reference seconds), in nominal-host seconds."""
    return REFERENCE_S * statistics.median(t / r for t, r in pairs)


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:
        return "unknown"
    try:
        return version(module)
    except PackageNotFoundError:
        return "absent"


def machine_fingerprint(load_start) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_probe(workload: str, size: str) -> None:
    """Child-process entry: time one cold set-up, then the reference
    kernel, and print both."""
    t0 = time.perf_counter()
    wl = WORKLOADS[workload](size)
    wl.setup()
    setup_s = time.perf_counter() - t0
    ref = statistics.median(reference_sample() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "reference_s": ref}))


def measure_setup(workload: str, size: str) -> list:
    """(cold set-up seconds, reference seconds) pairs, one fresh
    interpreter per pair."""
    out = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for _ in range(SIZES[size]["setup_samples"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--size", size],
            capture_output=True, text=True, timeout=120, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["reference_s"]))
    return out


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Loop:
    """Runs operations, timing each and checking its result's digest."""

    def __init__(self, wl, expected, force_mismatch: bool):
        self.wl = wl
        self.ops = wl.operations()
        self.expected = dict(expected or {})
        self.pinned = expected is not None
        if force_mismatch and self.ops:
            self.expected[self.ops[0][0]] = "forced-mismatch"
        self.samples = {"untraced": {k: [] for k, _ in self.ops},
                        "traced": {k: [] for k, _ in self.ops}}
        #: The reference sample taken right after each sample.
        self.refs = {"untraced": {k: [] for k, _ in self.ops},
                     "traced": {k: [] for k, _ in self.ops}}
        self.first = {}
        self.failed_keys = {k: 0 for k, _ in self.ops}
        self.attempted = 0
        self.errors = []
        self.traced_results = []  # (key, result), when the workload asks

    def run_op(self, key, fn, tracer=None) -> None:
        self.attempted += 1
        call = tracer.call if tracer is not None else _direct
        # Start every operation from a collected heap, so the collections
        # an operation triggers are its own, not its predecessors'.
        gc.collect()
        try:
            t0 = time.perf_counter()
            if tracer is not None:
                result = tracer.operation(key, lambda: fn(call))
            else:
                result = fn(call)
            dt = time.perf_counter() - t0
            digest = self.wl.digest(key, result)
        except Exception:  # an operation that raises is a failed one
            self.failed_keys[key] += 1
            self.errors.append(f"{key}: {traceback.format_exc()}")
            return
        want = self.expected.get(key)
        if want is None and not self.pinned:
            self.expected[key] = want = digest
        if digest != want:
            self.failed_keys[key] += 1
            self.errors.append(f"{key}: digest {digest[:16]} != "
                               f"expected {str(want)[:16]}")
            return
        kind = "traced" if tracer else "untraced"
        self.samples[kind][key].append(dt)
        self.refs[kind][key].append(reference_sample())
        self.first.setdefault(key, result)
        if tracer is not None and self.wl.keeps_traced_results:
            self.traced_results.append((key, result))

    def run_pass(self, tracer=None) -> None:
        for key, fn in self.ops:
            self.run_op(key, fn, tracer)

    def run_for(self, seconds: float) -> None:
        """Cycle through the operations until ``seconds`` have passed
        and every operation has run at least once."""
        t_end = time.perf_counter() + seconds
        while True:
            for key, fn in self.ops:
                if (time.perf_counter() >= t_end
                        and all(self.samples["untraced"][k]
                                or self.failed_keys[k]
                                for k, _ in self.ops)):
                    return
                self.run_op(key, fn)

    def run_alternating(self, seconds: float, tracer: Tracer) -> None:
        """Traced and untraced passes in turn, at least one of each.
        The first pass is traced, so cold work (compile-cache misses,
        the search store's first writes) shows in the layer spans."""
        t_end = time.perf_counter() + seconds
        traced = True
        while True:
            if traced:
                tracer.install()
                try:
                    self.run_pass(tracer)
                finally:
                    tracer.uninstall()
            else:
                self.run_pass()
            traced = not traced
            if traced and time.perf_counter() >= t_end:
                return

    def per_op(self, kind: str) -> dict:
        """Each operation's time in nominal-host seconds (see
        :func:`normalized`)."""
        return {k: normalized(zip(v, self.refs[kind][k]))
                for k, v in self.samples[kind].items() if v}

    def raw_per_op(self, kind: str) -> dict:
        """Each operation's median host seconds, as measured."""
        return {k: statistics.median(v)
                for k, v in self.samples[kind].items() if v}

    def n_samples(self, kind: str) -> int:
        return sum(len(v) for v in self.samples[kind].values())


def _check_references(wl, loop, seed) -> None:
    """Independent re-checks outside the timed region (non-default
    seeds; the default seed is covered by the pinned digests)."""
    if seed == DEFAULT_SEED or len(loop.first) < len(loop.ops):
        return
    try:
        bad = wl.reference_failures(loop.first)
    except Exception:
        bad = list(loop.first)
        loop.errors.append(f"reference: {traceback.format_exc()}")
    for key in bad:
        loop.errors.append(f"{key}: disagrees with the reference")
        # Every execution of the operation produced the same result
        # (digests agree), so all of them count as failed.
        n = len(loop.samples["untraced"][key]) \
            + len(loop.samples["traced"][key])
        loop.failed_keys[key] += n
        for kind in ("untraced", "traced"):
            loop.samples[kind][key].clear()
            loop.refs[kind][key].clear()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl, loop, setup_samples, peak_rss) -> dict:
    times = loop.per_op("untraced")
    complete = len(times) == len(loop.ops)
    metrics = {
        "setup_s": _metric(normalized(setup_samples), "s"),
        "peak_rss_mb": _metric(peak_rss, "MiB"),
    }
    if complete:
        metrics["wall_s"] = _metric(sum(times.values()), "s")
        metrics["op_p50_s"] = _metric(statistics.median(times.values()),
                                      "s")
        try:
            metrics["model_err_pct"] = _metric(
                wl.model_err_pct(loop.first), "%")
        except Exception:  # a failed re-run counts, it does not abort
            loop.failed_keys["model_err_pct"] = 1
            loop.errors.append(f"model_err_pct: {traceback.format_exc()}")
    return metrics


def per_layer(wl, loop, tracer, probes) -> dict:
    times_u, times_t = loop.per_op("untraced"), loop.per_op("traced")
    n_ops = max(loop.n_samples("traced"), 1)

    def per_op(name) -> float:
        return sum(s.seconds for s in tracer.outermost(name)) / n_ops

    def per_call(name) -> float:
        spans = tracer.named(name)
        return statistics.fmean(s.seconds for s in spans) if spans else 0.0

    gets = tracer.named("ir.compile_cache")
    misses = [s for s in gets if not s.attrs.get("hit")]
    values = {
        "spec.build_s": wl.setup_parts.get("spec_build_s", 0.0),
        "analysis.lint_s": per_op("analysis.lint"),
        "ir.compile_s": sum(s.seconds for s in misses) / n_ops,
        "ir.kernel_codegen_s": wl.setup_parts.get("kernel_codegen_s", 0.0),
        "ir.compile_hit_frac": (len(gets) - len(misses)) / len(gets)
        if gets else 0.0,
        "fibertree.prep_s": per_op("fibertree.prep"),
        "model.analytical_s": per_call("model.analytical"),
        "model.interp_s": per_call("model.interp"),
        "store.get_s": per_call("store.get"),
        "store.put_s": per_call("store.put"),
        "workloads.gen_s": wl.gen_s,
        "trace.overhead_frac": sum(times_t.values()) / sum(times_u.values())
        - 1 if len(times_t) == len(times_u) == len(loop.ops) else 0.0,
        **probes,
    }
    if len(loop.first) == len(loop.ops):
        values.update(wl.sim_counts(loop.first))
        values.update(wl.layer_metrics(loop.first, loop.traced_results,
                                       times_u))
    # Layers a workload does not exercise report 0.
    units = _units("per_layer")
    return {name: _metric(values.get(name, 0.0), unit)
            for name, unit in units.items()}


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["unit"] for m in spec.get(section, [])}


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<28}{m['value']:>18.6g} {m['unit']}")


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def _load_digests(workload: str, size: str):
    try:
        with open(DIGESTS) as f:
            return json.load(f).get(f"{workload}/{size}")
    except (OSError, ValueError):
        return None


def _pin_digests(workload: str, size: str, loop) -> None:
    try:
        with open(DIGESTS) as f:
            table = json.load(f)
    except (OSError, ValueError):
        table = {}
    table[f"{workload}/{size}"] = dict(sorted(loop.expected.items()))
    with open(DIGESTS, "w") as f:
        json.dump(dict(sorted(table.items())), f, indent=2)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size (smoke: the self-test's)")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="corrupt one expected digest (self-test)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the pinned "
                             "default-seed digests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.size)
        return 0
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error("--pin records default-seed digests only")

    load_start = os.getloadavg()
    setup_samples = [] if args.trace else measure_setup(args.workload,
                                                        args.size)
    wl = WORKLOADS[args.workload](args.size, WORKDIR)
    t0 = time.perf_counter()
    wl.setup()
    setup_in_process = time.perf_counter() - t0
    wl.make_inputs(args.seed)
    print(f"inputs: {wl.inputs_digest}")

    expected = None
    if args.seed == DEFAULT_SEED and not args.pin:
        expected = _load_digests(args.workload, args.size)
        if expected is None:
            print("perfbench: no pinned digests for "
                  f"{args.workload}/{args.size}; every operation fails "
                  "the correctness gate", file=sys.stderr)
            expected = {}
    loop = Loop(wl, expected, args.force_mismatch)
    tracer = Tracer()
    try:
        gc.collect()
        if args.trace:
            loop.run_alternating(args.seconds, tracer)
        else:
            loop.run_for(args.seconds)
        # The workload's own peak, before the references' extra work.
        peak_rss = peak_rss_mb()
        _check_references(wl, loop, args.seed)
        if args.trace:
            try:
                probes = wl.probe()
            except Exception:  # a failed probe counts, it does not abort
                probes = {}
                loop.failed_keys["probe"] = 1
                loop.errors.append(f"probe: {traceback.format_exc()}")
            metrics = per_layer(wl, loop, tracer, probes)
        else:
            metrics = end_to_end(wl, loop, setup_samples, peak_rss)
    finally:
        wl.close()
    if args.pin:
        _pin_digests(args.workload, args.size, loop)

    failed = sum(loop.failed_keys.values())
    attempted = max(loop.attempted, 1)
    for err in loop.errors:
        print(f"FAIL {err}", file=sys.stderr)
    fingerprint = machine_fingerprint(load_start)
    print(f"machine: {json.dumps(fingerprint)}")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"n_ops {loop.n_samples('untraced')} untraced, "
          f"{loop.n_samples('traced')} traced; "
          f"fail_frac {failed / attempted:.4f} ({failed}/{attempted}); "
          f"in-process set-up {setup_in_process:.3f} s")
    raw = loop.raw_per_op("untraced")
    refs = [r for v in loop.refs["untraced"].values() for r in v]
    if raw and refs:
        print(f"as measured: wall {sum(raw.values()):.4f} host s "
              f"(sum of per-operation medians), reference kernel median "
              f"{statistics.median(refs) * 1e3:.2f} ms "
              f"(nominal {REFERENCE_S * 1e3:.2f} ms)")
    if args.trace:
        print(format_self_time_table(args.workload, tracer,
                                     loop.n_samples("traced")))
    _print_table("metrics:", metrics)

    os.makedirs(WORKDIR, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "machine": fingerprint, "inputs_digest": wl.inputs_digest,
        "setup_samples_s": setup_samples,
        "setup_parts_s": wl.setup_parts,
        "samples_s": loop.samples, "reference_s": loop.refs,
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "errors": loop.errors,
    }
    if args.trace:
        record["spans"] = [s.as_dict() for s in tracer.spans]
    path = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
