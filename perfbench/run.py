"""Seeded end-to-end benchmark of the susychain CLI, with a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports `susychain` from
`src/`. One closed-loop client calls `susychain.cli.main(argv)` in this
process, sending the next request when the last one has returned. A
request is one user action (see workloads.py); its inputs are drawn from
the seed and its outputs are checked. A run sends a fixed number of
requests, `--seconds` times the workload's nominal rate, so two runs of
one seed attempt the same requests and fail the same ones. Scratch files
go to `.bench_build/perfbench/`.

`--trace 0` reports the end-to-end metrics. `--trace 1` sends half as
many inputs, runs each untraced and traced in alternating order, and
reports the per-layer metrics
of the traced ones, with the tracing overhead between the two. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment and the output checks.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 5
TAIL_BEYOND = 10       # the tail percentile has this many requests beyond it
MAX_SECONDS = 150      # hard stop if the requests take far longer than nominal
# Requests per second of one client on a 2-vCPU x86-64 VM. A run sends
# `seconds` times this many requests, a count that depends on no clock.
NOMINAL_RATE = {
    "spectrum_chain_800": 0.42,
    "spectrum_both_default": 0.6,
    "analytic_pipeline": 2.1,
}

END_TO_END = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "numcore.eigh_banded.ms": "ms",
    "numcore.eigh_banded.calls": "count",
    "numcore.eigh_banded.dim": "count",
    "numcore.eigh_banded.bandwidth": "count",
    "numcore.eigh_banded.eigvecs": "count",
    "numcore.eigh_banded.eigvec_mb": "MB",
    "numcore.eigh_banded.share_pct": "%",
    "lattice.chain_spectrum.self_ms": "ms",
    "lattice.chain_spectrum.concurrency": "ratio",
    "continuum.discretize.ms": "ms",
    "lattice.build_finite_chain.ms": "ms",
    "lattice.band_structure.ms": "ms",
    "numcore.eigh_small.ms": "ms",
    "numcore.eigh_small.calls": "count",
    "continuum.symbol_dispersion.ms": "ms",
    "continuum.symbol_dispersion.calls": "count",
    "susy.assemble_frame.ms": "ms",
    "susy.assemble_frame.calls": "count",
    "susy.transformed_potential.ms": "ms",
    "susy.transformed_potential.calls": "count",
    "susy.commutator_potential.ms": "ms",
    "susy.commutator_potential.calls": "count",
    "susy.intertwining_residual.self_ms": "ms",
    "models.sample_chain_profile.ms": "ms",
    "models.model_potential_components.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "bench.request.ms": "ms",
    "bench.trace_overhead_pct": "%",
    "check.fail_frac": "fraction",
    "check.chain_gap_rel_err": "fraction",
    "check.continuum_gap_rel_err": "fraction",
    "check.oracle_max_diff": "energy",
}


def openblas():
    """Version string and thread count of each OpenBLAS loaded here."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config and threads:
                config.restype = ctypes.c_char_p
                found[Path(path).name] = {"config": config().decode(),
                                          "threads": threads()}
                break
    return found


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "SUSYCHAIN_THREADS": os.environ.get("SUSYCHAIN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_seconds():
    """Median wall time of `import susychain.cli` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import susychain.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes the byte code
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Record(NamedTuple):
    seconds: float
    traced: bool
    outcome: workloads.Outcome
    bytes_written: int


def fail_frac(records):
    return sum(bool(r.outcome.problems) for r in records) / len(records)


def worst(records, field):
    """Largest value of an Outcome field over the requests that report it."""
    values = [getattr(r.outcome, field) for r in records]
    return max((v for v in values if v == v), default=0.0)


class Client:
    """Sends requests one at a time and checks each reply."""

    def __init__(self, cli, workload, out_dir):
        self.cli = cli
        self.workload = workload
        self.out_dir = str(out_dir)
        self.calls = 0

    def _main(self, argv):
        return self.cli.main(argv)  # looked up per call, so the tracer sees it

    def call(self, req, tracer=None):
        """Send one request and check its outputs; return its Record."""
        self.calls += 1
        for entry in os.scandir(self.out_dir):
            os.unlink(entry.path)
        sink = io.StringIO()
        runs, crash = [], None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            scope = tracer.request(self.calls) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    runs = workloads.run_request(self._main, self.workload, req, self.out_dir)
            except Exception:
                crash = traceback.format_exc()
            seconds = time.perf_counter() - start
        try:
            outcome = workloads.check(self.workload, req, runs, self.out_dir)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            outcome = workloads.Outcome([f"output unreadable: {exc!r}"])
        if crash:
            outcome.problems.append(f"crashed: {crash}")
            outcome.known_defect = False
        written = sum(e.stat().st_size for e in os.scandir(self.out_dir))
        if outcome.problems:
            print(f"{req} failed: {outcome.problems}", file=sys.stderr)
        return Record(seconds, tracer is not None, outcome, written)


def request_count(workload, seconds, trace):
    """Inputs a run sends: enough for the tail percentile, and about
    `seconds` of requests at the nominal rate."""
    n = max(TAIL_BEYOND + 1, round(seconds * NOMINAL_RATE[workload]))
    return (n + 1) // 2 if trace else n


def measure(client, requests, tracer):
    """Closed loop over the requests. With a tracer, each input runs
    untraced and traced, in alternating order."""
    records = []
    begin = time.perf_counter()
    for i, req in enumerate(requests):
        if time.perf_counter() - begin >= MAX_SECONDS:
            print(f"perfbench: stopped after {i} of {len(requests)} inputs "
                  f"at {MAX_SECONDS} s", file=sys.stderr)
            break
        if tracer is None:
            records.append(client.call(req))
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                records.append(client.call(req, tracer if traced else None))
    return records


def end_to_end_metrics(records, setup):
    lat = sorted(r.seconds for r in records)
    n = len(lat)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"only {n} requests in {MAX_SECONDS} s")
    return {
        "setup_s": setup,
        "request_ms_p50": 1e3 * statistics.median(lat),
        "request_ms_tail": 1e3 * lat[n - 1 - TAIL_BEYOND],
        "requests_per_s": n / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(records, tracer):
    stats = spans.summarize(tracer.spans(), tracer.names, tracer.counts)
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    request_ms = stats.get(f"{spans.REQUEST}.ms", 0.0)
    stats["numcore.eigh_banded.share_pct"] = (
        100 * stats.get("numcore.eigh_banded.ms", 0.0) / request_ms)
    stats["cli.bytes_written"] = statistics.mean(r.bytes_written for r in traced)
    stats["bench.trace_overhead_pct"] = 100 * (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain) - 1)
    stats["check.fail_frac"] = fail_frac(records)
    for field in ("chain_gap_rel_err", "continuum_gap_rel_err", "oracle_max_diff"):
        stats[f"check.{field}"] = worst(records, field)
    print(spans.table(stats, request_ms), file=sys.stderr)
    return {name: stats.get(name, 0.0) for name in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "susychain" / "cli.py").is_file():
        print(f"perfbench: no susychain sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = None if args.trace else setup_seconds()
    from susychain import cli

    count = request_count(args.workload, args.seconds, args.trace)
    requests = workloads.generate(args.workload, args.seed, count + 1)
    out_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        client = Client(cli, args.workload, out_dir)
        client.call(requests[-1])  # warm-up, not counted
        records = measure(client, requests[:-1], tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if tracer:
        metrics = per_layer_metrics(records, tracer)
        tracer.save(WORK / f"trace-{args.workload}.npz")
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(records, setup)
        units = END_TO_END
    failures = [r.outcome for r in records if r.outcome.problems]
    n = len(records)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": n,
        "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "latency_ms": [round(1e3 * r.seconds, 1) for r in records],
        "known_defect_failures": sum(o.known_defect for o in failures),
        "fail_frac": fail_frac(records),
        "chain_gap_rel_err": worst(records, "chain_gap_rel_err"),
        "continuum_gap_rel_err": worst(records, "continuum_gap_rel_err"),
        "oracle_max_diff": worst(records, "oracle_max_diff"),
        "environment": environment(),
    }))
    print(json.dumps({
        # a failure is an incorrect output unless it is the known defect
        "correct": all(o.known_defect for o in failures),
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
