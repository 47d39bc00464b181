"""delooper benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload star_targets --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Set-up imports delooper from ``src/``, loads the sphere table and generates
the workload's instance pool from ``--seed``. The timed phase then runs the
pool in full passes, one instance after another, starting a new pass while
fewer than ``--seconds`` have elapsed. Every instance's verdict is checked,
every pass must reproduce the first pass's results, and the first pass's
results are hashed into a digest that must match ``spec.json`` for the seeds
recorded there.

End-to-end metrics (``--trace 0``):
  instances_per_s  pool size / median pass wall time
  instance_p50_ms  median latency over every timed instance
  instance_p95_ms  95th-percentile (nearest rank) latency over every timed
                   instance; the count of samples beyond it is printed
  setup_s          median over SETUP_REPEATS set-ups, each timed from script
                   start to the first timed instance; repeats run as fresh
                   processes after the timed phase
  peak_rss_mb      ru_maxrss of this process at the end of the run
The number of failed instances is reported as ``failed`` of ``attempted``.

With ``--trace 1`` the timed phase runs untraced for half of ``--seconds``,
then with every layer wrapped (see tracer.py) for the other half, and the
per-layer metrics (per pass of the pool) are reported along with
``trace.overhead_frac``, the traced median pass time over the untraced one,
minus 1.

The last line of standard output is the JSON result; the lines before it are
a human-readable table.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7


def load_spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload, seed):
    """Import the library, load the sphere table and build the pool."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from delooper.pi_algebra import SphereTable

    SphereTable.load()
    build, run = workloads.WORKLOADS[workload]
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pool = build(random.Random(f"{workload}:{seed}"), workdir)
    return workloads, run, pool, workdir


class Phase:
    """Full passes over the pool, one instance at a time."""

    def __init__(self, run, pool):
        self.run = run
        self.pool = pool
        self.latencies = []
        self.pass_times = []
        self.first_results = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one_pass(self):
        results = []
        clock = time.perf_counter
        start = clock()
        for i, inst in enumerate(self.pool):
            t0 = clock()
            try:
                result = self.run(inst)
            except Exception as exc:  # a failed instance is counted, the run goes on
                result = None
                self.failed += 1
                self.errors.append(f"pass {len(self.pass_times)} instance {i}: {type(exc).__name__}: {exc}")
            self.latencies.append(clock() - t0)
            self.attempted += 1
            results.append(result)
        self.pass_times.append(clock() - start)
        if self.first_results is None:
            self.first_results = results
        else:
            for i, (got, want) in enumerate(zip(results, self.first_results)):
                if got is not None and got != want:
                    self.failed += 1
                    self.errors.append(f"pass {len(self.pass_times) - 1} instance {i}: result differs from pass 0")

    def run_for(self, seconds, min_passes=1):
        """Start passes while fewer than `seconds` have elapsed in this call."""
        start, before = time.perf_counter(), len(self.pass_times)
        while len(self.pass_times) - before < min_passes or time.perf_counter() - start < seconds:
            self.one_pass()


def digest(results):
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


def setup_samples(workload, seed, first):
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(args, spec):
    workloads, run, pool, workdir = set_up(args.workload, args.seed)
    try:
        setup_s = time.perf_counter() - SCRIPT_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        phase = Phase(run, pool)
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            phase.run_for(args.seconds / 2, min_passes=2)
            untraced_passes = len(phase.pass_times)
            tracer = tracer_mod.Tracer()
            tracer.install(extra_modules=[workloads])
            try:
                phase.run_for(args.seconds / 2)
            finally:
                tracer.uninstall()
            tracer.finish()
        else:
            phase.run_for(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    got = digest(phase.first_results)
    want = spec["digests"].get(args.workload, {}).get(str(args.seed))
    if want is not None and got != want:
        phase.failed += len(pool)
        phase.errors.append(f"digest {got} != recorded {want}")
    for line in phase.errors[:20]:
        print("FAILED", line, file=sys.stderr)

    lines = [f"workload {args.workload}  seed {args.seed}  pool {len(pool)}  passes {len(phase.pass_times)}  "
             f"digest {got}" + ("" if want is None else (" (matches spec)" if got == want else " (MISMATCH)"))]
    if tracer is None:
        samples = setup_samples(args.workload, args.seed, setup_s)
        n, lat = len(pool), sorted(phase.latencies)
        p95 = lat[math.ceil(0.95 * len(lat)) - 1]  # nearest rank
        metrics_out = {
            "instances_per_s": (n / statistics.median(phase.pass_times), "1/s"),
            "instance_p50_ms": (1000 * statistics.median(lat), "ms"),
            "instance_p95_ms": (1000 * p95, "ms"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        notes = {
            "instances_per_s": f"{len(phase.pass_times)} passes of {n}",
            "instance_p50_ms": f"{len(lat)} samples",
            "instance_p95_ms": f"{len(lat)} samples, {sum(x > p95 for x in lat)} beyond",
            "setup_s": f"{len(samples)} set-ups",
        }
        lines += [f"  {k:18s} {v:12.4f} {u:6s} {notes.get(k, '')}" for k, (v, u) in metrics_out.items()]
        lines.append(f"  {'failed_frac':18s} {phase.failed / phase.attempted:12.4f} ratio  "
                     f"{phase.failed} of {phase.attempted} instances")
    else:
        traced = phase.pass_times[untraced_passes:]
        untraced = phase.pass_times[1:untraced_passes]
        metrics_out = tracer.metrics(len(traced))
        metrics_out["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
        lines += [f"  {k:34s} {v:14.6g} {u}" for k, (v, u) in metrics_out.items()]
        lines.append("  layer share of wrapped self time: "
                     + ", ".join(f"{k} {v:.3f}" for k, v in tracer.layer_shares().items()))
        lines.append("  spans (span <- parent: count, total s, self s, per pass):")
        n = len(traced)
        for (span, parent), (count, total, self_s) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"    {span} <- {parent or '-'}: {count / n:g}, {total / n:.6f}, {self_s / n:.6f}")
    print("\n".join(lines))
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in spec["workloads"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(spec["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
