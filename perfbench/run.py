#!/usr/bin/env python3
"""The ksgeom benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ksgeom is imported from ./src. The workloads
and their seeded samplers are described in perfbench/workloads.py. A run
generates one round of inputs from the seed, warms up, and then repeats
whole rounds, one operation in flight, until about S seconds have passed
(at least one round). Every operation's output is checked, and each
document an operation emits must hash the same in every round.

Timings are taken out of host noise (see speed.py): every operation's
time is scaled by the host's speed in the moments around it, measured
with a fixed reference task, and an input's latency is the median of its
scaled repetitions, which are a round apart. Set-up time is scaled the
same way; per-layer times are not. The unscaled
figures are printed on the details line.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before ksgeom is imported

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh ones.
SETUP_SAMPLES = 5
#: Seconds between bursts of the speed reference task during a run.
PROBE_EVERY_S = 0.25
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of `samples` beyond it.

    A sample is one input's latency, so repeating rounds of the same
    inputs does not push the tail onto a handful of inputs. Below
    2 * TAIL_MIN_BEYOND samples no percentile above the median qualifies,
    and the median is the tail.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        beyond_per_10k = round((100.0 - p) * 100.0)  # exact, unlike (100 - p) / 100
        if samples * beyond_per_10k >= TAIL_MIN_BEYOND * 10_000:
            best = p
    return best


@dataclass
class Measurement:
    #: input index -> (seconds, index of the speed burst before it) per successful op
    samples: dict[int, list[tuple[float, int]]] = field(default_factory=dict)
    bursts: list[float] = field(default_factory=list)  # reference task's median time per burst
    sizes: list[int] = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # (type, input) -> ops
    check_failures: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    rounds: int = 0
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self, seconds: float, burst: int) -> float:
        """An op's time at the host's idle speed: scaled by the bursts either side of it."""
        return seconds * speed.REFERENCE_S / ((self.bursts[burst] + self.bursts[burst + 1]) / 2.0)

    @property
    def latencies(self) -> list[float]:
        """Per input that succeeded: the median of its scaled repetitions, ascending."""
        return sorted(statistics.median(self.scaled(t, b) for t, b in s) for s in self.samples.values())

    @property
    def raw_latencies(self) -> list[float]:
        """Per input that succeeded: the median of its unscaled repetitions, ascending."""
        return sorted(statistics.median(t for t, _ in s) for s in self.samples.values())


def measure(workload, inputs: list, seconds: float, tracer=None) -> Measurement:
    """Run whole rounds of `inputs` until about `seconds` have passed.

    Stops after the round whose end is nearest to `seconds`; always runs
    at least one. Only the operation itself is timed; hashing and the
    comparison against the first round's documents are not. A burst of
    reference tasks runs before the first op, after the last, and between
    ops whenever PROBE_EVERY_S has passed since the previous burst.
    """
    from workloads import CheckFailed

    m = Measurement()
    first: list[dict[str, str] | str] = []
    clock = time.perf_counter
    start = clock()
    m.bursts.append(speed.burst())
    last_burst = clock()
    while True:
        round_start = clock()
        for i, item in enumerate(inputs):
            if tracer is not None:
                tracer.op = m.attempted
            m.attempted += 1
            t0 = clock()
            try:
                out = workload.op(item)
            except Exception as exc:  # any failure is counted, never fatal
                m.failures[(type(exc).__name__, workload.describe(item))] += 1
                m.check_failures += isinstance(exc, CheckFailed)
                outcome = type(exc).__name__
            else:
                m.samples.setdefault(i, []).append((clock() - t0, len(m.bursts) - 1))
                m.sizes.append(out.size)
                outcome = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.docs.items()}
            if m.rounds == 0:
                first.append(outcome)
                if workload.first_round_check is not None:
                    try:
                        workload.first_round_check(item)
                    except CheckFailed:
                        m.failures[("CheckFailed", workload.describe(item))] += 1
                        m.check_failures += 1
            elif outcome != first[i]:
                m.failures[("Nondeterministic", workload.describe(item))] += 1
                m.check_failures += 1
            if clock() - last_burst >= PROBE_EVERY_S:
                m.bursts.append(speed.burst())
                last_burst = clock()
        m.rounds += 1
        now = clock()
        if now - start + (now - round_start) / 2.0 >= seconds:
            break
    m.bursts.append(speed.burst())
    m.wall = clock() - start
    m.digests = round_digests(first)
    return m


def round_digests(outcomes: list) -> dict[str, str]:
    """sha256 per document kind over one round, in input order; failures included."""
    kinds = sorted({k for o in outcomes if isinstance(o, dict) for k in o})
    out = {}
    for kind in kinds:
        h = hashlib.sha256()
        for o in outcomes:
            h.update((o[kind] if isinstance(o, dict) else "failed:" + o).encode() + b"\n")
        out[kind] = h.hexdigest()
    return out


def end_to_end(m: Measurement, setup: list[float], raw_setup: list[float]) -> tuple[dict, dict]:
    lat = m.latencies
    tail_p = tail_percentile(len(lat))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (percentile(lat, 50.0), "s"),
        "latency_tail_s": (percentile(lat, tail_p), "s"),
        "throughput_ops_s": (len(lat) / math.fsum(lat), "1/s"),  # one client, one op after another
        "success_rate": ((m.attempted - m.failed) / m.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "artifact_size_mean": (statistics.fmean(m.sizes), "count"),
    }
    raw = m.raw_latencies
    notes = {
        "tail_percentile": tail_p,
        "latency_samples": len(lat),
        "repetitions_per_input": m.rounds,
        "error_rate": m.failed / m.attempted,
        "host_speed": speed.REFERENCE_S / statistics.median(m.bursts),
        "raw_latency_p50_s": percentile(raw, 50.0),
        "raw_latency_tail_s": percentile(raw, tail_p),
        "raw_setup_s": statistics.median(raw_setup),
        "setup_samples_s": setup,
    }
    return metrics, notes


def per_layer(tracer, traced: Measurement, reference: Measurement, cli_import: list[float]) -> dict:
    from tracing import span_totals

    inclusive, self_time = span_totals(tracer.spans)
    c = tracer.counts
    ops = traced.attempted

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Both runs time the same inputs; compare their speed-scaled latencies.
    overhead = ratio(math.fsum(traced.latencies), math.fsum(reference.latencies)) - 1.0
    return {
        "trace.build_s": (per_op(self_time["trace.build"]), "s"),
        "trace.ray_index_calls": (per_op(c["trace.ray_index_calls"]), "count"),
        "trace.dedup_probes": (per_op(c["trace.dedup_probes"]), "count"),
        "trace.probes_per_lookup": (ratio(c["trace.dedup_probes"], c["trace.ray_index_calls"]), "ratio"),
        "trace.rays": (ratio(c["trace.rays"], c["trace.builds"]), "count"),
        "trace.facts": (ratio(c["trace.facts"], c["trace.builds"]), "count"),
        "trace.extract_s": (per_op(inclusive["trace.extract"]), "s"),
        "reach.reach_s": (per_op(inclusive["reach.reach"]), "s"),
        "reach.calls": (per_op(c["reach.calls"]), "count"),
        "reach.chain_points": (ratio(c["reach.chain_points"], c["reach.calls"]), "count"),
        "reach.shell_fraction": (ratio(c["reach.shell_certs"], c["reach.calls"]), "ratio"),
        "reach.shell_builds": (per_op(c["reach.shell_builds"]), "count"),
        "reach.shell_retries": (per_op(c["reach.shell_retries"]), "count"),
        "reach.choose_shell_n_s": (per_op(inclusive["reach.choose_shell_n"]), "s"),
        "reach.verify_s": (per_op(inclusive["reach.verify"]), "s"),
        "reach.verify_links": (per_op(c["reach.verify_links"]), "count"),
        "plane.side_of_calls": (per_op(c["plane.side_of_calls"]), "count"),
        "coloring.validate_s": (per_op(inclusive["coloring.validate"]), "s"),
        "coloring.kernel_s": (per_op(inclusive["coloring.kernel"]), "s"),
        "coloring.nodes": (per_op(c["coloring.nodes"]), "count"),
        "coloring.solutions": (per_op(c["coloring.solutions"]), "count"),
        "coloring.oracle_s": (per_op(inclusive["coloring.oracle"]), "s"),
        "coloring.oracle_cases": (per_op(c["coloring.oracle_cases"]), "count"),
        "serialize.save_trace_s": (per_op(inclusive["serialize.save_trace"]), "s"),
        "serialize.trace_bytes": (per_op(c["serialize.trace_bytes"]), "count"),
        "system.save_s": (per_op(inclusive["system.save"]), "s"),
        "system.load_s": (per_op(inclusive["system.load"]), "s"),
        "system.bytes": (per_op(c["system.bytes"]), "count"),
        "serialize.cert_roundtrip_s": (per_op(inclusive["serialize.cert_roundtrip"]), "s"),
        "serialize.cert_bytes": (per_op(c["serialize.cert_bytes"]), "count"),
        "cli.import_s": (statistics.median(cli_import), "s"),
        "tracing.overhead_pct": (100.0 * overhead, "%"),
    }


def setup_probes(args, count: int) -> list[dict]:
    """Set up `count` fresh processes one after another; each reports its times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def print_report(workload, m: Measurement, inputs: list, extra: dict) -> None:
    print(f"{workload.name}: {m.attempted} ops in {m.rounds} rounds of {len(inputs)} "
          f"({m.wall:.2f} s), {m.failed} failed")
    for (kind, what), n in sorted(m.failures.items()):
        print(f"  failed x{n}: {kind}: {what}")
    for name, value in extra.items():
        print(f"  {name}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ksgeom" / "__init__.py").is_file():
        print(f"error: ksgeom sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import ksgeom.cli  # noqa: F401  (what `ks` imports first)

    cli_import = time.perf_counter() - t
    import ksgeom
    from ksgeom import kernels

    if Path(ksgeom.__file__).resolve().parent != (SRC / "ksgeom").resolve():
        print(f"error: imported ksgeom from {ksgeom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    for item in workload.warmup_inputs():
        workload.op(item)
    setup = time.perf_counter() - _T0
    scale = speed.REFERENCE_S / speed.burst()  # set-up at the host's idle speed, as for ops
    own = {"setup_s": setup * scale, "cli_import_s": cli_import * scale, "raw_setup_s": setup}
    if args.setup_probe:
        print(json.dumps(own))
        return 0

    probes = [own] + setup_probes(args, SETUP_SAMPLES - 1)
    setup_samples = [p["setup_s"] for p in probes]
    import_samples = [p["cli_import_s"] for p in probes]
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "backend": kernels.BACKEND,
        "backends": sorted(kernels.available_backends()),
        "python": platform.python_version(),
    }

    if args.trace:
        from tracing import Tracer

        reference = measure(workload, inputs, 0.0)
        tracer = Tracer()
        with tracer:
            m = measure(workload, inputs, args.seconds, tracer)
        metrics = per_layer(tracer, m, reference, import_samples)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        details["spans"] = str(spans_path.relative_to(HERE.parent))
        details["spans_recorded"] = len(tracer.spans)
        details["reference_round_s"] = reference.wall
        notes = {}
    else:
        m = measure(workload, inputs, args.seconds)
        if not m.latencies:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics, notes = end_to_end(m, setup_samples, [p["raw_setup_s"] for p in probes])
        details.update(notes)
    details["digests"] = m.digests
    details["failures"] = [[kind, what, n] for (kind, what), n in sorted(m.failures.items())]

    print_report(workload, m, inputs, {k: v for k, v in notes.items() if k != "setup_samples_s"})
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": m.check_failures == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
