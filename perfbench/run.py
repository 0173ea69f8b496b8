"""Benchmark of rosterstat: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload screen-small --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a rosterstat checkout; it imports the package
from the checkout's ``src``. Each workload is a closed loop: one caller, the
next op sent when the previous one returns.

``--trace 0`` times the ops for ``--seconds`` and prints the end-to-end
metrics. ``--trace 1`` runs the same ops untraced for half the time and
traced for the other half, and prints the per-layer metrics. After the timed
phase every op's output is checked; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A run record with provenance goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CLI_PROBES = 5
PROBE_TIMEOUT_S = 120
ROADMAP_NOTE = ("The timings quoted in ROADMAP.md were taken on Python 3.10.12, "
                "not on the interpreter recorded here.")


@dataclass
class Phase:
    """The ops one timed loop executed, in order."""

    wall: float = 0.0
    indices: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    digests: list[object] = field(default_factory=list)  # None: the op raised
    errors: dict[int, str] = field(default_factory=dict)  # op index -> first error

    def best_latencies(self) -> list[float]:
        """Each execution's latency replaced by its op's fastest in the phase.

        The machine's speed drifts by tens of percent over seconds (other
        tenants, shared cores); an op's best time across the passes of a
        run is what stays put from run to run.
        """
        best: dict[int, float] = {}
        for i, latency in zip(self.indices, self.latencies):
            best[i] = min(latency, best.get(i, latency))
        return [best[i] for i in self.indices]


def timed_loop(wl, seconds: float, first: dict, first_digest: dict,
               tracer=None) -> Phase:
    """Run ops in list order (cycling) until ``seconds`` have passed."""
    phase = Phase()
    count = len(wl.ops)
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        op = wl.ops[len(phase.indices) % count]
        if tracer is not None:
            tracer.op_id = len(phase.indices)
            token = tracer.open("bench", "op")
        t0 = perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result = None
            phase.errors.setdefault(op.index, f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.close(token)
        digest = None if result is None else wl.digest(result)
        if result is not None and op.index not in first:
            first[op.index] = result
            first_digest[op.index] = digest
        phase.indices.append(op.index)
        phase.latencies.append(latency)
        phase.digests.append(digest)
    phase.wall = perf_counter() - start
    return phase


def check_outputs(wl, phases: list[Phase], first: dict, first_digest: dict
                  ) -> tuple[int, dict[int, list[str]]]:
    """Check every op's output against its oracle; count failed executions."""
    problems: dict[int, list[str]] = {}
    for phase in phases:
        for i, error in phase.errors.items():
            problems.setdefault(i, []).append(f"raised {error}")
    for i, result in first.items():
        try:
            found = wl.check(wl.ops[i], result)
        except Exception as exc:  # a check that cannot run fails its op
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems.setdefault(i, []).extend(found)
    for i, found in wl.extra_checks(first).items():
        problems.setdefault(i, []).extend(found)
    failed = 0
    for phase in phases:
        for i, digest in zip(phase.indices, phase.digests):
            if digest is None or i in problems or digest != first_digest[i]:
                failed += 1
                if digest is not None and digest != first_digest[i]:
                    problems.setdefault(i, []).append("a repeat gave a different output")
    return failed, problems


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def command_probe(code: str) -> float:
    """Median wall time of ``python -c code`` with the checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def per_layer(wl, tracer, untraced: Phase, traced: Phase, root_token,
              peak_rss: float) -> dict[str, tuple[float, str]]:
    from tracer import LAYERS, self_times

    selfs = self_times(tracer.spans)
    root_id = root_token[0]
    wall = next(s[6] - s[5] for s in tracer.spans if s[0] == root_id)
    layer_self = {layer: 0.0 for layer in (*LAYERS, "bench")}
    layer_calls = {layer: 0 for layer in LAYERS}
    parse_s = 0.0
    for span in tracer.spans:
        layer_self[span[3]] += selfs[span[0]]
        if span[3] in layer_calls:
            layer_calls[span[3]] += 1
        if span[4] == "parse_case":
            parse_s += selfs[span[0]]
    accounted = sum(layer_self.values())
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError(f"self times sum to {accounted!r} s, traced wall is {wall!r} s")

    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls[layer], "count")
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.self_share"] = (layer_self[layer] / wall, "1")
    points = counters.get("distributions.support_points", 0)
    draws = counters.get("risk_sim.draws", 0)
    metrics["distributions.support_points"] = (points, "count")
    metrics["distributions.ns_per_point"] = (
        layer_self["distributions"] / points * 1e9 if points else 0.0, "ns")
    metrics["risk_sim.draws"] = (draws, "count")
    metrics["risk_sim.ns_per_draw"] = (
        layer_self["risk_sim"] / draws * 1e9 if draws else 0.0, "ns")
    by_op: dict[int, list[float]] = {}
    for i, latency in zip(untraced.indices, untraced.latencies):
        by_op.setdefault(i, []).append(latency)
    metrics["risk_sim.speedup"] = (wl.speedup(by_op) if hasattr(wl, "speedup") else 0.0, "1")
    metrics["risk_sim.rss_mb"] = (peak_rss if layer_calls["risk_sim"] else 0.0, "MiB")
    metrics["case.parse_s"] = (parse_s, "s")
    metrics["case.parse_bytes"] = (counters.get("case.parse_bytes", 0), "B")

    is_cli = wl.name == "cli-session"
    interpreter = command_probe("pass") if is_cli else 0.0
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (
        command_probe("import rosterstat") - interpreter if is_cli else 0.0, "s")
    for command in ("analyze", "reproduce-paper"):
        samples = [latency for i, latency in zip(untraced.indices, untraced.latencies)
                   if is_cli and wl.ops[i].payload[0] == command]
        metrics[f"cli.command_s.{command}"] = (
            statistics.median(samples) if samples else 0.0, "s")

    metrics["bench.self_s"] = (layer_self["bench"], "s")
    metrics["bench.self_share"] = (layer_self["bench"] / wall, "1")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_ratio"] = (
        (len(traced.indices) / traced.wall) / (len(untraced.indices) / untraced.wall), "1")
    return metrics


def run_record(args, wl, phases, metrics, failed, problems, extra) -> dict:
    sha = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            sha = git.stdout.strip()
    except OSError:  # git is not installed
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    attempted = sum(len(p.indices) for p in phases)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": ROADMAP_NOTE,
        "op_list_length": len(wl.ops),
        "ops_per_run": attempted,
        "distinct_ops_run": len({i for p in phases for i in p.indices}),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": {str(i): found for i, found in list(problems.items())[:20]},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "rosterstat" / "__init__.py").is_file():
        print(f"perfbench: no rosterstat sources under {SRC}; run it in a "
              "rosterstat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rosterstat
    from workloads import WORKLOADS

    if Path(rosterstat.__file__).resolve().parent != SRC / "rosterstat":
        print(f"perfbench: imported rosterstat from {rosterstat.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, Path(workdir), nproc)
        wl.run(wl.warmup)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, wl)


def measure(args: argparse.Namespace, wl) -> int:
    first: dict = {}
    first_digest: dict = {}
    extra: dict = {}
    if args.trace == 0:
        setup = [probe_setup(args) for _ in range(SETUP_REPEATS)]
        phase = timed_loop(wl, args.seconds, first, first_digest)
        peak = wl.peak_rss_mb()
        phases = [phase]
        best = phase.best_latencies()
        tail = p90(best)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(best) / math.fsum(best), "1/s"),
            "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "op_p90_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (peak, "MiB"),
        }
        raw = phase.latencies
        extra = {
            "setup_samples_s": setup,
            "percentile_samples": {"op_p50_ms": len(best), "op_p90_ms": len(best),
                                   "beyond_p90": sum(x > tail for x in best)},
            "slowest_ops_ms": sorted(((b * 1e3, wl.ops[i].label) for i, b in
                                      dict(zip(phase.indices, best)).items()), reverse=True)[:12],
            "wall_clock": {"ops_per_s": len(raw) / phase.wall,
                           "op_p50_ms": statistics.median(raw) * 1e3,
                           "op_p90_ms": p90(raw) * 1e3},
        }
    else:
        from tracer import Tracer

        untraced = timed_loop(wl, args.seconds / 2, first, first_digest)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            root = tracer.open("bench", "run")
            traced = timed_loop(wl, args.seconds / 2, first, first_digest, tracer)
            tracer.close(root)
        finally:
            tracer.uninstall()
            wl.tracer = None
        peak = wl.peak_rss_mb()
        phases = [untraced, traced]
        metrics = per_layer(wl, tracer, untraced, traced, root, peak)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(spans_path))
        extra = {"spans_file": spans_path.name,
                 "ops_untraced": len(untraced.indices), "ops_traced": len(traced.indices)}

    failed, problems = check_outputs(wl, phases, first, first_digest)
    record = run_record(args, wl, phases, metrics, failed, problems, extra)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    attempted = record["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, python {record['python']}, numpy {record['numpy']}, "
          f"nproc {record['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6g} 1")
    for i, found in list(problems.items())[:5]:
        print(f"perfbench: op {i} ({wl.ops[i].label}): {'; '.join(found[:3])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
