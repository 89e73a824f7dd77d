"""attestlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                # every workload, seed 1, 10 s each

Run from the repository root or anywhere else; the program is imported
from the `src/` directory next to this one. With --trace 0 the last line
of stdout is one JSON object with the end-to-end metrics; with --trace 1
the same rounds run once untraced and once traced, and the JSON holds the
per-layer metrics and the tracing overhead. The exit code is 1 when an
output fails its correctness check and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

from speed import SpeedProbe

# One BLAS thread keeps all of the program's work on the CPU the speed
# probe samples; with two, the campaign spread 2.4 times wider (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
TAIL_MIN_SAMPLES = 40
# per-layer figures the workloads read from program outputs, with units
COUNTED = {"attestor.inferences_per_session": "ratio",
           "attestor.issued_nonces": "count",
           "attestor.false_alarms": "count",
           "model_io.container_bytes": "bytes",
           "evalkit.tnr_shortfall_rows": "count"}


def import_program(clock):
    """Import attestlab from ./src; returns the import's (start, end)."""
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import attestlab.cli  # noqa: F401  (loads every layer)
    t1 = clock()
    if Path(attestlab.cli.__file__).resolve().parent != SRC / "attestlab":
        raise SystemExit("bench: attestlab imported from outside %s" % SRC)
    return t0, t1


def tail(values):
    """Highest sample with TAIL_BEYOND samples above it.

    With fewer than TAIL_MIN_SAMPLES samples there is no tail to speak of,
    and the slowest sample is reported.
    """
    s = sorted(values)
    if len(s) < TAIL_MIN_SAMPLES:
        return s[-1]
    return s[len(s) - 1 - TAIL_BEYOND]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(summary: dict, overhead_s: float, counts: dict,
                  reject_reasons) -> dict:
    """Per-layer metrics from the traced run's span summary."""
    def spans(name):
        return summary.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0,
                                  "durations_ns": [], "sites": [],
                                  "rows": []})

    m = {}
    for name in ("trace.sample_traces", "trace.aggregate_many",
                 "trace.export_traces", "trace.import_traces",
                 "autoenc.train", "quantize.quantize_model",
                 "threshold.calibrate", "evalkit.q_errors", "evalkit.score",
                 "model_io.save_container", "model_io.load_container"):
        m[name + ".self_s"] = (spans(name)["self_ns"] / 1e9, "s")
    for name in ("trace.sample_traces", "evalkit.prepare_firmware"):
        m[name + ".calls"] = (spans(name)["calls"], "count")
    m["evalkit.prepare_firmware.p50_s"] = (median_or_zero(
        spans("evalkit.prepare_firmware")["durations_ns"]) / 1e9, "s")

    q = spans("quantize.q_reconstruct")
    b1 = [d for d, r in zip(q["durations_ns"], q["rows"]) if r == 1]
    big = [(d, r) for d, r in zip(q["durations_ns"], q["rows"]) if r >= 1000]
    m["quantize.q_reconstruct.b1_us"] = (median_or_zero(b1) / 1e3, "us")
    m["quantize.q_reconstruct.row_ns"] = (
        sum(d for d, _ in big) / sum(r for _, r in big) if big else 0.0,
        "ns")

    for name in ("attestor.self_attest", "attestor.validate_report",
                 "attestor.encode_report", "handshake.initiator_start",
                 "handshake.step"):
        m[name + ".p50_us"] = (
            median_or_zero(spans(name)["durations_ns"]) / 1e3, "us")
    for op in ("enc", "dec", "hmac_tag", "hmac_verify"):
        s = spans("secure_channel." + op)
        m["secure_channel.%s.p50_us" % op] = (
            median_or_zero(s["durations_ns"]) / 1e3, "us")
        m["secure_channel.%s.calls" % op] = (s["calls"], "count")

    # a Device refills its SRAM pool through handshake's own binding
    st = spans("trace.sample_traces")
    refills = [d for d, site in zip(st["durations_ns"], st["sites"])
               if site == "handshake"]
    m["handshake.refills"] = (len(refills), "count")
    m["handshake.refill.p50_ms"] = (median_or_zero(refills) / 1e6, "ms")

    for sub in ("gen", "train", "quantize", "calibrate", "attest",
                "handshake", "eval"):
        m["cli.%s.s" % sub] = (spans("cli." + sub)["total_ns"] / 1e9, "s")

    units = dict(COUNTED, **{"handshake.reject." + r: "count"
                             for r in reject_reasons})
    for key, unit in units.items():
        m[key] = (counts.get(key, 0), unit)
    m["tracing.overhead_s"] = (overhead_s, "s")
    return m


def rescaled(intervals, factor) -> list[float]:
    """Durations of (start, end) intervals at the reference speed, in ns."""
    return [(t1 - t0) * factor(t0, t1) for t0, t1 in intervals]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probe: SpeedProbe, import_span) -> tuple[dict, dict]:
    """One workload: (result object for the JSON line, unscaled figures)."""
    import workloads
    from tracing import Tracer

    workdir = OUT / ("%s-%d-%d" % (name, seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir, clock=probe.now)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = probe.now()
            wl.setup()
            setups.append((t0, probe.now()))
        wl.reset_measurement()
        rounds = wl.rounds_for(seconds)
        for r in range(rounds):
            wl.run_round(r)
        untraced = list(wl.ops)
        attempted, failed = wl.attempted, wl.failed
        problems = wl.problems()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factor = probe.scaler()
        op_ns = rescaled(untraced, factor)
        raw_ns = [t1 - t0 for t0, t1 in untraced]
        raw = {"wall_s": sum(raw_ns) / 1e9,
               "op_p50_ms": statistics.median(raw_ns) / 1e6}

        if not trace:
            metrics = {
                "setup_s": ((rescaled([import_span], factor)[0]
                             + statistics.median(rescaled(setups, factor)))
                            / 1e9, "s"),
                "wall_s": (sum(op_ns) / 1e9, "s"),
                "op_p50_ms": (statistics.median(op_ns) / 1e6, "ms"),
                "op_tail_ms": (tail(op_ns) / 1e6, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        else:
            tracer = Tracer(clock=probe.now)
            with tracer:
                wl.setup()
                wl.reset_measurement()
                for r in range(rounds):
                    wl.run_round(r)
            problems += wl.problems()
            factor = probe.scaler()
            overhead_s = (sum(rescaled(wl.ops, factor)) - sum(op_ns)) / 1e9
            metrics = layer_metrics(tracer.summary(factor), overhead_s,
                                    wl.layer_counts(),
                                    workloads.REJECT_REASONS)
            tracer.dump(OUT / ("spans-%s-%d.json" % (name, seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print("CHECK FAILED %s: %s" % (name, p), file=sys.stderr)
    for note in wl.notes:
        print("NOTE %s: %s" % (name, note), file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}, raw


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="campaign, handshake_honest, handshake_adversarial, "
                        "cli_chain, or all (default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "attestlab" / "__init__.py").is_file():
        print("bench: no attestlab sources at %s" % SRC, file=sys.stderr)
        return 2

    probe = SpeedProbe()
    probe.start()
    try:
        import_span = import_program(probe.now)
        import workloads
        names = list(workloads.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        for name in names:
            if name not in workloads.WORKLOADS:
                p.error("unknown workload %r" % name)
        OUT.mkdir(exist_ok=True)
        all_correct = True
        for name in names:
            res, raw = run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), probe, import_span)
            all_correct &= res["correct"]
            print("%s: correct=%s attempted=%d failed=%d"
                  % (name, res["correct"], res["attempted"], res["failed"]))
            for k, m in res["metrics"].items():
                note = "  (unscaled %.6f)" % raw[k] if k in raw else ""
                print("  %-40s %14.6f %s%s" % (k, m["value"], m["unit"], note))
            sys.stdout.flush()
            if len(names) > 1:
                print(json.dumps(dict(res, workload=name)))
    finally:
        probe.stop()
    if len(names) == 1:
        print(json.dumps(res))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
