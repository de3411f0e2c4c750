"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload live-steady --seed 1 --seconds 30 \
        --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload runs once, untraced, in this process and
the end-to-end metrics are reported.  With ``--trace 1`` it runs in fresh
child processes: once untraced and once with span tracing installed
(``tracing.py``), each for half the time, and for ``live-steady`` once
more with ``repro.obs`` armed; the per-layer metrics are reported, with
the traced/untraced slowdown.  Spans are written to
``.perfbench/spans-<workload>-<seed>.txt.gz``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every correctness check held.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("live-steady", "live-churn", "sim-history", "explore-e3")
#: Hard bound on one child pass (the whole run must end within 180 s).
CHILD_TIMEOUT = 80


def workload_module(name):
    if name.startswith("live-"):
        import live
        return live
    if name == "sim-history":
        import sim
        return sim
    import explore
    return explore


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- One pass (in this process) ---------------------------------------------


def run_pass(workload, seed, seconds, mode):
    """Run one pass; ``mode`` is ``untraced``, ``traced`` or ``obs``."""
    from common import Result

    module = workload_module(workload)
    kwargs = {"obs": True} if mode == "obs" else {}
    if workload.startswith("live-"):
        kwargs["kind"] = workload
    if mode != "traced":
        return module.run(seed, seconds, **kwargs), None
    from tracing import Tracer, install_layers

    tracer = install_layers(Tracer())
    try:
        result = module.run(seed, seconds, tracer=tracer, **kwargs)
    finally:
        tracer.restore()
    return result, tracer


def layer_metrics(result, tracer):
    """Per-layer numbers of a traced pass (see BENCHMARK.json)."""
    t = tracer
    maxima = t.maxima
    # Counts per operation: only what happened inside the timed windows
    # when the workload marked them, normalised by the operations there.
    counts = sums = t.windowed if t.windowed else t.counts + t.sums
    ops = max(1, result.ops or result.attempted)
    encoded = counts["codec.frames_encoded"]
    layer = {
        "codec.encode_us": t.self_us("codec.encode_frame"),
        "codec.decode_us": t.self_us("codec.decode"),
        "codec.bytes_per_frame": (
            sums["codec.bytes_encoded"] / encoded if encoded else 0.0),
        "codec.frames_per_encode": (
            counts["transport.frames_out"] / encoded if encoded else 0.0),
        "transport.frames_per_op": counts["transport.frames_out"] / ops,
        "transport.bytes_per_op": sums["transport.bytes_out"] / ops,
        "transport.queue_max": maxima["transport.queue_max"],
        "transport.queue_drops": sum(l.queue_drops for l in t.links),
        "transport.connects": sum(l.connects for l in t.links),
        "vs.self_us": t.self_us("vs.on_message"),
        "dvs.self_us": t.self_us("dvs.on_vs_gprcv", "dvs.on_vs_safe",
                                 "dvs.on_vs_newview"),
        "dvs.acks_per_bcast": counts["dvs.acks"] / ops,
        "to.self_us": t.self_us("to.on_dvs_gprcv", "to.on_dvs_safe"),
        "to.summary_entries": maxima["to.summary_entries"],
        "cb.self_us": t.self_us("cb.cbcast", "cb.on_dvs_gprcv"),
        "cb.holdback_max": maxima["cb.holdback_max"],
        "fanout.self_us": t.self_us("fanout.on_dvs_gprcv",
                                    "fanout.on_dvs_safe",
                                    "fanout.on_dvs_newview"),
        "log.record_us": t.self_us("log.record"),
        "monitor.self_us": t.self_us("monitor.on_action"),
        "sim.events_per_op": counts["sim.events"] / ops,
        "sim.send_us": t.self_us("sim.send"),
        "ioa.apply_us": t.self_us("ioa.apply"),
        "ioa.fingerprint_us": t.self_us("ioa.fingerprint"),
        "ioa.enabled_us": t.self_us("ioa.enabled_controlled"),
        "ioa.invariant_us": t.self_us("ioa.check_state"),
    }
    for name in ("Data", "Ordered", "Ack", "SafeNote", "Collect",
                 "StateReply", "Install"):
        layer["vs.msgs_in." + name] = counts["vs.msgs_in." + name] / ops
    layer.update(result.layer)
    return layer


def span_report(tracer):
    """Per-layer span totals; self times must add up to the root spans."""
    from tracing import LAYERS

    lines = ["{0:<10} {1:>9} {2:>12} {3:>12} {4:>12}".format(
        "layer", "spans", "span ms", "self ms", "in children")]
    for layer, names in LAYERS.items():
        calls = tracer.calls(*names)
        if not calls:
            continue
        total = sum(tracer.totals[n][1] for n in names)
        own = sum(tracer.totals[n][2] for n in names)
        lines.append("{0:<10} {1:>9} {2:>12.1f} {3:>12.1f} {4:>12.1f}".format(
            layer, calls, 1e3 * total, 1e3 * own, 1e3 * (total - own)))
    own = tracer.self_seconds()
    roots = tracer.root_seconds()
    lines.append("sum of self times {0:.3f} ms, sum of root spans {1:.3f} ms"
                 .format(1e3 * own, 1e3 * roots))
    return lines, abs(own - roots) <= 1e-6 * max(1.0, roots) + 1e-6


# -- Child processes ----------------------------------------------------------


def child(args, mode, seconds):
    """Run one pass in a fresh interpreter; return its Result."""
    from common import Result

    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, "{0}-{1}-{2}.json".format(
        args.workload, args.seed, mode))
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--pass", mode, "--out", out,
    ]
    done = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0 or not os.path.exists(out):
        raise SystemExit("{0} pass failed (exit {1})".format(
            mode, done.returncode))
    with open(out, encoding="utf-8") as handle:
        data = json.load(handle)
    os.remove(out)
    return Result.from_json(data["result"]), data.get("layer")


def child_main(args):
    result, tracer = run_pass(args.workload, args.seed, args.seconds,
                              args.mode)
    layer = None
    if tracer is not None:
        lines, balanced = span_report(tracer)
        print("\n".join(lines))
        result.check("self times add up to the root spans", balanced)
        spans = os.path.join(OUT, "spans-{0}-{1}.txt.gz".format(
            args.workload, args.seed))
        tracer.write(spans)
        print("spans written to", os.path.relpath(spans, ROOT))
        layer = layer_metrics(result, tracer)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"result": result.to_json(), "layer": layer}, handle)


# -- Reporting ----------------------------------------------------------------


def environment():
    """Cores, Python, and a digest of the program's sources (the checkout
    a run measures need not be a git repository, so the digest stands in
    for the commit)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "env: {0} cores, Python {1}, {2}, src sha256 {3}".format(
        os.cpu_count(), platform.python_version(), platform.platform(),
        digest.hexdigest()[:16])


def report(result):
    print("workload {0}: attempted {1}, failed {2}".format(
        result.workload, result.attempted, result.failed))
    for name, (value, unit, samples) in result.metrics.items():
        print("  {0:<18} {1:>14.4f} {2:<9} n={3}".format(
            name, value, unit, samples))
    for name, (ok, detail) in result.checks.items():
        print("  check {0}: {1}{2}".format(
            name, "ok" if ok else "FAILED", " ({0})".format(detail)
            if detail else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="mode",
                        choices=("untraced", "traced", "obs"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program to measure: {0} is missing".format(
            os.path.join("src", "repro")), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.mode is not None:
        child_main(args)
        return 0

    names = spec()
    print(environment())
    if not args.trace:
        result, _ = run_pass(args.workload, args.seed, args.seconds,
                             "untraced")
        wanted = [m["name"] for m in names["end_to_end"]]
        samples = result.metrics["p95_ms"][2]
        result.check("p95_ms has 10 samples beyond it",
                     samples * 0.05 >= 10, "n={0}".format(samples))
        report(result)
        metrics = {
            name: {"value": result.metrics[name][0],
                   "unit": result.metrics[name][1]}
            for name in wanted
        }
    else:
        half = max(1, args.seconds // 2)
        untraced, _ = child(args, "untraced", half)
        traced, partial = child(args, "traced", half)
        obs = None
        if args.workload == "live-steady":
            obs, _ = child(args, "obs", half)
        report(untraced)
        report(traced)
        layer = dict(partial)
        # Untraced-pass numbers: the sim's cost growth and the live
        # loop's timing are only meaningful without tracing in the way.
        for key in ("sim.cost_growth", "loop.lag_p50_ms", "loop.lag_p99_ms",
                    "load.late_max_ms", "load.late_count",
                    "gc.pause_max_ms", "gc.pause_total_ms",
                    "dvs.view_changes"):
            if key in untraced.layer:
                layer[key] = untraced.layer[key]
        layer["trace.slowdown"] = (untraced.metrics["ops_per_s"][0]
                                   / traced.metrics["ops_per_s"][0])
        layer["obs.cost_ratio"] = (
            obs.metrics["to.max_rps"][0] / untraced.metrics["to.max_rps"][0]
            if obs is not None else 0.0)
        result = traced
        for mode, other in (("untraced", untraced), ("obs", obs)):
            if other is not None:
                result.checks.update({
                    "{0} ({1} pass)".format(k, mode): v
                    for k, v in other.checks.items()})
        metrics = {}
        for entry in names["per_layer"]:
            value = float(layer.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print("  {0:<28} {1:>14.4f} {2}".format(
                entry["name"], value, entry["unit"]))
    line = {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
