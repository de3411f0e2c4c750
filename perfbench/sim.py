"""sim-history: the deterministic simulator over a long history.

A 3-node simulated :class:`~repro.gcs.cluster.Cluster` (seeded
``Network``, safety monitor armed) carries TO and CB broadcasts at 3:1,
sent in seeded bursts from seeded origins and settled after each burst,
until the history holds ``HISTORY`` broadcasts.  A run replays that same
history on a fresh cluster until ``seconds`` have passed; every message
count must repeat exactly.

One operation is one broadcast; its latency is the wall time from the
``bcast`` call until the last member delivered it.  The gated figures
are normalised to the host's speed around each repetition
(``common.HostSpeed``): set-up and rate are medians over the
repetitions, latencies percentiles over every broadcast of the run.
The named figures (``bcast_per_s``) are raw wall-clock medians.  Message and byte
counts come from the network's log of ``send`` events, encoded after the
timed window with the runtime's ``encode_frame``.
"""

import gc
import random
import time

from common import GcPauses, HostSpeed, Result, median, peak_rss_mb, \
    percentile, request_id, tag

PROCESSES = ["n1", "n2", "n3"]
#: Broadcasts in one history; a run repeats the history on a fresh
#: cluster until its time is up.
HISTORY = 1000
#: VS wire types, and the kinds of DVS payload a Data/Ordered carries.
VS_TYPES = ("Data", "Ordered", "Ack", "SafeNote", "Collect", "StateReply",
            "Install")
PAYLOAD_KINDS = ("client", "ack", "summary", "control")


def plan(seed, total):
    """Seeded bursts of ``(rid, origin, ordering, payload)``."""
    rng = random.Random(seed)
    bursts = []
    rid = 0
    while rid < total:
        burst = []
        for _ in range(min(rng.randint(1, 8), total - rid)):
            ordering = "cb" if rid % 4 == 3 else "to"
            size = rng.randint(900, 1100) if rng.random() < 0.05 else \
                rng.randint(16, 64)
            burst.append((rid, rng.choice(PROCESSES), ordering,
                          tag(rid, size)))
            rid += 1
        bursts.append(burst)
    return bursts


class Deliveries:
    """The application at every member: stamps each delivery."""

    def __init__(self, members):
        self.members = members
        self.seen = {}
        self.done = {}

    def on_brcv(self, payload, origin):
        self._note(payload)

    def on_cb_brcv(self, payload, origin):
        self._note(payload)

    def _note(self, payload):
        rid = request_id(payload)
        count = self.seen.get(rid, 0) + 1
        self.seen[rid] = count
        if count == self.members:
            self.done[rid] = time.perf_counter()


def build(seed):
    from repro.gcs.cluster import Cluster

    cluster = Cluster(PROCESSES, seed=seed, monitor=True)
    cluster.start()
    cluster.settle()
    return cluster


def payload_kind(payload):
    from repro.cb.messages import CbCast
    from repro.dvs.vs_to_dvs import AckMsg
    from repro.to.summaries import Summary

    if isinstance(payload, AckMsg):
        return "ack"
    if isinstance(payload, Summary):
        return "summary"
    if isinstance(payload, (CbCast, tuple)):
        return "client"
    return "control"


def drive(cluster, bursts, deliveries, submitted, burst_times):
    for burst in bursts:
        begin = time.perf_counter()
        for rid, origin, ordering, payload in burst:
            submitted[rid] = time.perf_counter()
            cluster.bcast(origin, payload, ordering=ordering)
        cluster.settle()
        burst_times.append((time.perf_counter() - begin, len(burst)))


def sends_since(cluster, index):
    return [entry[2] for entry in cluster.net.log[index:]
            if entry[1] == "send"]


def repetition(seed, bursts, tracer, pauses):
    """One history on a fresh cluster: (cluster, log index at the start,
    per-request submit and delivery stamps, burst timings, seconds)."""
    gc.collect()
    began = time.perf_counter()
    cluster = build(seed)
    setup = time.perf_counter() - began
    deliveries = Deliveries(len(PROCESSES))
    for pid in PROCESSES:
        cluster.to[pid].listener = deliveries
        cluster.cb[pid].listener = deliveries
    log_start = len(cluster.net.log)
    submitted = {}
    burst_times = []
    if tracer is not None:
        tracer.open_window()
    with pauses:
        start = time.perf_counter()
        drive(cluster, bursts, deliveries, submitted, burst_times)
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close_window()
    return cluster, setup, log_start, submitted, deliveries.done, \
        burst_times, elapsed


def run(seed, seconds, tracer=None):
    from repro.runtime.codec import encode_frame

    result = Result("sim-history")
    bursts = plan(seed, HISTORY)

    build(seed)  # imports and first-use caches, untimed
    pauses = GcPauses()
    host = HostSpeed()
    stats = {"setup": [], "rate": [], "raw_rate": [], "growth": []}
    latencies = []
    signatures = set()
    failed = 0
    start = time.perf_counter()
    before = host.sample()
    while not stats["rate"] or time.perf_counter() - start < seconds:
        cluster, setup, log_start, submitted, done, burst_times, elapsed = \
            repetition(seed, bursts, tracer, pauses)
        after = host.sample()
        factor = host.factor(before, after)
        before = after
        stats["setup"].append(setup / factor)
        failed += HISTORY - len(done)
        stats["raw_rate"].append(HISTORY / elapsed)
        stats["rate"].append(HISTORY / elapsed * factor)
        latencies.extend(1e3 * (done[rid] - submitted[rid]) / factor
                         for rid in done)
        tenth = max(1, len(burst_times) // 10)
        stats["growth"].append(
            per_bcast_us(burst_times[-tenth:])
            / per_bcast_us(burst_times[:tenth]))
        sends = sends_since(cluster, log_start)
        order = tuple(cluster.delivered(PROCESSES[0]))
        signatures.add(hash((tuple(repr(m) for m in sends), order)))

    # -- Untimed from here on; the last repetition's cluster is read. --
    reps = len(stats["rate"])
    total = reps * HISTORY
    result.attempted = total
    result.failed = failed
    result.ops = total
    result.metric("setup_s", median(stats["setup"]), "s", reps)
    result.metric("ops_per_s", median(stats["rate"]), "op/s", reps)
    result.metric("p50_ms", percentile(latencies, 0.5), "ms", len(latencies))
    result.metric("p95_ms", percentile(latencies, 0.95), "ms",
                  len(latencies))
    result.metric("rss_mb", peak_rss_mb(), "MiB")
    result.metric("bcast_per_s", median(stats["raw_rate"]), "bcast/s", reps)
    result.metric("failed_ratio", failed / total, "failed/attempted", total)
    host.report(result)

    split = {}
    wire_bytes = 0
    for src, dst, msg in sends:
        wire_bytes += len(encode_frame((src, msg)))
        name = type(msg).__name__
        if name in ("Data", "Ordered"):
            name += "." + payload_kind(msg.payload)
        split[name] = split.get(name, 0) + 1
    result.metric("msgs_per_bcast", len(sends) / HISTORY, "msgs",
                  len(sends))
    result.metric("bytes_per_bcast", wire_bytes / HISTORY, "B", len(sends))
    for vs_type in VS_TYPES:
        kinds = (["." + k for k in PAYLOAD_KINDS]
                 if vs_type in ("Data", "Ordered") else [""])
        for kind in kinds:
            result.layer["sim.per_bcast." + vs_type + kind] = (
                split.get(vs_type + kind, 0) / HISTORY
            )
    result.layer.update({
        "sim.msgs_per_bcast": len(sends) / HISTORY,
        "sim.bytes_per_bcast": wire_bytes / HISTORY,
        "sim.cost_growth": median(stats["growth"]),
        "gc.pause_max_ms": pauses.max_ms(),
        "gc.pause_total_ms": pauses.total_ms(),
        "log.len": len(cluster.log),
        "to.order_len": max(len(cluster.to[p].order) for p in PROCESSES),
    })

    # -- Correctness. --
    result.check("safety monitor: no violation", cluster.monitor.ok,
                 "; ".join(v.summary() for v in cluster.monitor.violations))
    result.check("every broadcast delivered at every member", failed == 0,
                 "{0} of {1} missing".format(failed, total))
    orders = {tuple(cluster.delivered(p)) for p in PROCESSES}
    result.check("TO delivery sequences identical", len(orders) == 1,
                 "{0} distinct sequences".format(len(orders)))
    # Every repetition replays the same seeded history on a fresh
    # cluster: the sends and the delivery order must repeat exactly.
    result.check("counts repeat exactly for the seed", len(signatures) == 1,
                 "{0} repetitions, {1} distinct".format(reps,
                                                       len(signatures)))
    return result


def per_bcast_us(window):
    return 1e6 * sum(t for t, _ in window) / sum(n for _, n in window)
