"""live-steady and live-churn: the loopback TCP runtime.

Both build a :class:`~repro.runtime.cluster.RuntimeCluster` with the
safety monitor armed and drive it from this (single) thread through the
cluster's public marshalling calls.  Due times of the open-loop generator
are in the cluster clock's frame (``cluster.clock.now``: seconds since
the clock was built), and latency is timed from a request's due time to
its ``brcv``/``cb_brcv`` at each member, read from the shared action log
after the cluster stopped.  Completion is watched through per-node
counters (``to.nextreport``, ``cb.deliveries``), never by scanning the
log while the cluster runs.

Each run is a series of *episodes*, each on a fresh cluster whose
build-to-first-live-view time is one set-up sample.  Short episodes keep
the heap small: the shared action log is never truncated, so collector
pauses grow with it, and a pause near the heartbeat timeout (0.25 s)
makes a spurious view change that drops CB casts.

The gated rate is the median over the episodes of each episode's
closed-loop rate, normalised to the host's speed over the episode
(``common.HostSpeed``): in ten unnormalised runs made while the host
changed speed about 2x, it ranged from 340 to 527 requests/s.  The gated
latencies are the least-disturbed episode's percentiles, not
normalised: the virtual machine's cores are taken away for up to tens of
milliseconds at a time (4% of the processor time in some minutes),
which stalls the event loop, and within one run the episodes' TO p95
ranged from 7 to 113 ms; and latency, which waits on loopback I/O,
thread hand-offs and timers, moved far less than the host's speed
(p50 2.0 to 2.8 ms in those runs), so normalising by it overshoots.

live-steady -- 3 nodes; TO carries KV puts, CB carries presence
updates, interleaved 1:1.  Per episode, an open loop at ``STEADY_RATE``
gives the latency and a closed loop with ``WINDOW`` requests outstanding
per tier gives the throughput.

live-churn -- 5 nodes, TO KV puts only; not in BENCHMARK.json (see
README.md).  Per episode, a closed loop builds a ``HISTORY``-request
history, then one kill/restart cycle runs under an open loop at
``CHURN_RATE`` (the victim alternates between the sequencer, the lowest
pid, and a seeded non-sequencer across episodes; restarts are amnesiac
rejoins), then a closed loop runs for ``RECOVERED`` seconds on the
recovered cluster (its rate is the throughput).
"""

import collections
import contextlib
import gc
import random
import time

from common import GcPauses, HostSpeed, Result, median, peak_rss_mb, \
    percentile, request_id, tag, tail_fraction

STEADY_PIDS = ["n1", "n2", "n3"]
CHURN_PIDS = ["n1", "n2", "n3", "n4", "n5"]
#: Offered load of the live-steady open loop (TO + CB requests/s).
STEADY_RATE = 120
#: Outstanding requests per tier in the closed loops.
WINDOW = 8
#: Fresh clusters per live-steady run: one per this many seconds of
#: measurement, each getting an equal share of the run's measuring time,
#: OPEN_SHARE of it in the open loop.  (Build, warm-up, checks and
#: teardown come on top, about 0.9 s per episode.)
STEADY_EPISODE_SECONDS = 3.3
OPEN_SHARE = 0.55
#: Fresh clusters per live-churn run, the requests of the history each
#: builds first, and the kill/restart cycles that follow.  Larger
#: histories push recovery into a collapse: with 250 or more requests,
#: views flap for seconds and requests go undelivered.
CHURN_EPISODES = 3
HISTORY = 100
CHURN_RATE = 25
CYCLES = 1
#: Seconds of the closed loop on the recovered cluster.
RECOVERED = 2.0
KEYS = 64
#: Bound on any wait for the cluster (formation, drain, rejoin).
WAIT = 15.0
CALL = 10.0
#: Interval of the no-op round trips that sample event-loop lag.
LAG_EVERY = 0.05
POLL = 0.002


def payload_size(rng):
    """Mostly tens of bytes; a seeded 5% share near 1 KiB."""
    if rng.random() < 0.05:
        return rng.randint(900, 1100)
    return rng.randint(16, 64)


class Live:
    """A running cluster plus the load generator's view of it."""

    def __init__(self, pids, seed, cb, obs):
        from repro.apps.kv_store import KvReplica
        from repro.apps.presence import PresenceBoard
        from repro.runtime.cluster import RuntimeCluster

        self.pids = list(pids)
        self.rng = random.Random(seed)
        self.cb = cb
        self.cluster = RuntimeCluster(
            pids, app_factory=lambda node: KvReplica(node.to),
            cb_app_factory=(lambda node: PresenceBoard(node.cb)) if cb
            else None,
            obs=True if obs else None,
        )
        self.nodes = {}
        self.next_rid = 0
        #: rid -> (tier, due time on the cluster clock)
        self.due = {}
        self.submitted = {"to": 0, "cb": 0}
        self.lag = []
        self.late = []
        self._next_lag = 0.0

    # -- Lifecycle -----------------------------------------------------------

    def start(self):
        self.cluster.start(timeout=CALL)
        self.refresh()
        self.wait_live()
        return self

    def refresh(self):
        self.nodes = {
            pid: self.cluster.call_node(pid, lambda node: node, timeout=CALL)
            for pid in self.cluster.live()
        }

    def wait_live(self):
        """Every node NORMAL in TO, with TO (and CB) on the same first
        *live* view over every node -- not the bootstrap view."""
        initial = self.cluster.initial_view.id
        nodes = list(self.nodes.values())

        def live():
            return settled(nodes) and nodes[0].to.current.id != initial \
                and (not self.cb or all(
                    node.cb.current is not None
                    and node.cb.current.id == node.to.current.id
                    for node in nodes))

        self.until(live, "first live view over {0}".format(
            sorted(self.nodes)))

    def until(self, predicate, what, timeout=WAIT):
        """Poll ``predicate`` on the loop thread; bounded."""
        deadline = time.monotonic() + timeout
        while not self.cluster.call_node(self.anchor, lambda _: predicate(),
                                         timeout=CALL):
            if time.monotonic() > deadline:
                raise TimeoutError("timed out waiting for " + what)
            time.sleep(POLL)

    @property
    def anchor(self):
        """A running node to marshal calls from this thread through."""
        return min(self.nodes)

    @property
    def now(self):
        return self.cluster.clock.now

    # -- Requests ------------------------------------------------------------

    def request(self, tier, origins):
        """A seeded request: (rid, tier, origin, key, payload)."""
        rid = self.next_rid
        self.next_rid += 1
        origin = self.rng.choice(origins)
        key = "k{0}".format(self.rng.randrange(KEYS))
        return rid, tier, origin, key, tag(rid, payload_size(self.rng))

    def submit(self, req, due):
        """Submit ``req`` at its origin (runs the app call on the loop)."""
        rid, tier, origin, key, value = req
        self.due[rid] = (tier, due)
        self.submitted[tier] += 1
        if tier == "to":
            self.cluster.call_app(origin, lambda app: app.put(key, value),
                                  timeout=CALL)
        else:
            self.cluster.call_cb_app(origin,
                                     lambda board: board.announce(value),
                                     timeout=CALL)

    def sample_lag(self):
        now = self.now
        if now < self._next_lag:
            return
        self._next_lag = now + LAG_EVERY
        start = time.perf_counter()
        self.cluster.call_node(self.anchor, lambda _: None, timeout=CALL)
        self.lag.append(time.perf_counter() - start)

    def open_loop(self, rate, tiers, origins, until):
        """Submit requests at ``rate``/s on a fixed schedule until
        ``until()`` is true (checked between requests).  ``tiers`` cycles
        the ordering tier of successive requests; ``origins()`` lists the
        nodes that may originate the next one."""
        due = self.now
        k = 0
        while not until():
            req = self.request(tiers[k % len(tiers)], origins())
            k += 1
            while True:
                wait = due - self.now
                if wait <= 0:
                    break
                if wait > 0.004:
                    self.sample_lag()
                time.sleep(min(wait, LAG_EVERY))
            self.late.append(self.now - due)
            self.submit(req, due)
            due += 1.0 / rate

    def closed_loop(self, tiers, seconds=None, count=None):
        """Keep ``WINDOW`` requests outstanding per tier for ``seconds``
        (or until ``count`` requests completed everywhere).  Returns the
        completions per tier and the elapsed time."""
        nodes = list(self.nodes.values())
        apps = {pid: self.cluster.app(pid) for pid in self.nodes}
        boards = ({pid: self.cluster.cb_app(pid) for pid in self.nodes}
                  if self.cb else {})
        # Everything submitted before this phase is delivered first (or
        # concurrently); completions count beyond it.
        base = dict(self.submitted)
        sent = {tier: 0 for tier in tiers}
        # The seeded generator runs on this thread only: it keeps a pool
        # of requests that the loop-thread step takes from in order.
        pool = {tier: collections.deque() for tier in tiers}
        taken = []

        def step():
            # Loop thread: completions, then refill every window.
            done = self._done(nodes)
            for tier in tiers:
                complete = done[tier] - base[tier]
                while sent[tier] - complete < WINDOW and pool[tier]:
                    req = pool[tier].popleft()
                    rid, _, origin, key, value = req
                    sent[tier] += 1
                    taken.append(req)
                    if tier == "to":
                        apps[origin].put(key, value)
                    else:
                        boards[origin].announce(value)
            return done

        start = self.now
        while True:
            for tier in tiers:
                while len(pool[tier]) < 2 * WINDOW:
                    pool[tier].append(self.request(tier, self.pids))
            done = self.cluster.call_node(self.anchor, lambda _: step(),
                                          timeout=CALL)
            for req in taken:
                self.due[req[0]] = (req[1], None)
                self.submitted[req[1]] += 1
            taken.clear()
            finished = {t: done[t] - base[t] for t in tiers}
            elapsed = self.now - start
            if seconds is not None and elapsed >= seconds:
                break
            if count is not None and sum(finished.values()) >= count:
                break
            self.sample_lag()
            time.sleep(POLL)
        return finished, elapsed

    def _done(self, nodes):
        """Requests delivered at every node, per tier (loop thread)."""
        return {
            "to": min(node.to.nextreport - 1 for node in nodes),
            "cb": min(node.cb.deliveries for node in nodes),
        }

    def drain(self):
        """Wait (bounded) until every node delivered every request."""
        nodes = list(self.nodes.values())
        want_to = self.submitted["to"]
        want_cb = self.submitted["cb"]

        def drained():
            done = self._done(nodes)
            return done["to"] >= want_to and (
                not self.cb or done["cb"] >= want_cb)

        try:
            self.until(drained, "every request delivered everywhere")
            return True
        except TimeoutError:
            return False

    # -- After the run -------------------------------------------------------

    def final_checks(self, result, tally):
        cluster = self.cluster
        try:
            cluster.check()
            result.check("safety monitor and layers clean", True)
        except AssertionError as exc:
            result.check("safety monitor and layers clean", False, str(exc))
        logs = {pid: cluster.call_app(pid, lambda app: app.command_log(),
                                      timeout=CALL)
                for pid in cluster.live()}
        snaps = {pid: cluster.call_app(pid, lambda app: app.snapshot(),
                                       timeout=CALL)
                 for pid in cluster.live()}
        result.check("TO delivery sequences identical",
                     len({repr(v) for v in logs.values()}) == 1)
        result.check("KV snapshots equal",
                     len({repr(sorted(v.items())) for v in snaps.values()})
                     == 1)
        tally.order_len = max([tally.order_len] + [
            cluster.call_node(pid, lambda n: len(n.to.order), timeout=CALL)
            for pid in cluster.live()])

    def deliveries(self):
        """(time, tier, rid, pid) of every delivery in the shared log, and
        (time, view id) of every primary view; read after the cluster
        stopped."""
        out = []
        views = []
        for at, action in self.cluster.log.timed_actions():
            if action.name == "brcv":
                out.append((at, "to", request_id(action.params[0]),
                            action.params[2]))
            elif action.name == "cb_brcv":
                out.append((at, "cb", request_id(action.params[0]),
                            action.params[2]))
            elif action.name == "dvs_newview":
                views.append((at, action.params[0].id))
        return out, views


class Tally:
    """What the episodes of one run add up to."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.window_ops = 0
        self.setup = []
        self.samples = {"to": [], "cb": []}
        #: The TO latency samples of each episode.
        self.episodes = []
        self.rates = {"to": [], "cb": []}
        self.lag = []
        self.late = []
        self.pauses = GcPauses()
        self.host = HostSpeed()
        #: Host slowness over each episode (see :meth:`finish`).
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.view_changes = 0
        self.log_len = 0
        self.order_len = 0
        self.unavailable = []
        self.rejoin = []

    @contextlib.contextmanager
    def window(self, live):
        """A timed window: GC pauses and (traced) layer counts.  The
        tracer's counters are written on the loop thread, so they are
        read there too."""
        tracer = self.tracer
        if tracer is not None:
            live.cluster.call_node(live.anchor,
                                   lambda _: tracer.open_window(),
                                   timeout=CALL)
        with self.pauses:
            yield
        if tracer is not None:
            live.cluster.call_node(live.anchor,
                                   lambda _: tracer.close_window(),
                                   timeout=CALL)

    def start(self, pids, seed, cb, obs):
        """A fresh cluster, its build-to-live time recorded as set-up.
        The previous episode's garbage is collected first, untimed."""
        gc.collect()
        self._before = self.host.sample()
        start = time.perf_counter()
        live = Live(pids, seed, cb, obs).start()
        self.setup.append(time.perf_counter() - start)
        return live

    def finish(self, live):
        """After ``live`` stopped.  The host is sampled here and in
        :meth:`start`, with no cluster running: while one runs, its loop
        thread takes the interpreter lock and the kernel reads slow."""
        self.factors.append(
            self.host.factor(self._before, self.host.sample()))
        self.lag.extend(live.lag)
        self.late.extend(live.late)
        self.log_len = max(self.log_len, len(live.cluster.log))

    def report(self, result):
        lag = [1e3 * x for x in self.lag] or [0.0]
        late = [1e3 * x for x in self.late] or [0.0]
        result.metric("setup_s", median(self.setup), "s", len(self.setup))
        result.attempted = self.attempted
        result.failed = self.failed
        result.ops = self.window_ops
        result.layer.update({
            "loop.lag_p50_ms": percentile(lag, 0.5),
            "loop.lag_p99_ms": percentile(lag, tail_fraction(len(lag))),
            "load.late_max_ms": max(late),
            "load.late_count": sum(1 for x in late if x > 1.0),
            "gc.pause_max_ms": self.pauses.max_ms(),
            "gc.pause_total_ms": self.pauses.total_ms(),
            "dvs.view_changes": self.view_changes,
            "log.len": self.log_len,
            "to.order_len": self.order_len,
        })


def settled(nodes):
    """Every node NORMAL in TO, in one view over exactly these nodes
    (loop thread)."""
    members = frozenset(node.pid for node in nodes)
    views = set()
    for node in nodes:
        to = node.to
        if (to.status != "normal" or to.current is None
                or to.current.set != members):
            return False
        views.add(to.current.id)
    return len(views) == 1


def gated_latency(result, episodes):
    """p50/p95 of the TO latency: the least-disturbed episode's."""
    lat = [[1e3 * x for x in samples] for samples in episodes if samples]
    if not lat:
        result.check("latency samples", False, "none")
        return
    count = sum(len(samples) for samples in lat)
    for name, fraction in (("p50_ms", 0.5), ("p95_ms", 0.95)):
        result.metric(name, min(percentile(s, fraction) for s in lat),
                      "ms", count)


def gated_rate(result, tally, rates):
    """The median of the episodes' closed-loop ``rates``, each normalised
    to the host's speed over its episode (``common.HostSpeed``)."""
    result.metric("ops_per_s", median([
        rate * factor for rate, factor in zip(rates, tally.factors)]),
        "op/s", len(rates))
    tally.host.report(result)


def latency_metrics(result, samples, prefix):
    """p50 and the highest percentile with 10 samples beyond it, over
    the samples of every episode pooled."""
    lat = [1e3 * x for x in samples]
    if not lat:
        result.check(prefix + "latency samples", False, "none")
        return
    tail = tail_fraction(len(lat))
    result.metric(prefix + "p50_ms", percentile(lat, 0.5), "ms", len(lat))
    result.metric(prefix + "p{0:g}_ms".format(100 * tail),
                  percentile(lat, tail), "ms", len(lat))


def run(seed, seconds, kind="live-steady", tracer=None, obs=False):
    if kind == "live-churn":
        return run_churn(seed, seconds, obs, Tally(tracer))
    return run_steady(seed, seconds, obs, Tally(tracer))


def steady_episode(live, seconds, result, tally):
    """Warm up, then the open loop and the closed loop; untimed checks."""
    live.closed_loop(("to", "cb"), count=8 * WINDOW)
    if not live.drain():
        result.check("warm-up delivered", False)
    warm = live.next_rid
    live.lag.clear()
    live.late.clear()
    with tally.window(live):
        window_start = live.now
        t_open = live.now + OPEN_SHARE * seconds
        live.open_loop(STEADY_RATE, ("to", "cb"), lambda: live.pids,
                       until=lambda: live.now >= t_open)
        open_rids = (warm, live.next_rid)
        finished, elapsed = live.closed_loop(
            ("to", "cb"), seconds=(1.0 - OPEN_SHARE) * seconds)
        window_end = live.now
    drained = live.drain()
    live.final_checks(result, tally)
    live.cluster.stop(timeout=CALL)
    tally.finish(live)

    deliveries, views = live.deliveries()
    members = set(live.pids)
    mark = len(tally.samples["to"])
    got = {}
    for at, tier, rid, pid in deliveries:
        if rid < warm:
            continue
        got.setdefault(rid, set()).add(pid)
        due = live.due[rid][1]
        if open_rids[0] <= rid < open_rids[1] and due is not None:
            tally.samples[tier].append(at - due)
    tally.episodes.append(tally.samples["to"][mark:])
    attempted = [rid for rid in live.due if rid >= warm]
    failed = [rid for rid in attempted if got.get(rid) != members]
    tally.attempted += len(attempted)
    tally.window_ops += len(attempted)
    tally.failed += len(failed)
    for tier in ("to", "cb"):
        tally.rates[tier].append(finished[tier] / elapsed)
    changes = {vid for at, vid in views if window_start <= at <= window_end}
    tally.view_changes += len(changes)
    result.check("every request delivered at every member",
                 drained and not failed)
    result.check("no view change in the timed window", not changes,
                 ", ".join(sorted(str(v) for v in changes)))


def run_steady(seed, seconds, obs, tally):
    result = Result("live-steady")
    episodes = max(1, round(seconds / STEADY_EPISODE_SECONDS))
    for episode in range(episodes):
        live = tally.start(STEADY_PIDS, seed * 100 + episode, True, obs)
        try:
            steady_episode(live, seconds / episodes, result, tally)
        finally:
            live.cluster.stop(timeout=CALL)
    tally.report(result)
    result.check("every request delivered at every member",
                 tally.failed == 0, "{0} of {1} missing".format(
                     tally.failed, tally.attempted))
    total = [a + b for a, b in zip(tally.rates["to"], tally.rates["cb"])]
    gated_latency(result, tally.episodes)
    gated_rate(result, tally, total)
    result.metric("rss_mb", peak_rss_mb(), "MiB")
    latency_metrics(result, tally.samples["to"], "to.")
    latency_metrics(result, tally.samples["cb"], "cb.")
    result.metric("to.max_rps", median(tally.rates["to"]), "req/s",
                  len(tally.rates["to"]))
    result.metric("cb.max_rps", median(tally.rates["cb"]), "req/s",
                  len(tally.rates["cb"]))
    result.metric("failed_ratio", result.failed / max(1, result.attempted),
                  "failed/attempted", result.attempted)
    return result


def churn_episode(live, rng, sequencer, result, tally):
    """History, kill/restart cycles under the open loop, then the closed
    loop on the recovered cluster."""
    live.closed_loop(("to",), count=HISTORY)
    if not live.drain():
        result.check("history delivered", False)
    churn_start = live.next_rid
    live.lag.clear()
    live.late.clear()
    cycles = []
    with tally.window(live):
        for cycle in range(CYCLES):
            up = sorted(live.nodes)
            victim = up[0] if sequencer else rng.choice(up[1:])
            sequencer = not sequencer
            others = [p for p in up if p != victim]
            pause = live.now + rng.uniform(1.6, 2.0)
            live.open_loop(CHURN_RATE, ("to",), lambda: others,
                           until=lambda: live.now >= pause)
            killed = live.now
            live.cluster.kill(victim, timeout=CALL)
            del live.nodes[victim]
            down = live.now + rng.uniform(0.6, 1.0)
            live.open_loop(CHURN_RATE, ("to",), lambda: others,
                           until=lambda: live.now >= down)
            restarted = live.now
            live.cluster.restart(victim, timeout=CALL)
            live.refresh()
            mark = live.next_rid
            deadline = live.now + WAIT

            nodes = list(live.nodes.values())

            def rejoined():
                # The rejoined node applied a request submitted after its
                # restart (TO applies in order: the newest one tells),
                # and every node is NORMAL in one view over all of them.
                return live.now > deadline or live.cluster.call_app(
                    victim, lambda app: bool(app.applied) and
                    request_id(app.applied[-1][0]) >= mark and
                    settled(nodes), timeout=CALL)

            live.open_loop(CHURN_RATE, ("to",), lambda: others,
                           until=rejoined)
            cycles.append((victim, killed, restarted, others))
        finished, elapsed = live.closed_loop(("to",), seconds=RECOVERED)
    tally.rates["to"].append(finished["to"] / elapsed)
    drained = live.drain()
    live.final_checks(result, tally)
    live.cluster.stop(timeout=CALL)
    tally.finish(live)

    deliveries, views = live.deliveries()
    restarts = {}
    for victim, killed, restarted, _ in cycles:
        restarts.setdefault(victim, []).append(restarted)
    got = {}
    seen = {}
    mark = len(tally.samples["to"])
    for at, tier, rid, pid in deliveries:
        got.setdefault(rid, set()).add(pid)
        due = live.due[rid][1]
        if rid < churn_start or due is None:
            continue
        # Deliveries of one incarnation only: a rejoined node replays
        # requests due before it was born, which are not latency.
        born = max([t for t in restarts.get(pid, []) if t <= at],
                   default=0.0)
        if born <= due:
            tally.samples["to"].append(at - due)
        seen.setdefault((pid, born), []).append((at, due))
    tally.episodes.append(tally.samples["to"][mark:])
    for victim, killed, restarted, others in cycles:
        gaps = []
        for pid in others:
            firsts = [at for (p, _), log in seen.items() if p == pid
                      for at, due in log if due > killed]
            gaps.append(min(firsts) - killed if firsts else WAIT)
        tally.unavailable.append(max(gaps))
        firsts = [at for at, due in seen.get((victim, restarted), [])
                  if due > restarted]
        tally.rejoin.append(min(firsts) - restarted if firsts else WAIT)
    final = set(live.pids)
    attempted = list(live.due)
    failed = [rid for rid in attempted if not final <= got.get(rid, set())]
    tally.attempted += len(attempted)
    tally.window_ops += sum(1 for rid in live.due if rid >= churn_start)
    tally.failed += len(failed)
    tally.view_changes += len({vid for _, vid in views})
    result.check("every request delivered at every member",
                 drained and not failed)


def run_churn(seed, seconds, obs, tally):
    result = Result("live-churn")
    rng = random.Random(seed)
    for episode in range(CHURN_EPISODES):
        live = tally.start(CHURN_PIDS, seed * 100 + episode, False, obs)
        try:
            churn_episode(live, rng, episode % 2 == 0, result, tally)
        finally:
            live.cluster.stop(timeout=CALL)
    tally.report(result)
    result.check("every request delivered at every member",
                 tally.failed == 0, "{0} of {1} missing".format(
                     tally.failed, tally.attempted))
    gated_latency(result, tally.episodes)
    gated_rate(result, tally, tally.rates["to"])
    result.metric("rss_mb", peak_rss_mb(), "MiB")
    latency_metrics(result, tally.samples["to"], "to.")
    result.metric("to.max_rps", median(tally.rates["to"]), "req/s",
                  len(tally.rates["to"]))
    result.metric("unavailable_ms", 1e3 * median(tally.unavailable), "ms",
                  len(tally.unavailable))
    result.metric("rejoin_ms", 1e3 * median(tally.rejoin), "ms",
                  len(tally.rejoin))
    result.metric("failed_ratio", result.failed / max(1, result.attempted),
                  "failed/attempted", result.attempted)
    result.check("every rejoin completed",
                 all(r < WAIT for r in tally.rejoin))
    return result
