"""explore-e3: the bounded explorer on the E3 two-process DVS-IMPL system.

``build_closed_dvs_impl`` with ``grid_view_pool(max_epoch=1, min_size=2)``,
``budget=1`` and ``eager_register=True``, checked against
``dvs_impl_invariants`` -- the configuration of the E3 exhaustive test --
explored breadth-first up to a fixed ``max_states`` budget.  The budget
is fixed because states/s falls with depth.  The exploration is
deterministic, so the seed is unused; one run repeats the build and the
exploration until ``seconds`` have passed.  The gated figures are
normalised to the host's speed around each repetition
(``common.HostSpeed``): set-up and rate are medians over the
repetitions, latencies percentiles over every state of the run.  The
named figure ``states_per_s`` is the raw wall-clock median.

One operation is one explored state; its latency is the wall time from
one new state to the next, stamped where the explorer checks the
invariants on each new state.
"""

import time

from common import GcPauses, HostSpeed, Result, median, peak_rss_mb, \
    percentile

#: States per exploration.
MAX_STATES = 500
#: What that exploration must find on every run (states, transitions,
#: depth), as recorded from the explorer on the E3 system.
EXPECTED = (500, 1233, 14)
#: Builds timed together per repetition (one build is well under 1 ms).
SETUP_REPEATS = 10


def build():
    """The system, its invariant suite, and the initial state checked --
    everything the explorer does before its first expansion."""
    from repro.checking.drivers import grid_view_pool
    from repro.checking.harness import build_closed_dvs_impl
    from repro.core import make_view
    from repro.dvs.invariants import dvs_impl_invariants

    universe = ["p1", "p2"]
    pool = grid_view_pool(universe, max_epoch=1, min_size=2)
    system, procs = build_closed_dvs_impl(
        make_view(0, universe), universe, view_pool=pool, budget=1,
        eager_register=True,
    )
    suite = dvs_impl_invariants(procs)
    initial = system.initial_state()
    initial.fingerprint()
    suite.check_state(initial)
    return system, suite


def stamped(suite):
    """``suite`` with a wall-clock stamp taken at every state checked."""
    from repro.ioa.invariants import InvariantSuite

    class StampedSuite(InvariantSuite):
        def __init__(self, invariants):
            super().__init__(invariants)
            self.stamps = []

        def check_state(self, state):
            self.stamps.append(time.perf_counter())
            return super().check_state(state)

    return StampedSuite(dict(suite.items()))


def run(seed, seconds, tracer=None):
    from repro.ioa.model_check import BoundedExplorer

    result = Result("explore-e3")
    build()  # imports and first-use caches, untimed
    runs = []
    host = HostSpeed()
    stats = {"setup": [], "rate": [], "raw_rate": []}
    latencies = []
    with GcPauses() as pauses:
        start = time.perf_counter()
        before = host.sample()
        while not runs or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            for _ in range(SETUP_REPEATS):
                system, suite = build()
            setup = (time.perf_counter() - began) / SETUP_REPEATS
            suite = stamped(suite)
            began = time.perf_counter()
            outcome = BoundedExplorer(
                system, invariants=suite, max_states=MAX_STATES
            ).explore()
            took = time.perf_counter() - began
            after = host.sample()
            factor = host.factor(before, after)
            before = after
            stamps = suite.stamps
            latencies.extend(1e3 * (b - a) / factor
                             for a, b in zip(stamps, stamps[1:]))
            stats["setup"].append(setup / factor)
            stats["raw_rate"].append(outcome.states_visited / took)
            stats["rate"].append(outcome.states_visited / took * factor)
            runs.append(outcome)

    explored = sum(r.states_visited for r in runs)
    result.attempted = explored
    result.failed = sum(1 for r in runs if r.violation is not None)
    result.metric("setup_s", median(stats["setup"]), "s", len(runs))
    result.metric("ops_per_s", median(stats["rate"]), "op/s", len(runs))
    result.metric("p50_ms", percentile(latencies, 0.5), "ms", len(latencies))
    result.metric("p95_ms", percentile(latencies, 0.95), "ms",
                  len(latencies))
    result.metric("rss_mb", peak_rss_mb(), "MiB")
    result.metric("states_per_s", median(stats["raw_rate"]), "states/s",
                  len(runs))
    host.report(result)
    counts = {(r.states_visited, r.transitions, r.max_depth_reached)
              for r in runs}
    result.check("no invariant violation",
                 all(r.violation is None for r in runs),
                 "{0} explorations".format(len(runs)))
    result.check("explored counts equal the recorded counts",
                 counts == {EXPECTED},
                 "got {0}, recorded {1}".format(sorted(counts), EXPECTED))
    last = runs[-1]
    result.layer.update({
        "explore.states": last.states_visited,
        "explore.transitions": last.transitions,
        "explore.depth": last.max_depth_reached,
        "gc.pause_max_ms": pauses.max_ms(),
        "gc.pause_total_ms": pauses.total_ms(),
    })
    return result
