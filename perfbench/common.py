"""Shared pieces of the benchmark: results, percentiles, memory and GC
accounting, and the payload format every workload uses.

Every request payload carries a text field ``"#<rid>:<padding>"``, so a
request id can be recovered from any layer's arguments (see
:func:`request_id`) and from the shared action log afterwards.
"""

import gc
import resource
import statistics
import time

#: Percentiles tried for a tail metric, highest first; the first with at
#: least ``TAIL_BEYOND`` samples above it is reported.
TAIL_CANDIDATES = (0.99, 0.95, 0.90, 0.75, 0.50)
TAIL_BEYOND = 10


def tag(rid, size):
    """The text field carrying request ``rid``, padded to ``size`` bytes."""
    head = "#{0}:".format(rid)
    return head + "x" * max(0, size - len(head))


def request_id(value, depth=0):
    """The request id inside ``value`` (a payload, a wire message, a
    labelled TO entry ...), or -1 when it carries none."""
    if isinstance(value, str):
        if value[:1] == "#":
            return int(value[1:value.index(":")])
        return -1
    if depth > 3:
        return -1
    inner = getattr(value, "payload", None)
    if inner is not None:
        return request_id(inner, depth + 1)
    if isinstance(value, tuple) and len(value) <= 4:
        for item in value:
            rid = request_id(item, depth + 1)
            if rid >= 0:
                return rid
    return -1


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = int(round(fraction * len(ordered)))
    index = min(len(ordered) - 1, max(0, rank - 1))
    return ordered[index]


def tail_fraction(count):
    """The highest candidate percentile with >= TAIL_BEYOND samples above."""
    for fraction in TAIL_CANDIDATES:
        if count * (1.0 - fraction) >= TAIL_BEYOND:
            return fraction
    return 0.5


def median(values):
    return statistics.median(values)


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference_kernel(count=2000):
    """Fixed interpreter work (object creation, tuple keys, dict updates,
    ``str``) of the kind the program does; independent of the program."""
    table = {}
    total = 0
    for i in range(count):
        probe = _Probe((i % 211, i & 7), str(i))
        table[probe.key] = table.get(probe.key, 0) + len(probe.value)
        total += table[probe.key]
    return total


class HostSpeed:
    """How fast the host runs at the moment, from a reference kernel timed
    beside the workload's repetitions.

    The shared host this benchmark was tuned on changes speed by up to
    1.5x, at times 2x, for minutes at a time, on both cores at once (a
    fixed loop took 9 ms in one minute and 14 ms in the next), so no
    statistic over one 30 s run removes it.  A repetition's measured time
    divided by :meth:`factor` -- the kernel's time around the repetition
    over its nominal ``REFERENCE_MS`` -- reads as if the host ran at that
    nominal speed.  Over 13 consecutive 30 s windows of simulator
    repetitions, this took the quartile spread of the windows' median
    rate from 0.15 to 0.08 and of their median latency from 0.14 to 0.06.
    """

    #: Nominal kernel time the normalised figures are expressed at.
    REFERENCE_MS = 2.0

    def __init__(self):
        self.samples = []

    def sample(self):
        """Median of five kernel timings, in seconds; collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                _reference_kernel()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def factor(self, before, after):
        """Host slowness over an interval: the mean of the kernel timings
        taken before and after it, over the nominal time (> 1: slow)."""
        return (before + after) / 2.0 / (self.REFERENCE_MS / 1e3)

    def report(self, result):
        result.metric("host.ref_ms", 1e3 * median(self.samples), "ms",
                      len(self.samples))


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcPauses:
    """Collector pauses seen through ``gc.callbacks`` while armed."""

    def __init__(self):
        self.pauses = []
        self._start = None
        self.armed = False

    def __call__(self, phase, info):
        if not self.armed:
            return
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pauses.append(time.perf_counter() - self._start)
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        self.armed = True
        return self

    def __exit__(self, *exc):
        self.armed = False
        gc.callbacks.remove(self)
        return False

    def max_ms(self):
        return 1e3 * max(self.pauses, default=0.0)

    def total_ms(self):
        return 1e3 * sum(self.pauses)


class Result:
    """What one pass of a workload measured.

    ``metrics`` maps a metric name to ``(value, unit, samples)``;
    ``checks`` maps a correctness check to whether it held, with a
    detail string for the report.
    """

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.checks = {}
        self.attempted = 0
        self.failed = 0
        #: Operations submitted inside the timed windows (per-operation
        #: counts of a traced pass are normalised by it); 0 = attempted.
        self.ops = 0
        #: Per-layer numbers gathered from counters of the untraced pass
        #: (deterministic counts, loop lag, GC pauses).
        self.layer = {}

    def metric(self, name, value, unit, samples=1):
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, name, ok, detail=""):
        """Record a check; one that failed once stays failed."""
        previous = self.checks.get(name)
        if previous is not None and not previous[0]:
            return
        self.checks[name] = (bool(ok), detail)

    @property
    def correct(self):
        return all(ok for ok, _ in self.checks.values())

    def to_json(self):
        return {
            "workload": self.workload,
            "metrics": {k: list(v) for k, v in self.metrics.items()},
            "checks": {k: list(v) for k, v in self.checks.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "ops": self.ops,
            "layer": self.layer,
        }

    @classmethod
    def from_json(cls, data):
        result = cls(data["workload"])
        result.metrics = {k: tuple(v) for k, v in data["metrics"].items()}
        result.checks = {k: tuple(v) for k, v in data["checks"].items()}
        result.attempted = data["attempted"]
        result.failed = data["failed"]
        result.ops = data["ops"]
        result.layer = data["layer"]
        return result

