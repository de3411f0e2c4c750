"""Span tracing from outside the program, by wrapping public entry points.

:class:`Tracer` replaces class methods and module functions of each layer
with wrappers that record a span -- name, start, end, parent span and the
request id found in the arguments -- and restores the originals on
:meth:`Tracer.restore`.  It must be installed before the system under test
is built, so every object sees the wrapped methods.  Spans are kept in
flat arrays in memory and written out once at the end.

A span's self time is its duration minus the time covered by its child
spans; spans nest strictly (they are synchronous calls on one thread), so
the children's durations are summed as each child closes.
"""

import gzip
import json
import threading
import time
from array import array
from collections import Counter

from common import request_id


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self.child = array("d")
        #: name -> [calls, total seconds, self seconds]
        self.totals = {}
        self.counts = Counter()
        self.maxima = Counter()
        self.sums = Counter()
        self.links = set()
        #: Counts and sums inside the workload's timed windows only
        #: (see :meth:`open_window`); empty when the workload marks none.
        self.windowed = Counter()
        self.windowed_totals = {}
        self._mark = None
        self._local = threading.local()
        self._patches = []

    # -- Patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, rid_args=False, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_args``: look for a request id in the positional arguments.
        ``after(args, result)``: optional hook run inside the span once
        the call returned (for counters that need the result).
        """
        original = getattr(owner, attr)
        key = self._ids.setdefault(name, len(self._ids))
        if key == len(self.names):
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            rid = -1
            if rid_args:
                for arg in args[1:]:
                    rid = request_id(arg)
                    if rid >= 0:
                        break
            index = len(tracer.start)
            tracer.name_id.append(key)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.parent.append(parent)
            tracer.rid.append(rid)
            tracer.child.append(0.0)
            stack.append(index)
            begin = perf()
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                finish = perf()
                stack.pop()
                tracer._close(name, index, parent, begin, finish)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, index, parent, begin, finish):
        duration = finish - begin
        self.start[index] = begin
        self.end[index] = finish
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - self.child[index]
        if parent >= 0:
            self.child[parent] += duration

    def open_window(self):
        """Open a timed window: counts and span totals from here to
        :meth:`close_window` are added to ``windowed`` and
        ``windowed_totals`` (set-up, warm-up and checks stay out)."""
        self._mark = (Counter(self.counts) + Counter(self.sums),
                      {name: list(t) for name, t in self.totals.items()})

    def close_window(self):
        counts, totals = self._mark
        now = Counter(self.counts) + Counter(self.sums)
        now.subtract(counts)
        self.windowed.update(now)
        for name, total in self.totals.items():
            into = self.windowed_totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                into[i] += total[i] - totals[name][i]
        self._mark = None

    def hook(self, owner, attr, before):
        """Replace ``owner.attr`` with a wrapper that calls ``before(args)``
        first (no span): for counters on calls that are not layer work,
        such as async shutdown."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            before(args)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- Reading -----------------------------------------------------------

    def calls(self, *names):
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def self_us(self, *names):
        """Mean self time, in microseconds, over the spans of ``names``
        inside the timed windows (all spans when none was marked)."""
        totals = self.windowed_totals or self.totals
        calls = sum(totals[n][0] for n in names if n in totals)
        busy = sum(totals[n][2] for n in names if n in totals)
        return 1e6 * busy / calls if calls else 0.0

    def self_seconds(self):
        return sum(total[2] for total in self.totals.values())

    def root_seconds(self):
        """Summed duration of the spans that have no parent span."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] == -1
        )

    def write(self, path):
        """Write every stored span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                handle.write("{0},{1:.9f},{2:.9f},{3},{4}\n".format(
                    self.name_id[i], self.start[i], self.end[i],
                    self.parent[i], self.rid[i],
                ))


def install_layers(tracer):
    """Wrap the public entry points of every layer of the stack.

    Span names are ``<module>.<entry>``; the module part names the layer
    (``codec``, ``transport``, ``vs``, ``dvs``, ``to``, ``cb``,
    ``fanout``, ``log``, ``monitor``, ``sim``, ``ioa``).
    """
    from repro.dvs.vs_to_dvs import AckMsg
    from repro.faults.monitor import SafetyMonitor
    from repro.gcs.cb_layer import CbLayer, DvsFanout
    from repro.gcs.dvs_layer import DvsLayer
    from repro.gcs.recorder import ActionLog
    from repro.gcs.to_layer import ToLayer
    from repro.gcs.vs_stack import VsStackNode
    from repro.ioa.composition import Composition
    from repro.ioa.invariants import InvariantSuite
    from repro.ioa.state import State
    from repro.net.events import EventQueue
    from repro.net.simulator import Network
    from repro.runtime import codec, node, transport

    counts = tracer.counts
    sums = tracer.sums
    maxima = tracer.maxima

    # runtime.codec: node and transport imported encode_frame by name,
    # so every binding is wrapped; decode runs once per frame in feed().
    def encoded(args, frame):
        counts["codec.frames_encoded"] += 1
        sums["codec.bytes_encoded"] += len(frame)

    for module in (codec, node, transport):
        tracer.wrap(module, "encode_frame", "codec.encode_frame",
                    after=encoded)
    tracer.wrap(codec, "decode", "codec.decode")
    tracer.wrap(codec.FrameDecoder, "feed", "codec.feed")

    # runtime.transport: frames handed to a peer link, and its queue.
    # Every link ever used is kept, so its connects/queue_drops counters
    # can be read at the end even after its node was killed.
    def queued(args, result):
        link, frame = args[0], args[1]
        counts["transport.frames_out"] += 1
        sums["transport.bytes_out"] += len(frame)
        tracer.links.add(link)
        depth = link.queue_depth()
        if depth > maxima["transport.queue_max"]:
            maxima["transport.queue_max"] = depth

    tracer.wrap(transport.PeerLink, "send_frame", "transport.send_frame",
                after=queued)

    # gcs.vs_stack: every wire message a VS node handles, by type.
    def vs_in(args, result):
        counts["vs.msgs_in." + type(args[2]).__name__] += 1

    def vs_out(args, result):
        if isinstance(args[1], AckMsg):
            counts["dvs.acks"] += 1

    tracer.wrap(VsStackNode, "on_message", "vs.on_message", rid_args=True,
                after=vs_in)
    tracer.wrap(VsStackNode, "gpsnd", "vs.gpsnd", rid_args=True, after=vs_out)

    # gcs.dvs_layer
    for entry in ("on_vs_gprcv", "on_vs_safe", "on_vs_newview"):
        tracer.wrap(DvsLayer, entry, "dvs." + entry, rid_args=True)

    # gcs.to_layer: Summary size is the content set shipped at a view.
    def to_view(args):
        layer = args[0]
        counts["to.view_changes"] += 1
        entries = len(layer.content)
        if entries > maxima["to.summary_entries"]:
            maxima["to.summary_entries"] = entries

    tracer.hook(ToLayer, "on_dvs_newview", to_view)
    for entry in ("bcast", "on_dvs_gprcv", "on_dvs_safe", "on_dvs_newview"):
        tracer.wrap(ToLayer, entry, "to." + entry, rid_args=True)

    # gcs.cb_layer and the fan-out that routes DVS upcalls to both towers.
    def holdback(args, result):
        depth = len(args[0].holdback)
        if depth > maxima["cb.holdback_max"]:
            maxima["cb.holdback_max"] = depth

    tracer.wrap(CbLayer, "cbcast", "cb.cbcast", rid_args=True)
    tracer.wrap(CbLayer, "on_dvs_gprcv", "cb.on_dvs_gprcv", rid_args=True,
                after=holdback)
    tracer.wrap(CbLayer, "on_dvs_newview", "cb.on_dvs_newview")
    for entry in ("on_dvs_gprcv", "on_dvs_safe", "on_dvs_newview"):
        tracer.wrap(DvsFanout, entry, "fanout." + entry, rid_args=True)

    # gcs.recorder + faults.monitor
    tracer.wrap(ActionLog, "record", "log.record", rid_args=True)
    tracer.wrap(SafetyMonitor, "on_action", "monitor.on_action")

    # net.simulator
    def scheduled(args):
        counts["sim.events"] += 1

    tracer.wrap(Network, "send", "sim.send", rid_args=True)
    tracer.hook(EventQueue, "schedule", scheduled)

    # ioa: the explorer's three per-transition steps and the invariants.
    tracer.wrap(Composition, "apply", "ioa.apply")
    tracer.wrap(Composition, "enabled_controlled", "ioa.enabled_controlled")
    tracer.wrap(State, "fingerprint", "ioa.fingerprint")
    tracer.wrap(InvariantSuite, "check_state", "ioa.check_state")

    return tracer


LAYERS = {
    "codec": ("codec.encode_frame", "codec.decode", "codec.feed"),
    "transport": ("transport.send_frame",),
    "vs": ("vs.on_message", "vs.gpsnd"),
    "dvs": ("dvs.on_vs_gprcv", "dvs.on_vs_safe", "dvs.on_vs_newview"),
    "to": ("to.bcast", "to.on_dvs_gprcv", "to.on_dvs_safe",
           "to.on_dvs_newview"),
    "cb": ("cb.cbcast", "cb.on_dvs_gprcv", "cb.on_dvs_newview"),
    "fanout": ("fanout.on_dvs_gprcv", "fanout.on_dvs_safe",
               "fanout.on_dvs_newview"),
    "log": ("log.record",),
    "monitor": ("monitor.on_action",),
    "sim": ("sim.send",),
    "ioa": ("ioa.apply", "ioa.enabled_controlled", "ioa.fingerprint",
            "ioa.check_state"),
}
