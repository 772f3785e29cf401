"""Spans recorded from the benchmark's side, around calls into ``bfae``.

Nothing in ``bfae`` knows about tracing: the benchmark replaces a module or
class attribute with a wrapper for the duration of a run and restores it
afterwards.  Each span adds its duration to its parent, so a span's self time
is its duration minus the time its child spans cover.  Spans are aggregated
per name in memory (calls, total, self, counts); root spans, and spans whose
names start with one of the ``keep`` prefixes, are also kept one by one with
their start and end, so that their coverage can be checked and their
durations normalized by a :class:`speed.SpeedProbe`.  Probe samples that ran
inside a span are benchmark work, not the program's: they are left out of
its total, and count as child time rather than self time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

perf = time.perf_counter


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = defaultdict(float)


class Tracer:
    """A stack of open spans plus per-name totals.

    ``group`` totals count only the outermost span of each group, so a head
    fit nested inside a ridge search is not counted twice.
    """

    def __init__(self, probe=None, keep=()):
        self.probe = probe
        self.keep = tuple(keep)
        self.stats = defaultdict(SpanStats)
        self.groups = defaultdict(float)
        self.intervals = defaultdict(list)  # kept span or group -> [(start, end)]
        self._group_depth = defaultdict(int)
        self._stack = []
        self.roots = []  # (name, duration, time covered by children), probes left out

    def _enter(self, group):
        frame = [0.0]  # time covered by child spans, probes left out
        self._stack.append(frame)
        if group:
            self._group_depth[group] += 1
        return frame, perf()

    def _exit(self, name, group, frame, start):
        end = perf()
        duration = end - start
        if self.probe is not None:
            duration -= self.probe.within(start, end)
        self._stack.pop()
        stats = self.stats[name]
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.roots.append((name, duration, frame[0]))
            self.intervals[name].append((start, end))
        if name.startswith(self.keep) and self._stack:
            self.intervals[name].append((start, end))
        if group:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.groups[group] += duration
                self.intervals[group].append((start, end))
        return stats

    def normalized(self, name) -> float:
        """Total duration of the kept span (or group) ``name`` at the probe's
        nominal speed; raises if it recorded no call."""
        if not self.intervals[name]:
            raise RuntimeError(f"span {name} recorded no call")
        return sum(self.probe.normalized(t0, t1) for t0, t1 in self.intervals[name])

    @contextlib.contextmanager
    def span(self, name, group=None):
        frame, start = self._enter(group)
        try:
            yield self.stats[name]
        finally:
            self._exit(name, group, frame, start)

    def wrap(self, fn, name, group=None, after=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or ``name(args, kwargs) -> str``.  ``after`` is
        ``after(args, kwargs, result, stats) -> result``, called once the
        span has closed; it may add to ``stats.counts`` or wrap the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            frame, start = self._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = self._exit(span_name, group, frame, start)
            if after is not None:
                result = after(args, kwargs, result, stats)
            return result

        return wrapper

    def require(self, names):
        """Raise if any named span recorded no call: absent is not zero."""
        missing = [n for n in names if self.stats[n].calls == 0]
        if missing:
            raise RuntimeError(f"spans recorded no call: {', '.join(missing)}")


def point(owner, attr, name, group=None, after=None):
    """A place to wrap: attribute ``attr`` of module or class ``owner``."""
    return owner, attr, name, group, after


@contextlib.contextmanager
def patched(tracer: Tracer, points):
    """Install span wrappers at ``points``; restore the originals on exit,
    even if the body raises."""
    saved = []
    try:
        for owner, attr, name, group, after in points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, group=group, after=after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
