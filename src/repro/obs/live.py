"""repro.obs.live — a rolling status line for long-running hunts.

``weakraces hunt`` attaches a :class:`HuntStatusLine` to the hunt's
progress callback (with ``--live`` it also reads the hunt's
:class:`~repro.obs.metrics.MetricsRegistry`; on a plain terminal it
shows progress alone).  Each paint renders a
:class:`~repro.obs.top.TopSnapshot` as one ``\\r``-terminated line::

    hunt  37/256 (14%)  312.4 jobs/s  racy 12%  cache 48%  eta 0.7s

Rendering is throttled (default 10 Hz) so terminal writes never gate
the hunt; ``render()`` is pure (no I/O) and is what the tests drive.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from . import metrics as _metrics
from .top import TopSnapshot


def _format_eta(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class HuntStatusLine:
    """Renders hunt progress as a throttled status line.

    :meth:`progress` is the hunt's progress callback (done/total/racy);
    *registry*, else the active one, adds the throughput sample, cache
    hits and skipped jobs through a :class:`~repro.obs.top.TopSnapshot`.
    """

    def __init__(self, registry: Optional[_metrics.MetricsRegistry] = None,
                 stream: Optional[TextIO] = None,
                 min_interval: float = 0.1,
                 clock=time.monotonic) -> None:
        self.registry = registry
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_paint = 0.0
        self._last_width = 0
        self._done = self._total = self._racy = 0

    # -- progress-callback protocol ------------------------------------
    def progress(self, done: int, total: int, racy: int) -> None:
        self._done, self._total, self._racy = done, total, racy
        now = self._clock()
        if done < total and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        self._paint(self.render(now - self._started))

    def render(self, elapsed: Optional[float] = None,
               final: bool = False, note: Optional[str] = None) -> str:
        """The status line for the current state (no I/O).

        The rate is the registry's latest throughput sample, else
        ``done / elapsed``.  With *final* the line describes a hunt
        that has stopped: the rate is the whole-run average (never a
        stale mid-run sample) and no ETA is shown.  *note* appends a
        trailing marker (e.g. ``interrupted``).
        """
        if elapsed is None:
            elapsed = self._clock() - self._started
        registry = self.registry if self.registry is not None \
            else _metrics.active()
        if registry is None:
            snap = TopSnapshot()
        else:
            with registry.hold():
                snap = TopSnapshot.from_registry(registry)
        # the progress feed is this line's source for the counts
        snap.done, snap.total, snap.racy = self._done, self._total, self._racy
        done, total = snap.done, snap.total
        rate = done / elapsed if elapsed > 0 else 0.0
        if not final and snap.throughput is not None:
            rate = snap.throughput
        parts = [f"hunt {done}/{total}"]
        if total:
            parts.append(f"({done / total:.0%})")
        parts.append(f"{rate:.1f} jobs/s")
        if snap.ran:
            parts.append(f"racy {snap.racy / snap.ran:.0%}")
            if snap.cache_hits:
                parts.append(f"cache {snap.cache_hits / snap.ran:.0%}")
        if not final and rate > 0 and total > done:
            parts.append(f"eta {_format_eta((total - done) / rate)}")
        if note:
            parts.append(note)
        return "  ".join(parts)

    # -- painting ------------------------------------------------------
    def _paint(self, line: str) -> None:
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + padding)
        self.stream.flush()

    def finish(self, note: Optional[str] = None) -> None:
        """Paint the true final state — unthrottled — and move to a
        fresh line.

        Throttling can swallow the last :meth:`progress` repaints (an
        early stop or SIGINT lands whenever it lands), so the terminal
        would otherwise keep showing the last *painted* snapshot, not
        the final counts.  This always repaints from the latest state,
        drops the ETA, and replaces any stale throughput sample with
        the whole-run average; *note* marks abnormal ends (e.g.
        ``"interrupted"``).
        """
        self._paint(self.render(final=True, note=note))
        self.stream.write("\n")
        self.stream.flush()
