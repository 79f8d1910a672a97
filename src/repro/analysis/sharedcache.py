"""The hunt's trace-analysis cache, shared across fork-pool workers.

Every hunt try consults one :class:`SharedTraceCache`, whose L1 is the
process's analysis dict (:data:`repro.analysis.parallel._TRACE_CACHE`).
A serial hunt's cache has no backing file: the dict is all of it.  A
pool of dicts alone would fragment under ``--jobs``: every worker would
pay one analysis per distinct trace fingerprint, so a workload whose
serial hit rate is 0.90 would drop toward
``1 - workers * distinct / tries``.  The pool's cache therefore shares
*analysis digests* — never live reports — across workers through a
structure every fork-safe process can use:

* an **append-only JSONL file** of ``[fingerprint, racy, digest,
  race_count, certified_races]`` entries, created by the hunt parent
  and inherited by workers through fork;
* a **lock-guarded write path** (one :class:`multiprocessing.Lock`
  serializes appends, each a single flushed ``write()``), so records
  never interleave;
* a **lock-free read path**: a worker that misses its local dict reads
  the file tail past its own offset and folds only *complete* lines
  (everything up to the final newline), so a read racing an append sees
  the previous consistent prefix, never a torn record.

Two workers may race to analyze the same fingerprint and both append
it; that is harmless — the detector is a pure function of the trace
(:mod:`repro.trace.fingerprint`), so duplicate entries carry identical
values and the last one folded wins.

The cache stores exactly what the hunt's merge needs (the racy flag,
the report digest, and the race counts) and is deleted with the hunt
that created it; nothing here outlives a single ``run_hunt`` call.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

#: What one cached analysis is: (racy, report digest, race count,
#: certified race count).
CacheValue = Tuple[bool, str, int, int]


class SharedTraceCache:
    """Fingerprint-keyed analysis digests shared across fork workers.

    *local* is the L1 dict (hits never touch the file); *path* is the
    shared JSONL file (``None``: the L1 is the whole cache, as on the
    serial path); *lock* guards appends.  ``max_entries`` bounds the
    L1: on overflow the local dict is cleared (a backing file keeps
    serving refreshed entries, so correctness never depends on the
    bound).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        lock=None,
        local: Optional[Dict[str, CacheValue]] = None,
        max_entries: int = 4096,
    ) -> None:
        self.path = path
        self.lock = lock
        self.local: Dict[str, CacheValue] = local if local is not None else {}
        self.max_entries = max_entries
        self._offset = 0  # bytes of the shared file already folded

    # -- read path -----------------------------------------------------
    def get(self, fingerprint: str) -> Optional[CacheValue]:
        """The cached analysis for *fingerprint*, consulting the local
        dict first and refreshing from the shared file on a miss."""
        value = self.local.get(fingerprint)
        if value is not None or self.path is None:
            return value
        self._refresh()
        return self.local.get(fingerprint)

    def _refresh(self) -> None:
        """Fold every complete record appended since the last refresh
        into the local dict.  Lock-free: appends are serialized writes,
        so the only hazard is a trailing partial line — stop at the
        last newline and re-read it next time."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return  # file gone (hunt teardown raced a late worker)
        end = data.rfind(b"\n")
        if end < 0:
            return
        for line in data[: end + 1].splitlines():
            if not line:
                continue
            try:
                fingerprint, racy, digest, races, certified = json.loads(
                    line.decode("utf-8")
                )
            except (ValueError, UnicodeDecodeError):
                continue  # unreadable record: skip, never poison the hunt
            self._store_local(
                fingerprint, (bool(racy), digest, int(races), int(certified))
            )
        self._offset += end + 1

    # -- write path ----------------------------------------------------
    def put(self, fingerprint: str, value: CacheValue) -> None:
        """Record one fresh analysis locally and append it to the
        shared file (if any) under the lock."""
        self._store_local(fingerprint, value)
        if self.path is None:
            return
        racy, digest, races, certified = value
        line = json.dumps(
            [fingerprint, bool(racy), digest, int(races), int(certified)],
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"
        try:
            with self.lock:
                with open(self.path, "ab") as fh:
                    fh.write(line)
                    fh.flush()
        except OSError:
            pass  # shared file unavailable: the local dict still serves

    def _store_local(self, fingerprint: str, value: CacheValue) -> None:
        if len(self.local) >= self.max_entries:
            self.local.clear()
        self.local[fingerprint] = value


def create_cache_file(prefix: str = "repro-trace-cache-") -> str:
    """Create the empty shared-cache file and return its path (the
    parent calls this before forking the pool)."""
    import tempfile

    fd, path = tempfile.mkstemp(prefix=prefix, suffix=".jsonl")
    os.close(fd)
    return path


def remove_cache_file(path: str) -> None:
    """Best-effort removal at hunt teardown."""
    try:
        os.unlink(path)
    except OSError:
        pass
