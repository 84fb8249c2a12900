"""Update log.

The ATLaS-profile ArchIS tracks changes through an update log rather than
triggers (paper Section 5.2).  The log records every mutation against the
current database; the archiver drains it in commit order.

With concurrent transactions the log needs two refinements: appends and
drains are serialized by a lock, and the drain can be *filtered* so the
archiver only consumes entries of committed transactions — entries from
a transaction still in flight stay pending (and an abort discards them
via :meth:`UpdateLog.discard_pending`).

Memory: drained entries are consumed for good — the log holds only the
pending tail, so a long-lived server never accumulates the full mutation
history in memory.  ``consumed_count`` keeps the count of entries that
left the log, and sequence numbers stay monotonic across drains.

An archiver that fails mid-apply hands the un-applied suffix back via
:meth:`requeue` — drained-but-unapplied entries must return to the front
of the pending queue, not vanish.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.metrics import get_registry

#: archival backlog depth as a labelled family: every log instance
#: reports its own series (keyed by its ``scope``), so two archives in
#: one process — or the thousands of short-lived test databases — never
#: clobber each other's gauge
_BACKLOG = get_registry().labeled_gauge("updatelog.backlog", label_key="log")

_ANONYMOUS_SCOPES = itertools.count(1)


@dataclass(frozen=True)
class LogEntry:
    """One change to the current database.

    ``op`` is ``insert``, ``update`` or ``delete``; ``row`` is the new row
    (for insert/update) or the deleted row; ``old`` is the pre-image for
    updates.  ``timestamp`` is the transaction day.
    """

    sequence: int
    timestamp: int
    table: str
    op: str
    row: tuple
    old: tuple | None = None


class UpdateLog:
    """An append-only in-memory log with drain semantics.

    ``scope`` names this log's ``updatelog.backlog`` gauge series
    (defaults to a process-unique ``log-N``); the database passes its
    file path so the exposition attributes backlogs to archives.
    """

    def __init__(self, scope: str | None = None) -> None:
        self._pending: list[LogEntry] = []
        self._next_seq = 1
        self._consumed = 0
        self._lock = threading.Lock()
        self.scope = scope or f"log-{next(_ANONYMOUS_SCOPES)}"

    def _publish_backlog(self) -> None:
        _BACKLOG.set(self.scope, len(self._pending))

    def append(
        self,
        timestamp: int,
        table: str,
        op: str,
        row: tuple,
        old: tuple | None = None,
    ) -> LogEntry:
        with self._lock:
            entry = LogEntry(self._next_seq, timestamp, table, op, row, old)
            self._next_seq += 1
            self._pending.append(entry)
            self._publish_backlog()
            return entry

    def pending(self) -> list[LogEntry]:
        """Entries appended since the last drain."""
        with self._lock:
            return list(self._pending)

    @property
    def consumed_count(self) -> int:
        """Entries drained (and not requeued) over the log's lifetime."""
        with self._lock:
            return self._consumed

    def drain(
        self, predicate: Callable[[LogEntry], bool] | None = None
    ) -> list[LogEntry]:
        """Return pending entries and mark them consumed.

        With a ``predicate`` only matching entries are consumed; the rest
        stay pending in order.  The transaction layer drains with
        "entry's transaction has committed" so an archiver running beside
        in-flight writers never archives uncommitted changes.

        Consumed entries leave the log entirely (the in-memory footprint
        is the pending tail, never the full history); an archiver that
        cannot apply part of a drain must :meth:`requeue` the unapplied
        suffix or those entries are lost.
        """
        with self._lock:
            if predicate is None:
                out = self._pending
                self._pending = []
            else:
                out = [e for e in self._pending if predicate(e)]
                self._pending = [
                    e for e in self._pending if not predicate(e)
                ]
            self._consumed += len(out)
            self._publish_backlog()
            return out

    def drain_ordered(
        self, predicate: Callable[[LogEntry], bool] | None = None
    ) -> list[LogEntry]:
        """:meth:`drain`, with the result sorted into archive order.

        Archival applies entries in day order, not append order:
        concurrent transactions interleave in the log by execution
        order, and the segment manager's freeze boundary relies on
        archive timestamps never going backwards.  The sort is stable,
        so entries sharing a day (one transaction's statements) keep
        their relative order.  Both the row-at-a-time archiver and the
        :class:`~repro.archis.batch.BatchArchiver` consume this, so the
        two paths see the identical entry sequence.
        """
        return sorted(self.drain(predicate), key=lambda e: e.timestamp)

    def requeue(self, entries: list[LogEntry]) -> None:
        """Return drained-but-unapplied entries to the front of pending.

        Called by an archiver whose apply failed partway: the suffix it
        never dispatched goes back ahead of anything appended since, so
        the next drain sees the same entries in the same relative order.
        Sequence numbers are untouched (they stay monotonic per append).
        """
        if not entries:
            return
        with self._lock:
            self._pending[:0] = entries
            self._consumed -= len(entries)
            self._publish_backlog()

    def discard_pending(
        self, predicate: Callable[[LogEntry], bool]
    ) -> list[LogEntry]:
        """Drop matching pending entries without consuming them (abort)."""
        with self._lock:
            dropped = [e for e in self._pending if predicate(e)]
            self._pending = [e for e in self._pending if not predicate(e)]
            self._publish_backlog()
            return dropped

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.pending())

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._publish_backlog()

    def close(self) -> None:
        """Retire this log's gauge series.

        A closed database's backlog is not a live series: leaving it in
        the registry would accumulate one stale ``updatelog.backlog``
        label per archive ever opened in the process and
        poison the family's ``total``.  Idempotent; the log itself stays
        usable (a later append republished the series), so close order
        against in-flight drains does not matter.
        """
        with self._lock:
            _BACKLOG.remove(self.scope)
