"""The ArchIS system facade (paper Figure 5).

Wires together the current database, H-tables, change tracking, segment
clustering, compression and the XQuery→SQL/XML translator:

- ``track_table`` registers a current table for archival (triggers in the
  ``db2`` profile, update log in ``atlas``);
- the current tables are updated through normal SQL/DML and changes flow
  into the H-tables;
- ``xquery`` answers temporal XQuery over the virtual H-documents by
  translating to SQL/XML (with native-evaluation fallback on published
  views when the query is outside the translatable subset);
- ``publish`` materializes an H-document;
- ``compress_archive`` BlockZIPs all frozen segments into BLOBs.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from time import perf_counter

from repro.api import Result
from repro.errors import ArchisError, UnsupportedQueryError
from repro.obs.explain import ExplainResult
from repro.obs.metrics import get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.txn.locks import HistoryLock
from repro.archis.blobstore import CompressedArchive
from repro.archis.clustering import SegmentManager
from repro.archis.config import (
    DEFAULT_TRANSLATION_CACHE_SIZE,
    ArchISConfig,
    resolve_config,
)
from repro.archis.htables import TrackedRelation, create_htables
from repro.archis.publisher import history_rows, publish_relation
from repro.archis.tracker import (
    HTableWriter,
    LogTracker,
    TriggerTracker,
    apply_log,
)

_XQUERY_COUNT = get_registry().counter("archis.xquery.count")
_XQUERY_SECONDS = get_registry().histogram("archis.xquery.seconds")
_TEMPORAL_QUERIES = get_registry().counter("temporal.queries")
_TEMPORAL_SECONDS = get_registry().histogram("temporal.query.seconds")
_FALLBACKS = get_registry().labeled_counter("xquery.fallback")
_CACHE_HITS = get_registry().counter("translator.cache_hits")
_CACHE_MISSES = get_registry().counter("translator.cache_misses")

#: sentinel distinguishing "batch_size not passed" (use the configured
#: default) from an explicit ``batch_size=None`` (row-at-a-time apply)
_UNSET = object()


@dataclass(frozen=True)
class Profile:
    """An engine profile (paper Section 7: ArchIS-DB2 vs ArchIS-ATLaS).

    ``tracking`` selects triggers vs update log; ``clustered_indexes``
    models ATLaS/BerkeleyDB's clustered index (extra storage, Fig. 11);
    ``one_scan_join`` enables the user-defined-aggregate optimization the
    authors applied to the temporal join on ATLaS (Section 8.3).
    """

    name: str
    tracking: str  # "triggers" | "log"
    clustered_indexes: bool
    one_scan_join: bool


PROFILES = {
    "db2": Profile("db2", "triggers", clustered_indexes=False, one_scan_join=False),
    "atlas": Profile("atlas", "log", clustered_indexes=True, one_scan_join=True),
}


class ArchIS:
    """Archival Information System over a :class:`Database`."""

    def __init__(
        self,
        db: Database | None = None,
        *,
        config: ArchISConfig | None = None,
    ) -> None:
        config = resolve_config(config)
        if config.profile not in PROFILES:
            raise ArchisError(
                f"unknown profile {config.profile!r}; use db2 or atlas"
            )
        self.config = config
        self.db = db if db is not None else Database()
        self.profile = PROFILES[config.profile]
        #: serializes H-table mutation against snapshot reads; the
        #: transaction manager adopts this instance, and the maintenance
        #: worker takes its write side per rewrite step
        self.history_lock = HistoryLock()
        self.segments = SegmentManager(
            self.db,
            config.umin,
            config.min_segment_rows,
            mode=config.maintenance,
        )
        #: background maintenance worker (``config.maintenance ==
        #: "background"`` only); owns the physical half of every freeze
        self.maintenance = None
        if config.maintenance == "background":
            from repro.archis.maintenance import MaintenanceWorker

            self.maintenance = MaintenanceWorker(
                self, config.maintenance_step_rows
            )
            self.segments.on_freeze_request = self.maintenance.request
        self.relations: dict[str, TrackedRelation] = {}
        self.writers: dict[str, HTableWriter] = {}
        self.trackers: dict[str, object] = {}
        self.archive = CompressedArchive(self.db, self.segments)
        self._doc_names: dict[str, str] = {}
        #: set by :class:`repro.txn.TxnManager` when a transaction layer
        #: is attached; apply_pending then only archives committed entries
        self.txn_manager = None
        #: XQuery text -> [generation, Translation, rendered optimized SQL];
        #: entries are dropped LRU past ``translation_cache_size`` and
        #: invalidated when the generation (schema / clustering /
        #: compression state) moves on.  Lookups, insertions and the
        #: hit/miss counters share one lock so concurrent sessions keep
        #: the LRU order intact and the counters exact.
        self.translation_cache_size = config.translation_cache_size
        self._translation_cache: OrderedDict[str, list] = OrderedDict()
        self._cache_lock = threading.RLock()
        #: queries slower than ``slow_query_log.threshold`` seconds are
        #: kept here (bounded); set the threshold to None to disable.
        self.slow_query_log = SlowQueryLog()
        # let the segment-restriction optimizer rule see clustering state
        self.db.segment_provider = self._segment_hints
        from repro.util.timeutil import FOREVER

        # tend with 'now' substitution (paper Section 4.3): the internal
        # end-of-time marker reads as the current date.
        self.db.register_function(
            "tendval",
            lambda v: self.db.current_date if v == FOREVER else v,
        )
    # -- setup -------------------------------------------------------------------

    def track_table(
        self,
        name: str,
        key: str | None = None,
        document_name: str | None = None,
        value_indexes: bool = False,
    ) -> TrackedRelation:
        """Start archiving a current table's history.

        ``key`` defaults to the table's single-column primary key; its
        value must remain invariant over the history (paper Section 5.1).
        ``document_name`` names the H-view (default ``<name>s.xml``).
        ``value_indexes`` additionally indexes every attribute's value
        column (the paper indexes "all nodes/attributes which have values
        selected"; off by default to keep the storage profile lean).
        """
        if name in self.relations:
            raise ArchisError(f"table {name} is already tracked")
        table = self.db.table(name)
        if key is None:
            if len(table.schema.primary_key) != 1:
                raise ArchisError(
                    f"table {name}: pass key= explicitly (no single-column "
                    "primary key)"
                )
            key = table.schema.primary_key[0]
        attributes = {
            column.name: column.type
            for column in table.schema.columns
            if column.name != key
        }
        relation = TrackedRelation(name, key, attributes)
        create_htables(
            self.db, relation, self.segments.segmented, value_indexes
        )
        for table_name in relation.all_tables():
            self.segments.register_table(table_name)
        from repro.archis.tablefuncs import register_history_functions

        for table_name in relation.all_tables():
            register_history_functions(self, table_name)
        writer = HTableWriter(self.db, relation, self.segments)
        if self.profile.tracking == "triggers":
            tracker = TriggerTracker(self.db, writer)
        else:
            tracker = LogTracker(self.db, writer)
        self.relations[name] = relation
        self.writers[name] = writer
        self.trackers[name] = tracker
        self._doc_names[document_name or f"{name}s.xml"] = name
        # archive rows that already exist in the current table
        for row in list(table.rows()):
            writer.archive_insert(row, self.db.current_date)
        return relation

    # -- change flow ---------------------------------------------------------------

    def apply_pending(
        self, batch_size: int | None = _UNSET, durable: bool = False
    ) -> int:
        """Drain the update log into H-tables (ATLaS profile).

        A no-op (returns 0) under trigger tracking, where archival is
        synchronous.  With a transaction manager attached, only entries
        of *committed* transactions are applied — readers running beside
        in-flight writers must never archive uncommitted changes.

        ``batch_size`` selects the ingest path: ``None`` archives
        row-at-a-time (the legacy path), an integer hands the drain to
        the :class:`~repro.archis.batch.BatchArchiver` in batches of
        that size (defaults to ``config.batch_size``).  Both produce
        byte-identical H-tables.  ``durable=True`` additionally commits
        one WAL frame per batch on a file-backed archive, making each
        completed batch a crash-consistent recovery point.
        """
        if self.profile.tracking != "log":
            return 0
        if self.history_lock.held_read():
            # a reader holding the history lock (an XQuery mid-scan)
            # must not mutate the H-tables it is reading; the entries
            # stay pending for the next apply outside the read
            return 0
        if self.txn_manager is not None:
            self.txn_manager.apply_committed()
            return 0
        if batch_size is _UNSET:
            batch_size = self.config.batch_size
        if batch_size is None:
            return apply_log(self.db, self.writers, history=self.history_lock)
        from repro.archis.batch import BatchArchiver

        return BatchArchiver(self, batch_size, durable=durable).apply()

    def apply_log_entries(
        self, predicate, batch_size: int | None = _UNSET
    ) -> int:
        """Apply matching update-log entries (transaction-layer hook).

        Unlike :meth:`apply_pending` this does not consult the
        transaction manager — the manager calls it with its own
        committed-entries predicate, under its apply lock.  Batching
        follows ``config.batch_size`` unless overridden; durability is
        the caller's concern (the transaction layer commits the whole
        transaction as one WAL frame).
        """
        if self.profile.tracking != "log":
            return 0
        if batch_size is _UNSET:
            batch_size = self.config.batch_size
        if batch_size is None:
            return apply_log(
                self.db, self.writers, predicate, history=self.history_lock
            )
        from repro.archis.batch import BatchArchiver

        return BatchArchiver(self, batch_size, durable=False).apply(predicate)

    # -- publication ------------------------------------------------------------------

    def publish(self, relation_name: str):
        """Materialize the H-document of one tracked relation.

        Reads through the compressed archive when segments have been
        BlockZIPed, so publication is storage-layout independent.
        """
        relation = self._relation(relation_name)
        with self.history_lock.read():
            return publish_relation(
                self.db, relation, rows_provider=self._all_rows_of
            )

    def _all_rows_of(self, table_name: str):
        yield from self.db.table(table_name).rows()
        if table_name in self.archive.compressed_tables:
            yield from self.archive.read_rows(table_name)

    def document_names(self) -> list[str]:
        return sorted(self._doc_names)

    def relation_for_document(self, document: str) -> TrackedRelation:
        name = self._doc_names.get(document)
        if name is None:
            raise ArchisError(f"no H-view named {document!r}")
        return self.relations[name]

    def history(self, relation_name: str, attribute: str | None = None):
        """Deduplicated history rows of the key or one attribute table."""
        relation = self._relation(relation_name)
        table = (
            relation.key_table
            if attribute is None
            else relation.attribute_table(attribute)
        )
        with self.history_lock.read():
            return history_rows(self.db, table, self._all_rows_of(table))

    # -- queries --------------------------------------------------------------------------

    def _segment_hints(self, table_name: str):
        """``Database.segment_provider`` hook for the optimizer rules."""
        if not self.segments.is_registered(table_name):
            return None
        from repro.plan.optimizer import SegmentHints

        return SegmentHints(
            compressed=table_name in self.archive.compressed_tables,
            segments_overlapping=self.segments.segments_overlapping,
        )

    def _translation_generation(self) -> tuple:
        """Cache key component that moves whenever a cached Translation
        (or its optimized rendering) could become stale: tracked views,
        segment boundaries, compression state."""
        return (
            tuple(sorted(self._doc_names)),
            self.segments.generation,
            tuple(sorted(self.archive.compressed_tables)),
        )

    def translation(self, query: str):
        """The (LRU-cached) :class:`Translation` for an XQuery."""
        return self._cached_translation(query)[1]

    def _cached_translation(self, query: str) -> list:
        with self._cache_lock:
            generation = self._translation_generation()
            entry = self._translation_cache.get(query)
            if entry is not None and entry[0] == generation:
                self._translation_cache.move_to_end(query)
                _CACHE_HITS.inc()
                return entry
            _CACHE_MISSES.inc()
            from repro.archis.translator import translate

            # Translation happens under the lock: concurrent sessions
            # asking for the same new query would otherwise translate it
            # twice and double-count the miss.
            translation = translate(self, query)
            entry = [generation, translation, None]
            self._translation_cache[query] = entry
            self._translation_cache.move_to_end(query)
            while len(self._translation_cache) > self.translation_cache_size:
                self._translation_cache.popitem(last=False)
            return entry

    def translate(self, query: str) -> str:
        """Translate XQuery on the H-views to SQL/XML on the H-tables.

        The returned text is the *optimized* query: the translator's SQL
        parsed, planned and rendered back after the rule pipeline ran, so
        segment-restricted access paths (``segno = k``, ``seg_``/``slice_``
        functions) appear in the SQL itself.  The rendering is cached
        alongside the translation.
        """
        with self._cache_lock:
            entry = self._cached_translation(query)
            if entry[2] is None:
                entry[2] = self._optimized_sql(entry[1])
            return entry[2]

    def _optimized_sql(self, translation) -> str:
        from repro.plan import PlanContext, build_logical, run_rules, to_sql
        from repro.sql import ast as sql_ast
        from repro.sql.parser import parse_sql
        from repro.sql.planner import function_registry, source_scope

        statement = parse_sql(translation.sql)
        if not isinstance(statement, sql_ast.Select):
            return translation.sql
        scope = source_scope(self.db, statement.sources)
        plan = build_logical(statement, scope)
        if getattr(self.db, "optimizer_enabled", True):
            ctx = PlanContext(
                self.db, scope, function_registry(self.db)
            )
            plan, _ = run_rules(plan, ctx)
        return to_sql(plan)

    def xquery(self, query: str, allow_fallback: bool = True) -> Result:
        """Answer a temporal XQuery against the (virtual) H-documents.

        The translated SQL/XML path is used when the query falls in the
        translatable subset; otherwise, with ``allow_fallback``, the H-views
        are published and the query evaluated natively (complete but slow).

        Returns a :class:`~repro.api.Result` whose ``rows`` are the
        answer forest (XML elements and/or scalars) and whose ``stats``
        carry the translated SQL, the fallback reason (if any) and the
        elapsed seconds.  The answer is ``result.rows``: a Result is not
        a sequence and never compares equal to a bare list.

        Emits an ``archis.xquery`` root span (children: ``xquery.translate``,
        ``sql.execute``, ``xquery.post`` — or ``xquery.native`` on
        fallback), counts ``archis.xquery.count`` / ``xquery.fallback``
        and feeds the slow-query log.
        """
        tracer = get_tracer()
        started = perf_counter()
        sql_text: str | None = None
        fallback_reason: str | None = None
        out: Result | None = None
        try:
            with tracer.span("archis.xquery", query=query) as span:
                self.apply_pending()
                try:
                    with tracer.span("xquery.translate"):
                        translation = self.translation(query)
                except UnsupportedQueryError as exc:
                    fallback_reason = str(exc)
                    _FALLBACKS.inc(fallback_reason)
                    span.set("fallback_reason", fallback_reason)
                    if not allow_fallback:
                        raise
                    with tracer.span("xquery.native"):
                        out = Result(
                            self._native_fallback(query),
                            stats={"fallback_reason": fallback_reason},
                        )
                        return out
                sql_text = translation.sql
                span.set("sql", sql_text)
                # the read side keeps the maintenance worker (and any
                # other H-table mutator) out while the query scans
                with self.history_lock.read():
                    with tracer.span("sql.execute"):
                        result = self.db.sql(
                            translation.sql, translation.params
                        )
                    with tracer.span("xquery.post"):
                        if translation.post is not None:
                            rows = translation.post(result)
                        else:
                            rows = result.xml()
                out = Result(rows, stats={"sql": sql_text})
                return out
        finally:
            elapsed = perf_counter() - started
            _XQUERY_COUNT.inc()
            _XQUERY_SECONDS.observe(elapsed)
            if out is not None:
                out.stats["seconds"] = elapsed
            self.slow_query_log.record(
                query,
                elapsed,
                sql=sql_text,
                fallback_reason=fallback_reason,
                trace_id=get_tracer().current_trace_id(),
            )

    def _native_fallback(self, query: str) -> list:
        from repro.xquery import make_context, parse_xquery
        from repro.xquery.evaluator import evaluate_query

        with get_tracer().span("xquery.publish"), self.history_lock.read():
            documents = {
                doc: publish_relation(
                    self.db,
                    self.relations[rel],
                    rows_provider=self._all_rows_of,
                )
                for doc, rel in self._doc_names.items()
            }
        ctx = make_context(documents, self.db.current_date)
        return evaluate_query(parse_xquery(query), ctx)

    # -- temporal SQL (first-class FOR SYSTEM_TIME) ------------------------------------------

    def sql(self, text: str, params=None) -> Result:
        """Execute SQL — including the temporal surface — on the archive.

        This is the SQL-native sibling of :meth:`xquery`: ``FOR
        SYSTEM_TIME`` clauses, ``TEMPORAL JOIN``, ``SELECT NORMALIZE``
        and sequenced aggregates (``tavg``/``tcount``/...) lower straight
        into the plan IR, so time-travel queries pick up segment
        restriction and index selection without any XQuery translation.
        Pending changes are archived first and SELECTs run under the
        history read lock, mirroring the ``xquery`` path; use
        :meth:`explain_sql` / ``db.last_plan`` for the plan.
        """
        from repro.plan.build import select_is_temporal
        from repro.sql import ast as sql_ast
        from repro.sql.parser import parse_sql
        from repro.sql.session import execute_statement

        statement = parse_sql(text)
        if not isinstance(statement, sql_ast.Select):
            return self.db.sql(text, params)
        temporal = select_is_temporal(statement)
        tracer = get_tracer()
        started = perf_counter()
        with tracer.span("archis.sql", sql=text):
            self.apply_pending()
            with self.history_lock.read():
                result = execute_statement(
                    self.db, statement, params, text=text
                )
        elapsed = perf_counter() - started
        if temporal:
            _TEMPORAL_QUERIES.inc()
            _TEMPORAL_SECONDS.observe(elapsed)
            self.slow_query_log.record(
                text,
                elapsed,
                sql=text,
                trace_id=tracer.current_trace_id(),
            )
        result.stats.update({"sql": text, "seconds": elapsed})
        return result

    def explain_sql(self, text: str, params=None) -> ExplainResult:
        """Run SQL with tracing forced on and report how it ran.

        The SQL sibling of :meth:`explain`: returns the span tree, the
        statement's :class:`~repro.obs.explain.PlanReport` (where the
        segment restriction is visible) and the buffer-pool IO the run
        performed.
        """
        registry = get_registry()
        misses = registry.counter("buffer.misses")
        hits = registry.counter("buffer.hits")
        misses_before = misses.value
        hits_before = hits.value
        with get_tracer().capture() as roots:
            result = self.sql(text, params)
        root = next(
            (s for s in reversed(roots) if s.name == "archis.sql"),
            roots[-1],
        )
        plan = None
        if getattr(self.db, "last_plan", None) is not None:
            plan = self.db.last_plan.report()
        return ExplainResult(
            query=text,
            seconds=root.duration,
            result_count=result.row_count,
            physical_reads=misses.value - misses_before,
            cache_hits=hits.value - hits_before,
            root=root,
            sql=text,
            params=dict(params or {}),
            plan=plan,
        )

    # -- snapshots (the segment fast path, Section 6.3) -------------------------------------

    def snapshot_rows(
        self, relation_name: str, attribute: str, date: int
    ) -> Result:
        """(id, value) pairs of an attribute's snapshot at ``date``.

        Returns a :class:`~repro.api.Result` whose ``rows`` are the
        pairs and whose ``columns`` are ``id`` and the attribute name;
        ``stats`` records the segment read and whether it was compressed.
        """
        relation = self._relation(relation_name)
        table_name = relation.attribute_table(attribute)
        columns = ["id", attribute]
        stats = {"table": table_name, "date": date}
        with self.history_lock.read():
            segno = self.segments.segment_for(date)
            stats["segno"] = segno
            if table_name in self.archive.compressed_tables and (
                segno != self.segments.live_segno
            ):
                rows = self.archive.read_rows(table_name, [segno])
                table = self.db.table(table_name)
                seg_pos = table.schema.position("segno")
                tstart_pos = table.schema.position("tstart")
                tend_pos = table.schema.position("tend")
                stats["compressed"] = True
                return Result(
                    [
                        (row[0], row[1])
                        for row in rows
                        if row[seg_pos] == segno
                        and row[tstart_pos] <= date <= row[tend_pos]
                    ],
                    columns,
                    stats=stats,
                )
            result = self.db.sql(
                f"SELECT t.id, t.{attribute} FROM {table_name} t "
                f"WHERE t.segno = :segno AND t.tstart <= :d AND t.tend >= :d",
                {"segno": segno, "d": date},
            )
            stats["compressed"] = False
        return Result(list(result.rows), columns, stats=stats)

    def max_increase_one_scan(
        self,
        relation_name: str,
        attribute: str,
        after: int,
        window_days: int,
    ) -> float | None:
        """The temporal join of Table 3 Q6 as a one-scan user-defined
        aggregate (paper Section 8.3: "we effectively optimize the join
        through a user-defined aggregate in one scan").

        Finds the maximum value increase between two versions of the same
        key where the later version starts within ``window_days`` of the
        earlier one and the earlier starts at/after ``after``.  Only the
        ``atlas`` profile uses this fast path.
        """
        if not self.profile.one_scan_join:
            raise ArchisError(
                "the one-scan join optimization is an ATLaS-profile feature"
            )
        best: float | None = None
        open_versions: list[tuple[int, float]] = []  # (tstart, value)
        last_id: object = None
        for row in self.history(relation_name, attribute):
            key, value, tstart, _ = row
            if key != last_id:
                open_versions = []
                last_id = key
            # drop versions that can no longer pair with later ones
            open_versions = [
                (s, v) for s, v in open_versions
                if tstart - s <= window_days
            ]
            for earlier_start, earlier_value in open_versions:
                if earlier_start >= after and tstart > earlier_start:
                    increase = value - earlier_value
                    if best is None or increase > best:
                        best = increase
            open_versions.append((tstart, value))
        return best

    # -- compression ----------------------------------------------------------------------------

    def compress_archive(self) -> dict[str, object]:
        """BlockZIP every tracked H-table's frozen segments into BLOBs.

        Background rewrites are drained first: compression snapshots a
        frozen segment's physical layout, so the sorted rewrite must be
        in place before its rows move into BLOBs.
        """
        self.drain_maintenance()
        report = {}
        with get_tracer().span("archis.compress_archive") as span:
            for relation in self.relations.values():
                for table_name in relation.all_tables():
                    if table_name in self.archive.compressed_tables:
                        continue
                    report[table_name] = self.archive.compress_table(
                        table_name
                    )
            span.set("tables", len(report))
        return report

    # -- persistence ------------------------------------------------------------------------

    def save(self) -> str:
        """Persist a file-backed archive (catalog + ArchIS metadata).

        Queued background rewrites are drained first so the saved
        archive carries a settled physical layout (an unfinished queue
        would still reload correctly — ``pending_rewrites`` rides in the
        sidecar — but a clean save should not need a resume).
        """
        self.drain_maintenance()
        from repro.archis.persistence import save_archive

        return save_archive(self)

    def drain_maintenance(self, timeout: float = 60.0) -> None:
        """Wait for every queued background rewrite to finish.

        A no-op outside background mode.  Re-raises an error the worker
        recorded.
        """
        if self.maintenance is not None:
            self.maintenance.drain(timeout)

    def close(self) -> None:
        """Stop maintenance, close the db."""
        if self.maintenance is not None:
            self.maintenance.stop()
        self.db.close()

    def __enter__(self) -> "ArchIS":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @classmethod
    def open(
        cls,
        path: str,
        *,
        config: ArchISConfig | None = None,
    ) -> "ArchIS":
        """Reopen an archive saved with :meth:`save` (runs WAL recovery).

        ``config`` supplies the runtime knobs (buffer pool, durability,
        batch size, cache sizes); the archive's *state* — profile, U_min,
        segment boundaries — always comes from the saved sidecar.
        """
        from repro.archis.persistence import load_archive

        return load_archive(path, config=resolve_config(config))

    @property
    def durability(self) -> str:
        """The underlying pager's durability mode: ``"wal"`` or ``"none"``."""
        return self.db.durability

    # -- observability ----------------------------------------------------------------------------

    def stats(self) -> dict:
        """A full telemetry snapshot: metrics, cache, segments, slow log.

        The returned structure is a deep copy: callers may mutate or
        retain it without aliasing live registry internals, and two
        snapshots never share state.
        """
        pool = self.db.pool.stats
        pager = self.db.pager.stats
        return copy.deepcopy({
            "metrics": get_registry().snapshot(),
            "buffer": {
                "hits": pool.hits,
                "misses": pool.misses,
                "hit_rate": pool.hit_rate,
            },
            "pager": {
                "reads": pager.reads,
                "writes": pager.writes,
                "allocations": pager.allocations,
            },
            "durability": {
                "mode": self.db.durability,
                "wal_frames": get_registry().counter("wal.frames").value,
                "wal_bytes": get_registry().counter("wal.bytes").value,
                "wal_commits": get_registry().counter("wal.commits").value,
                "wal_checkpoints": get_registry().counter(
                    "wal.checkpoints"
                ).value,
                "wal_recoveries": get_registry().counter(
                    "wal.recoveries"
                ).value,
                "wal_fsyncs": get_registry().counter("wal.fsyncs").value,
                "group_commit_batched": get_registry().counter(
                    "wal.group_commit.batched"
                ).value,
                "commit_causes": dict(
                    get_registry().labeled_counter("wal.commits.cause").values
                ),
            },
            "ingest": {
                "batch_size": self.config.batch_size,
                "batches": get_registry().counter("ingest.batches").value,
                "entries": get_registry().counter("ingest.entries").value,
                "clearance_granted": get_registry().counter(
                    "ingest.clearance_granted"
                ).value,
                "clearance_denied": get_registry().counter(
                    "ingest.clearance_denied"
                ).value,
            },
            "config": self.config.as_dict(),
            "txn": (
                self.txn_manager.stats()
                if self.txn_manager is not None
                else None
            ),
            "segments": {
                "count": self.segments.segment_count(),
                "freezes": self.segments.freeze_count,
                "live_segno": self.segments.live_segno,
                "usefulness": self.segments.stats.usefulness,
            },
            "maintenance": {
                "mode": self.config.maintenance,
                "step_rows": self.config.maintenance_step_rows,
                "pending_rewrites": list(self.segments.pending_rewrites),
                "rewrites_completed": self.segments.rewrites,
                "worker": (
                    self.maintenance.stats()
                    if self.maintenance is not None
                    else None
                ),
                "freezes_enqueued": get_registry().counter(
                    "maintenance.freezes_enqueued"
                ).value,
                "freezes_completed": get_registry().counter(
                    "maintenance.freezes_completed"
                ).value,
                "steps": get_registry().counter("maintenance.steps").value,
                "rows_moved": get_registry().counter(
                    "maintenance.rows_moved"
                ).value,
            },
            "translator": {
                "cache_size": len(self._translation_cache),
                "cache_capacity": self.translation_cache_size,
                "cache_hits": _CACHE_HITS.value,
                "cache_misses": _CACHE_MISSES.value,
            },
            "relations": sorted(self.relations),
            "compressed_tables": sorted(self.archive.compressed_tables),
            "slow_queries": [
                asdict(entry) for entry in self.slow_query_log
            ],
        })

    def explain(self, query: str, allow_fallback: bool = True) -> ExplainResult:
        """Run ``query`` with tracing forced on and report how it ran.

        Returns the span tree (parse/translate/execute stages), the
        translated SQL (or the fallback reason), and the buffer-pool IO
        the run performed.  Works regardless of the tracer's global
        enabled state.
        """
        registry = get_registry()
        misses = registry.counter("buffer.misses")
        hits = registry.counter("buffer.hits")
        misses_before = misses.value
        hits_before = hits.value
        with get_tracer().capture() as roots:
            result = self.xquery(query, allow_fallback=allow_fallback)
        root = next(
            (s for s in reversed(roots) if s.name == "archis.xquery"),
            roots[-1],
        )
        sql_text = root.attrs.get("sql")
        plan = None
        if sql_text is not None and self.db.last_plan is not None:
            plan = self.db.last_plan.report()
        return ExplainResult(
            query=query,
            seconds=root.duration,
            result_count=result.row_count,
            physical_reads=misses.value - misses_before,
            cache_hits=hits.value - hits_before,
            root=root,
            sql=sql_text,
            fallback_reason=root.attrs.get("fallback_reason"),
            plan=plan,
        )

    # -- measurement hooks ------------------------------------------------------------------------

    def reset_caches(self) -> None:
        self.db.reset_caches()
        with self._cache_lock:
            self._translation_cache.clear()

    def storage_bytes(self) -> int:
        """Footprint of all H-tables + compressed blobs (+ index models).

        The ATLaS profile charges its clustered-index overhead here
        (BerkeleyDB keeps tables inside a clustered B-tree; Fig. 11 shows
        the resulting storage penalty).
        """
        total = 0
        for relation in self.relations.values():
            for table_name in relation.all_tables():
                table = self.db.table(table_name)
                total += table.size_bytes(include_indexes=True)
                if self.profile.clustered_indexes:
                    # clustered index ~ one extra key entry per row plus
                    # B-tree page slack over the heap payload
                    total += table.size_bytes(include_indexes=False) // 2
            for table_name in relation.all_tables():
                info = self.archive.compressed_tables.get(table_name)
                if info is not None:
                    for row in self.db.table(info.blob_table).rows():
                        blob_id = row[4]
                        total += len(self.db.blobs.get(blob_id))
        return total

    def _relation(self, name: str) -> TrackedRelation:
        relation = self.relations.get(name)
        if relation is None:
            raise ArchisError(f"table {name} is not tracked")
        return relation
