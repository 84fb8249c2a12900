"""The traced run: spans around each layer's entry points, split by layer.

The program's tracer already records spans for the server request
(``server.request`` / ``server.execute`` / ``server.send``), SQL
statements, XQuery translation and post-processing, transaction commit,
archival apply and inline freezes.  :class:`LayerTrace` adds the
benchmark's own timing wrappers around the public entry points that have
no span: the SQL parser, plan build / rules / compile, SELECT execution,
the history table functions, BlockZIP block reads and decompression,
snapshot reconstruction, XML serialization, WAL sync and sidecar
staging.  It also counts rows the history functions read from storage,
rows BlockZIP decompressed and used, sidecar bytes staged and the bytes
the client received in answer to reads.  Wrappers are installed only for
the traced phase and removed after it; the untraced phase runs the
program unwrapped.

Finished root spans are kept in memory (an exporter on the tracer) and
written out as JSON lines when the run ends.  A layer's self time is the
duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict

#: span name -> layer (module) it times
LAYER_OF = {
    "bench.op": "bench client",
    "client.request": "server wire",
    "server.request": "server session",
    "server.execute": "server session",
    "server.send": "server encoding",
    "server.encode": "server encoding",
    "sql.parse": "sql parser",
    "plan.build": "plan optimizer",
    "plan.rules": "plan optimizer",
    "plan.compile": "plan optimizer",
    "plan.execute": "plan execution",
    "sql.execute": "plan execution",
    "sql.statement": "sql/rdb statement",
    "history_fn": "archis tablefuncs",
    "blockzip.read": "blockzip",
    "blockzip.decompress": "blockzip",
    "archis.xquery": "xquery translator",
    "xquery.translate": "xquery translator",
    "xquery.parse": "xquery translator",
    "sql.generate": "xquery translator",
    "xquery.post": "xmlkit",
    "xquery.publish": "xmlkit",
    "xml.serialize": "xmlkit",
    "txn.commit": "txn manager",
    "txn.abort": "txn manager",
    "txn.reconstruct": "txn reconstruct",
    "archis.apply_log": "archis tracker",
    "archis.batch_apply": "archis tracker",
    "archis.freeze": "archis clustering",
    "archis.freeze_switch": "archis clustering",
    "persistence.stage": "archis persistence",
    "wal.sync": "storage wal",
}

#: history table-function prefixes (the ``unzip_`` reader is BlockZIP's)
HISTORY_PREFIXES = ("history_", "seg_", "slice_")


class LayerTrace:
    """Installs the timing wrappers and collects spans and counts."""

    def __init__(self) -> None:
        from repro.obs.tracer import get_tracer

        self.tracer = get_tracer()
        self.roots: list = []
        self.counts: Counter = Counter()
        self._restore: list = []
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        #: kind ("read" or "write") of the operation the client is running
        self.op_kind = None

    # -- installing ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _span_wrapper(self, original, span_name: str | None, after=None):
        """``original`` inside a span (none if ``span_name`` is None),
        then ``after(result, args, kwargs)`` to count what it did."""
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_function(self, module_name: str, attr: str, span_name: str,
                       after=None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        bound it by name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._span_wrapper(original, span_name, after)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _wrap_method(self, cls, attr: str, span_name: str | None,
                     after=None) -> None:
        original = getattr(cls, attr)
        self._set(cls, attr, self._span_wrapper(original, span_name, after))

    def _wrap_table_function(self, db, name: str, fn) -> None:
        tracer = self.tracer
        local = self._local
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts["history_fn.calls"] += 1
            local.depth = getattr(local, "depth", 0) + 1
            try:
                with tracer.span("history_fn", fn=name):
                    rows = list(fn(*args))
            finally:
                local.depth -= 1
            return iter(rows)

        self._set_item(db._table_functions, name, wrapper)

    def _set_item(self, mapping: dict, key: str, value) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def install(self, archis) -> None:
        """Enable the tracer and wrap the entry points (traced phase)."""
        from repro.archis.blobstore import CompressedArchive
        from repro.rdb.table import Table
        from repro.server.client import Client
        from repro.sql.planner import SelectPlan
        from repro.storage.pager import Pager
        from repro.storage.wal import WriteAheadLog
        import repro.server.protocol as protocol

        counts = self.counts
        local = self._local
        main_thread = self._main_thread

        self._wrap_function("repro.sql.parser", "parse_sql", "sql.parse")
        self._wrap_function("repro.plan.build", "build_logical", "plan.build")
        self._wrap_function("repro.plan.optimizer", "run_rules", "plan.rules")
        self._wrap_function("repro.plan.physical", "compile_plan",
                            "plan.compile")
        self._wrap_method(SelectPlan, "execute", "plan.execute")
        self._wrap_function("repro.server.encoding", "encode_result",
                            "server.encode")
        self._wrap_function("repro.xmlkit.serializer", "serialize",
                            "xml.serialize")
        self._wrap_function("repro.txn.reconstruct", "snapshot_table",
                            "txn.reconstruct")
        self._wrap_function("repro.archis.compression", "decompress_block",
                            "blockzip.decompress")
        self._wrap_function("repro.archis.persistence", "stage_archive",
                            "persistence.stage")
        self._wrap_function("repro.rdb.persistence", "save_catalog",
                            "persistence.stage")
        self._wrap_method(WriteAheadLog, "sync", "wal.sync")
        self._wrap_method(WriteAheadLog, "_group_sync", "wal.sync")
        self._wrap_method(Client, "request", "client.request")

        def sidecar_bytes(result, args, kwargs):
            counts["persistence.sidecar_bytes"] += len(args[2])

        self._wrap_method(Pager, "write_sidecar", None, after=sidecar_bytes)

        def blocks_read(result, args, kwargs):
            archive, table_name = args[0], args[1]
            segnos = args[2] if len(args) > 2 else kwargs.get("segnos")
            counts["blockzip.rows_decompressed"] += len(result)
            if getattr(local, "depth", 0):
                counts["history_fn.rows_decoded"] += len(result)
            if segnos is None:
                counts["blockzip.rows_used"] += len(result)
                return
            position = archive.db.table(table_name).schema.position("segno")
            wanted = set(segnos)
            counts["blockzip.rows_used"] += sum(
                1 for row in result if row[position] in wanted
            )

        self._wrap_method(CompressedArchive, "read_rows", "blockzip.read",
                          after=blocks_read)

        def heap_rows(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                rows = list(original(*args, **kwargs))
                if getattr(local, "depth", 0):
                    counts["history_fn.rows_decoded"] += len(rows)
                return iter(rows)

            return wrapper

        self._set(Table, "scan", heap_rows(Table.scan))
        self._set(Table, "index_scan", heap_rows(Table.index_scan))

        original_recv = protocol._recv_exact

        @functools.wraps(original_recv)
        def recv_exact(sock, size, *args, **kwargs):
            data = original_recv(sock, size, *args, **kwargs)
            if (threading.get_ident() == main_thread and data
                    and self.op_kind == "read"):
                counts["client.bytes_received"] += len(data)
            return data

        self._set(protocol, "_recv_exact", recv_exact)

        for name, fn in list(archis.db._table_functions.items()):
            if name.startswith(HISTORY_PREFIXES):
                self._wrap_table_function(archis.db, name, fn)

        self.tracer.add_exporter(self.roots.append)
        self.tracer.enable()

    def uninstall(self) -> None:
        self.tracer.disable()
        self.tracer.remove_exporter(self.roots.append)
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    def op_span(self, op):
        """The client-side root span of one benchmark operation."""
        self.op_kind = op.kind
        return self.tracer.span("bench.op", cls=op.cls)

    # -- reading the spans --------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds and count."""
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        count: Counter = Counter()
        for root in self.roots:
            for span in root.walk():
                duration = span.duration
                inclusive[span.name] += duration
                own[span.name] += duration - sum(
                    child.duration for child in span.children
                )
                count[span.name] += 1
        return inclusive, own, count

    def layer_seconds(self) -> dict:
        """Self seconds per layer; the wire is the client round trips
        less the server-side request spans they caused."""
        inclusive, own, _ = self.totals()
        layers: dict = defaultdict(float)
        for name, seconds in own.items():
            layers[LAYER_OF.get(name, f"other ({name})")] += seconds
        layers["server wire"] -= inclusive.get("server.request", 0.0)
        return dict(layers)

    def write(self, path: str) -> int:
        """Write every collected root span tree as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for root in self.roots:
                handle.write(json.dumps(root.to_dict(), default=str) + "\n")
        return len(self.roots)
