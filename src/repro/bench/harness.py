"""Benchmark harness: engine builders, cold-query measurement, comparisons.

Reproduces the paper's measurement protocol (Section 7): caches are reset
before every measured query ("the hard drive with data is unmounted ...
databases are restarted for each query"), each query runs several times and
results are averaged, and buffer-pool physical reads are reported alongside
wall-clock time.

Measurements are read from the observability layer rather than ad-hoc
timers: wall time comes from the query's root span, stage times from its
children, and physical reads from the ``buffer.misses`` counter — the same
numbers ``ArchIS.explain()`` and production telemetry report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archis import ArchIS
from repro.dataset import EmployeeHistoryGenerator
from repro.nativexml import NativeXmlDatabase
from repro.obs import Span, get_registry, get_tracer
from repro.rdb import Database
from repro.bench.queries import BenchQuery


@dataclass
class Measurement:
    seconds: float
    physical_reads: int
    result_size: int
    translate_seconds: float = 0.0
    execute_seconds: float = 0.0
    cache_hit_rate: float = 0.0
    rows_scanned: int = 0


@dataclass
class BenchSetup:
    """A populated experiment: ArchIS engines + native XML baseline."""

    generator: EmployeeHistoryGenerator
    archis: ArchIS
    native: NativeXmlDatabase
    events_applied: int = 0
    extra: dict = field(default_factory=dict)


def build_archis(
    scale: int = 1,
    employees: int = 60,
    years: int = 17,
    profile: str = "atlas",
    umin: float | None = 0.4,
    min_segment_rows: int = 512,
    compress: bool = False,
    seed: int = 20060403,
    maintenance: str = "inline",
    maintenance_step_rows: int = 1024,
) -> tuple[EmployeeHistoryGenerator, ArchIS, int]:
    """Generate the dataset into a tracked current database."""
    generator = EmployeeHistoryGenerator(
        employees=employees, years=years, scale=scale, seed=seed
    )
    db = Database()
    db.set_date("1985-01-01")
    EmployeeHistoryGenerator.create_current_table(db)
    from repro.archis import ArchISConfig

    archis = ArchIS(
        db,
        config=ArchISConfig(
            profile=profile,
            umin=umin,
            min_segment_rows=min_segment_rows,
            maintenance=maintenance,
            maintenance_step_rows=maintenance_step_rows,
        ),
    )
    archis.track_table("employee", document_name="employees.xml")
    events = generator.apply_to(db)
    archis.apply_pending()
    archis.drain_maintenance()
    if compress:
        archis.compress_archive()
    return generator, archis, events


def build_native(archis: ArchIS, compress: bool = True) -> NativeXmlDatabase:
    """Store the published H-document in the native XML baseline."""
    native = NativeXmlDatabase(compress=compress)
    for document in archis.document_names():
        relation = archis.relation_for_document(document)
        native.store_document(document, archis.publish(relation.name))
    native.set_date(archis.db.current_date)
    return native


def build_setup(**kwargs) -> BenchSetup:
    generator, archis, events = build_archis(**kwargs)
    native = build_native(archis)
    return BenchSetup(generator, archis, native, events)


# -- measurement -------------------------------------------------------------------


def _measure_cold(run_query, root_name: str) -> Measurement:
    """Run one cold query under a capture and read the telemetry back."""
    registry = get_registry()
    misses = registry.counter("buffer.misses")
    hits = registry.counter("buffer.hits")
    scanned = registry.counter("sql.rows_scanned")
    misses_before = misses.value
    hits_before = hits.value
    scanned_before = scanned.value
    with get_tracer().capture() as roots:
        result = run_query()
    root: Span = next(
        (s for s in reversed(roots) if s.name == root_name), roots[-1]
    )
    reads = misses.value - misses_before
    hit_count = hits.value - hits_before
    total = reads + hit_count
    return Measurement(
        seconds=root.duration,
        physical_reads=reads,
        result_size=len(getattr(result, "rows", result)),
        translate_seconds=root.stage_seconds("xquery.translate"),
        execute_seconds=root.stage_seconds("sql.execute"),
        cache_hit_rate=hit_count / total if total else 0.0,
        rows_scanned=scanned.value - scanned_before,
    )


def run_archis_cold(archis: ArchIS, query: BenchQuery) -> Measurement:
    archis.reset_caches()
    return _measure_cold(
        lambda: archis.xquery(query.xquery, allow_fallback=False),
        "archis.xquery",
    )


def run_native_cold(native: NativeXmlDatabase, query: BenchQuery) -> Measurement:
    native.reset_caches()
    return _measure_cold(
        lambda: native.xquery(query.xquery), "nativexml.xquery"
    )


def averaged(run, repeats: int = 3) -> Measurement:
    """Run a measurement function several times and average (paper: each
    query executed 7 times and averaged; we default to 3 for CI budgets)."""
    samples = [run() for _ in range(repeats)]
    count = len(samples)
    return Measurement(
        sum(s.seconds for s in samples) / count,
        samples[-1].physical_reads,
        samples[-1].result_size,
        sum(s.translate_seconds for s in samples) / count,
        sum(s.execute_seconds for s in samples) / count,
        samples[-1].cache_hit_rate,
        samples[-1].rows_scanned,
    )


def compare_engines(
    setup: BenchSetup, queries: list[BenchQuery], repeats: int = 3
) -> dict[str, dict[str, Measurement]]:
    """Cold-run every query on ArchIS and the native baseline."""
    out: dict[str, dict[str, Measurement]] = {}
    for query in queries:
        out[query.key] = {
            "archis": averaged(
                lambda q=query: run_archis_cold(setup.archis, q), repeats
            ),
            "native": averaged(
                lambda q=query: run_native_cold(setup.native, q), repeats
            ),
        }
    return out


def verify_equivalence(setup: BenchSetup, queries: list[BenchQuery]) -> None:
    """Assert ArchIS and the native baseline answer each query identically.

    Run before timing so a benchmark never reports speed on wrong answers.
    """
    from repro.xmlkit import serialize

    def canon(seq):
        return sorted(
            serialize(x) if hasattr(x, "name") else repr(_round(x)) for x in seq
        )

    def _round(value):
        if isinstance(value, float):
            rounded = round(value, 6)
            return int(rounded) if rounded.is_integer() else rounded
        return value

    for query in queries:
        a = canon(setup.archis.xquery(query.xquery, allow_fallback=False).rows)
        b = canon(setup.native.xquery(query.xquery))
        if a != b:
            raise AssertionError(
                f"{query.key}: ArchIS and native results diverge\n"
                f"  archis: {a[:3]}...\n  native: {b[:3]}..."
            )
