"""ArchIS benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 archisbench/run.py --workload point_reads --seed 1 \
        --seconds 12 --trace 0

Set-up builds a file-backed archive (generate the employee history, the
same for every seed, load it through DML, archive it, BlockZIP it where
the workload asks, save it) and serves it from an in-process
``repro.server.Server``; it is timed several times and the median
reported as ``setup_s``.  One client thread on one connection then runs
a fixed number of whole rounds of the workload (closed loop): the
workload's rounds per second times ``--seconds``, so every run of a seed
does the same work; the seed picks the operations.  Every answer is checked against the
interval model (:mod:`oracle`) after its round, outside the round's timed
part; after the loop come the bound-versus-literal, read-your-commit and
reopen properties.

``--trace 0`` prints the end-to-end metrics, timed with tracing off.
``--trace 1`` runs half the time untraced, then half with the tracer and
the layer wrappers (:mod:`layers`) on, and prints the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 means the run
completed; answers that disagree with the model make ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import xml.etree.ElementTree as ElementTree
from collections import Counter, defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for archives, fingerprints and span logs (git-ignored)
RUNS = os.path.join(ROOT, ".archisbench_runs")

from oracle import ATTRIBUTES, FOREVER, IntervalModel, day_of  # noqa: E402
from workloads import (  # noqa: E402
    ASOF_SQL,
    CURRENT_SQL,
    HISTORY_SEED,
    HISTORY_SQL,
    WORKLOADS,
    Op,
    OpStream,
    tail_percentile,
)

#: registry counters that repeat exactly for one seed on one program
FINGERPRINT_COUNTERS = (
    "wal.bytes",
    "wal.fsyncs",
    "clustering.segments_frozen",
    "clustering.rows_rewritten",
    "tracker.changes_applied",
    "sql.rows_scanned",
    "blockzip.blocks_decompressed",
    "buffer.misses",
    "pager.reads",
)

#: (key, day) samples for the bound-versus-literal property
PROPERTY_SAMPLES = 6

#: timed set-ups per full-size untraced run (``setup_s`` is their median)
SETUP_REPS = 5

#: a round or a set-up during which the host took more than this share of
#: the machine's CPU time (steal) is left out of the timings; see steady()
STEAL_LIMIT = 0.05


def import_program() -> None:
    """Put the program's source on the path; exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"archisbench: program source not found at {SRC}/repro",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, SRC)


def source_digest() -> str:
    """Digest of the program's and the benchmark's source, to key
    determinism fingerprints."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for directory, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_ticks() -> tuple:
    """(steal, total) CPU ticks of the machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields))


def steal_share(before: tuple, after: tuple) -> float:
    """Share of the machine's CPU time the host took between two
    :func:`cpu_ticks` readings."""
    steal, total = (b - a for a, b in zip(before, after))
    return steal / total if total > 0 else 0.0


def steady(samples: list) -> list:
    """The timed samples (tuples whose first item is their steal share)
    taken while the host took at most :data:`STEAL_LIMIT` of the CPU time
    — or, if those are fewer than half, the half with the least steal.

    On a virtual machine the host can take the CPUs away for minutes;
    timings taken meanwhile are slower by far more than the work they
    time, and they would make two sets of runs of one program disagree.
    """
    kept = [sample for sample in samples if sample[0] <= STEAL_LIMIT]
    if 2 * len(kept) < len(samples):
        kept = sorted(samples, key=lambda sample: sample[0])
        kept = kept[:(len(samples) + 1) // 2]
    return kept


def percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- set-up -------------------------------------------------------------------


@dataclass
class Archive:
    """One served archive and its set-up timings."""

    path: str
    db: object
    archis: object
    manager: object
    server: object
    client: object
    phases: dict
    seconds: float

    def stop(self) -> None:
        """Close the client and server, then the archive (checkpoints)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.archis is not None:
            self.archis.close()
            self.archis = None


def build_archive(workload, size, directory: str) -> Archive:
    """Generate, load, archive, compress, save and serve (timed)."""
    from repro.archis import ArchIS, ArchISConfig
    from repro.dataset import EmployeeHistoryGenerator
    from repro.rdb import Database
    from repro.server import Server
    from repro.server.client import Client
    from repro.txn import TxnManager

    os.makedirs(directory)
    path = os.path.join(directory, "archive.db")
    started = time.perf_counter()
    generator = EmployeeHistoryGenerator(
        employees=size.employees, years=size.years, seed=HISTORY_SEED
    )
    db = Database(path, buffer_pages=workload.buffer_pages)
    db.set_date("1985-01-01")
    EmployeeHistoryGenerator.create_current_table(db)
    archis = ArchIS(db, config=ArchISConfig())
    archis.track_table("employee", document_name="employees.xml")
    generator.apply_to(db)
    loaded = time.perf_counter()
    archis.apply_pending()
    archived = time.perf_counter()
    if workload.compress:
        archis.compress_archive()
    compressed = time.perf_counter()
    archis.save()
    saved = time.perf_counter()
    manager = TxnManager(db, archis)
    server = Server(manager, archis).start()
    client = Client(*server.address, encoding=workload.encoding)
    client.ping()
    served = time.perf_counter()
    return Archive(
        path=path,
        db=db,
        archis=archis,
        manager=manager,
        server=server,
        client=client,
        phases={
            "setup.load_s": loaded - started,
            "setup.archive_s": archived - loaded,
            "setup.compress_s": compressed - archived,
            "setup.save_s": saved - compressed,
        },
        seconds=served - started,
    )


def build_model(size, keep_one_day_versions: bool = False) -> IntervalModel:
    """The interval model of the generated history (the same events the
    loader applies)."""
    from repro.dataset import EmployeeHistoryGenerator

    model = IntervalModel(keep_one_day_versions)
    generator = EmployeeHistoryGenerator(
        employees=size.employees, years=size.years, seed=HISTORY_SEED
    )
    for event in generator.events():
        payload = dict(event.payload)
        if event.op == "raise":
            payload = {"salary": payload["salary"]}
        elif event.op == "title":
            payload = {"title": payload["title"]}
        elif event.op == "move":
            payload = {"deptno": payload["deptno"]}
        model.apply_event(event.op, event.employee_id, payload, event.date)
    return model


# -- the timed loop -------------------------------------------------------------


@dataclass
class Tally:
    """Latencies, outcomes and recorded answers of one loop."""

    read_ms: list = field(default_factory=list)
    commit_ms: list = field(default_factory=list)
    class_ms: dict = field(default_factory=lambda: defaultdict(list))
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    #: (op, snapshot day, rows, ms) of the reads answered since the last
    #: check; a read's latency is kept once its answer is checked
    answers: list = field(default_factory=list)
    #: answers that disagreed with the model
    wrong: list = field(default_factory=list)
    #: answers that showed the program's one-day-version departure
    departures: Counter = field(default_factory=Counter)
    #: expected-failure class -> how its first failure went
    expected: dict = field(default_factory=dict)
    seconds: float = 0.0
    rounds: int = 0
    #: per round: (steal share, seconds, read latencies, commit latencies)
    timed: list = field(default_factory=list)
    written_user_bytes: int = 0

    @property
    def completed(self) -> int:
        return len(self.read_ms) + len(self.commit_ms)


class Runner:
    """Executes rounds on one archive and keeps the models in step: the
    oracle (``model``) and the program's known departure (``variant``)."""

    def __init__(self, workload, archive: Archive, model, variant,
                 stream) -> None:
        self.workload = workload
        self.archive = archive
        self.model = model
        self.variant = variant
        self.stream = stream
        self.snapshot_day = model.last_day
        self.trace = None
        #: digest of the first round's operations (the seed's inputs)
        self.inputs_digest = None

    def _read(self, op):
        client = self.archive.client
        if op.lang == "xquery":
            return client.xquery(op.text)
        return [tuple(row) for row in client.execute(
            op.text, params=op.params).rows]

    def _write(self, op) -> int:
        client = self.archive.client
        client.begin()
        try:
            for text, params, _ in op.stmts:
                client.execute(text, params=params)
        except Exception:
            client.abort()
            raise
        return client.commit()

    def _acknowledge(self, op, day: int, tally: Tally) -> None:
        before = self.model.user_bytes
        for _, _, (kind, key, payload) in op.stmts:
            self.model.apply_event(kind, key, payload, day)
            self.variant.apply_event(kind, key, payload, day)
        tally.written_user_bytes += self.model.user_bytes - before
        self.stream.note_commit(op, day)
        self.snapshot_day = day

    def run_op(self, op, tally: Tally) -> None:
        from repro.errors import ReproError

        tally.attempted[op.cls] += 1
        span = self.trace.op_span(op) if self.trace else None
        started = time.perf_counter()
        try:
            with span if span is not None else contextlib.nullcontext():
                result = (
                    self._read(op) if op.kind == "read" else self._write(op)
                )
        except ReproError as exc:
            tally.failed[op.cls] += 1
            reason = f"{op.cls}: {type(exc).__name__}: {exc}"
            if op.cls in self.workload.expected_failures:
                tally.expected.setdefault(op.cls, reason)
            else:
                tally.errors.append(reason)
            return
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if op.kind == "read":
            tally.answers.append((op, self.snapshot_day, result, elapsed_ms))
        else:
            tally.class_ms[op.cls].append(elapsed_ms)
            tally.commit_ms.append(elapsed_ms)
            self._acknowledge(op, result, tally)

    def check(self, tally: Tally) -> None:
        """Check the answers recorded since the last check, then drop
        them.  A right answer's latency counts; a wrong answer of an
        expected-failure class is a failed operation; any other wrong
        answer is a failed check."""
        for op, snapshot, rows, elapsed_ms in tally.answers:
            verdict = check_answer(self.model, self.variant, op, snapshot,
                                   rows)
            if verdict is not None and (
                op.cls in self.workload.expected_failures
            ):
                tally.failed[op.cls] += 1
                tally.expected.setdefault(op.cls, f"wrong answer: {verdict}")
                continue
            if verdict is None or verdict == DEPARTURE:
                tally.departures[op.cls] += verdict == DEPARTURE
            else:
                tally.wrong.append(verdict)
            tally.class_ms[op.cls].append(elapsed_ms)
            tally.read_ms.append(elapsed_ms)
        tally.answers.clear()

    def loop(self, rounds: int) -> Tally:
        """``rounds`` whole rounds.

        Each round's answers are checked against the model after the
        round, outside its timed part, and then dropped: later commits
        never change what a read at an earlier snapshot day should see,
        and a run that kept every answer would make the process's garbage
        collections slower as it went.
        """
        tally = Tally()
        while tally.rounds < rounds:
            ops = self.stream.next_round(self.snapshot_day)
            if self.inputs_digest is None:
                self.inputs_digest = hashlib.sha256(repr([
                    (op.cls, op.text, op.params, op.stmts) for op in ops
                ]).encode()).hexdigest()[:16]
            reads, commits = len(tally.read_ms), len(tally.commit_ms)
            ticks = cpu_ticks()
            started = time.perf_counter()
            for op in ops:
                self.run_op(op, tally)
            seconds = time.perf_counter() - started
            steal = steal_share(ticks, cpu_ticks())
            tally.seconds += seconds
            tally.rounds += 1
            self.check(tally)
            tally.timed.append((steal, seconds, tally.read_ms[reads:],
                                tally.commit_ms[commits:]))
        return tally


# -- checking answers against the model ----------------------------------------


def _xml_versions(items) -> list:
    out = []
    for item in items:
        element = ElementTree.fromstring(item)
        out.append((
            int(element.text),
            day_of(element.get("tstart")),
            day_of(element.get("tend")),
        ))
    return sorted(out)


def _close(actual, expected) -> bool:
    if expected is None or actual is None:
        return actual is expected
    return abs(float(actual) - float(expected)) <= 1e-6 * max(
        1.0, abs(float(expected))
    )


def _scalar(rows):
    """The single value of a one-item XQuery answer (None if empty)."""
    if not rows:
        return None
    if len(rows) != 1:
        raise ValueError(f"expected one item, got {len(rows)}")
    return rows[0]


def expected_and_actual(model: IntervalModel, op, snapshot: int, rows):
    """(expected, actual) in one comparable form, per read class."""
    cls, args = op.cls, op.args
    if cls == "asof":
        key, day = args
        return model.as_of("salary", key, day, snapshot), sorted(rows)
    if cls == "key_history":
        key, start, end = args
        return model.key_history("salary", key, start, end, snapshot), rows
    if cls == "current_row":
        return model.current_row(args[0], snapshot), rows
    if cls == "q3":
        return sorted(model.q3(args[0], snapshot)), _xml_versions(rows)
    if cls == "q1_frozen":
        key, day = args
        expected = [
            version for version in model.versions("salary", key, snapshot)
            if version[1] <= day <= version[2]
        ]
        return expected, _xml_versions(rows)
    if cls == "q2":
        expected = model.q2(args[0], snapshot)
        actual = _scalar(rows)
        return expected, expected if _close(actual, expected) else actual
    if cls == "q4":
        return model.q4(snapshot), _scalar(rows)
    if cls == "q5":
        return model.q5(*args, snapshot), _scalar(rows)
    if cls == "q5e":
        return model.q5e(*args, snapshot), _scalar(rows)
    if cls == "q6":
        return model.q6(*args, snapshot), _scalar(rows)
    if cls == "sql_snapshot":
        return model.snapshot_all("salary", args[0], snapshot), rows
    if cls == "sql_slice_count":
        start, end, above = args
        return [(model.slice_count("salary", start, end, above, snapshot),)], rows
    if cls == "sql_temporal_join":
        return model.temporal_join(args[0], snapshot), sorted(rows)
    if cls in ("sql_tavg", "sql_tavg_window"):
        expected = model.tavg("salary", args[0], args[1], snapshot)
        same = len(expected) == len(rows) and all(
            _close(a[0], e[0]) and tuple(a[1:]) == tuple(e[1:])
            for a, e in zip(rows, expected)
        )
        return expected, expected if same else rows
    if cls == "having":
        day, above = args
        counts = Counter(
            value for _, value in model.snapshot_all("deptno", day, snapshot)
        )
        expected = sorted((d, n) for d, n in counts.items() if n > above)
        return expected, sorted(rows)
    raise ValueError(f"no check for read class {cls!r}")


#: verdict of an answer that matches the program's one-day-version
#: departure from the oracle (see oracle.py), not the oracle itself
DEPARTURE = "departure"


def check_answer(model: IntervalModel, variant: IntervalModel, op,
                 snapshot: int, rows):
    """None if ``rows`` is the model's answer, :data:`DEPARTURE` if it is
    the departure's answer instead, else a line describing the mismatch."""
    try:
        expected, actual = expected_and_actual(model, op, snapshot, rows)
        if expected == actual:
            return None
        departed, rendered = expected_and_actual(variant, op, snapshot, rows)
        if departed == rendered:
            return DEPARTURE
    except (ValueError, TypeError, ElementTree.ParseError) as exc:
        expected, actual = "a well-formed answer", f"{exc!r}: {rows!r}"
    return (
        f"{op.cls} {op.text[:90]!r} {op.params or ''} "
        f"@{snapshot}: expected {str(expected)[:200]} "
        f"got {str(actual)[:200]}"
    )


def _literal(text: str, params: dict) -> str:
    """``text`` with each ``:name`` replaced by its value as a literal."""
    for name in sorted(params, key=len, reverse=True):
        value = params[name]
        rendered = f"'{value}'" if isinstance(value, str) else str(value)
        text = text.replace(f":{name}", rendered)
    return text


def property_checks(runner: Runner, seed: int) -> tuple:
    """Bound vs literal forms agree; a commit shows in the next read.
    Returns the problems and the count of departure answers."""
    rng = random.Random(f"properties:{seed}")
    client = runner.archive.client
    model = runner.model
    problems = []
    departures = 0
    reads = []
    keys = sorted(model.intervals["id"])
    for _ in range(PROPERTY_SAMPLES):
        key = rng.choice(keys)
        day = rng.randint(min(v[1] for v in model.intervals["id"][key]),
                          runner.snapshot_day)
        reads.append(("asof", ASOF_SQL, {"d": day, "k": key}, (key, day)))
        reads.append(("key_history", HISTORY_SQL,
                      {"a": 0, "b": FOREVER, "k": key}, (key, 0, FOREVER)))
        reads.append(("current_row", CURRENT_SQL, {"k": key}, (key,)))
    for cls, text, params, args in reads:
        bound = [tuple(r) for r in client.execute(text, params=params).rows]
        literal = [tuple(r) for r in client.execute(_literal(text, params)).rows]
        if bound != literal:
            problems.append(
                f"bound/literal differ: {cls} {params}: {bound} vs {literal}"
            )
        op = Op(cls, "read", text, params=params, args=args)
        verdict = check_answer(model, runner.variant, op, runner.snapshot_day,
                               bound)
        departures += verdict == DEPARTURE
        if verdict not in (None, DEPARTURE):
            problems.append(verdict)
    # read-your-commit: each acknowledged commit is visible to the very
    # next read on the session, at the commit day itself
    tally = Tally()
    for _ in range(3):
        write = runner.stream._write()
        runner.run_op(write, tally)
        kind, key, _ = write.stmts[-1][2]
        day = runner.snapshot_day
        checks = [Op("current_row", "read", CURRENT_SQL, params={"k": key},
                     args=(key,))]
        if kind != "leave":
            checks.append(Op("asof", "read", ASOF_SQL,
                             params={"d": day, "k": key}, args=(key, day)))
        for op in checks:
            runner.run_op(op, tally)
    runner.check(tally)
    problems.extend(tally.errors)
    problems.extend(f"read after commit: {line}" for line in tally.wrong)
    return problems, departures + sum(tally.departures.values())


def reopen_check(path: str, model: IntervalModel,
                 variant: IntervalModel) -> tuple:
    """Reopen the closed archive and compare every key's history.
    Returns the problems and the count of histories that showed the
    departure."""
    from repro.archis import ArchIS

    problems = []
    departures = 0
    archis = ArchIS.open(path)
    try:
        snapshot = archis.db.current_date
        for attribute in ("id",) + ATTRIBUTES:
            column = "t.id" if attribute == "id" else f"t.{attribute}"
            rows = archis.sql(
                f"SELECT t.id, {column}, t.tstart, t.tend "
                f"FROM employee_{attribute} t "
                f"FOR SYSTEM_TIME FROM 0 TO {FOREVER}"
            ).rows
            actual = sorted(tuple(row) for row in rows)
            expected = sorted(model.all_versions(attribute, snapshot))
            if actual == expected:
                continue
            if actual == sorted(variant.all_versions(attribute, snapshot)):
                departures += 1
            else:
                missing = sorted(set(expected) - set(actual))[:3]
                extra = sorted(set(actual) - set(expected))[:3]
                problems.append(
                    f"reopened {attribute} history differs: "
                    f"missing {missing} extra {extra}"
                )
    finally:
        archis.close()
    return problems, departures


# -- fingerprints -------------------------------------------------------------


def compare_fingerprint(key: str, counts: dict) -> str:
    """Store or compare the untraced loop's counts for this seed, round
    count and source."""
    path = os.path.join(RUNS, "fingerprints.json")
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
    earlier = stored.get(key)
    if earlier is None:
        stored[key] = counts
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return "recorded (first run of this seed on this source)"
    if earlier == counts:
        return "same as the earlier run of this seed"
    differing = {
        name: (earlier.get(name), counts.get(name))
        for name in sorted(set(earlier) | set(counts))
        if earlier.get(name) != counts.get(name)
    }
    return f"MISMATCH with the earlier run of this seed: {differing}"


# -- metrics ------------------------------------------------------------------


def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def end_to_end(workload, size, tally: Tally, setups: list,
               write_bytes: float, disk_bytes: int, total_user_bytes: int):
    # at least half of the rounds are timed (steady()), so the tails are
    # fixed from half the minimum rounds
    timed_min = (size.min_rounds + 1) // 2
    read_pct = tail_percentile(workload.reads_per_round() * timed_min)
    commit_pct = tail_percentile(workload.writes * timed_min)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = steady(tally.timed)
    seconds = sum(r[1] for r in rounds)
    read_ms = [ms for r in rounds for ms in r[2]]
    commit_ms = [ms for r in rounds for ms in r[3]]
    values = {
        "setup_s": (statistics.median(s for _, s in steady(setups)), "s"),
        "ops_per_s": ((len(read_ms) + len(commit_ms)) / seconds, "ops/s"),
        "read_p50_ms": (percentile(read_ms, 50.0), "ms"),
        "read_tail_ms": (percentile(read_ms, read_pct), "ms"),
        "storage_write_bytes_per_user_byte": (
            write_bytes / tally.written_user_bytes, "ratio"
        ),
        "disk_bytes_per_user_byte": (disk_bytes / total_user_bytes, "ratio"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    # commit latency waits for an fsync, whose cost on a shared host
    # drifts from run to run far beyond any useful bound: it is printed,
    # not reported as a bounded metric
    notes = [
        f"timed rounds: {len(rounds)} of {len(tally.timed)} (host steal at "
        f"most {STEAL_LIMIT:.0%} of the machine's CPU time, or the "
        f"least-stolen half); timed set-ups: {len(steady(setups))} of "
        f"{len(setups)}",
        f"read tail = p{read_pct:g} of {len(read_ms)} reads",
        f"commit latency (printed only): p50 "
        f"{percentile(commit_ms, 50.0):.3f} ms, p{commit_pct:g} "
        f"{percentile(commit_ms, commit_pct):.3f} ms of "
        f"{len(commit_ms)} commits",
    ]
    return values, notes


class LoopCounters:
    """Registry counter deltas over a span of the run."""

    NAMES = FINGERPRINT_COUNTERS + (
        "buffer.hits",
        "sql.statements",
        "sql.rows_returned",
        "translator.cache_hits",
        "translator.cache_misses",
        "txn.snapshot.reconstructions",
        "wal.checkpoints",
    )

    def __init__(self) -> None:
        self.start = self._read()

    @classmethod
    def _read(cls) -> dict:
        from repro.obs import get_registry

        registry = get_registry()
        values = {name: registry.counter(name).value for name in cls.NAMES}
        values["plan.rules_fired"] = registry.labeled_counter(
            "plan.rules_fired"
        ).total
        for name in ("wal.fsync.seconds", "txn.lock_wait.seconds"):
            values[name] = registry.histogram(name).sum
        return values

    def delta(self) -> dict:
        now = self._read()
        return {name: now[name] - self.start[name] for name in now}


def per_layer(trace, tally: Tally, untraced: Tally, counts: dict,
              phases: dict) -> dict:
    """The per-layer metrics of the traced phase."""
    inclusive, own, spans = trace.totals()
    extra = trace.counts
    ops = max(tally.completed, 1)
    reads = max(len(tally.read_ms), 1)
    commits = max(len(tally.commit_ms), 1)
    statements = max(counts["sql.statements"], 1)
    xqueries = max(spans.get("archis.xquery", 0), 1)
    freezes = counts["clustering.segments_frozen"]

    def ms(total_seconds: float, per: float) -> float:
        return total_seconds * 1000.0 / per

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = counts["buffer.hits"]
    lookups = hits + counts["buffer.misses"]
    cache = counts["translator.cache_hits"] + counts["translator.cache_misses"]
    plan_seconds = sum(
        inclusive.get(name, 0.0)
        for name in ("plan.build", "plan.rules", "plan.compile")
    )
    values = {
        "server.wire_ms_per_op": (ms(
            inclusive.get("client.request", 0.0)
            - inclusive.get("server.request", 0.0), ops), "ms"),
        "server.encode_ms_per_op": (ms(
            inclusive.get("server.encode", 0.0)
            + inclusive.get("server.send", 0.0), ops), "ms"),
        "server.response_bytes_per_read": (
            extra["client.bytes_received"] / reads, "bytes"),
        "sql.parse_ms_per_stmt": (
            ms(inclusive.get("sql.parse", 0.0), statements), "ms"),
        "plan.optimize_ms_per_stmt": (ms(plan_seconds, statements), "ms"),
        "plan.rules_fired_per_stmt": (
            counts["plan.rules_fired"] / statements, "count"),
        "plan.execute_ms_per_stmt": (
            ms(own.get("plan.execute", 0.0) + own.get("sql.execute", 0.0),
               statements), "ms"),
        "sql.rows_scanned_per_row_returned": (ratio(
            counts["sql.rows_scanned"], counts["sql.rows_returned"]), "ratio"),
        "history_fn.calls_per_read": (extra["history_fn.calls"] / reads,
                                      "count"),
        "history_fn.rows_decoded_per_read": (
            extra["history_fn.rows_decoded"] / reads, "count"),
        "xquery.translate_ms_per_query": (ms(
            inclusive.get("xquery.translate", 0.0), xqueries), "ms"),
        "translator.cache_hit_ratio": (
            ratio(counts["translator.cache_hits"], cache), "ratio"),
        "xml.serialize_ms_per_query": (ms(
            inclusive.get("xml.serialize", 0.0)
            + inclusive.get("xquery.post", 0.0), xqueries), "ms"),
        "blockzip.blocks_decompressed_per_query": (
            counts["blockzip.blocks_decompressed"] / reads, "count"),
        "blockzip.decompress_ms_per_query": (ms(
            inclusive.get("blockzip.decompress", 0.0), reads), "ms"),
        "blockzip.rows_used_per_row_decompressed": (ratio(
            extra["blockzip.rows_used"], extra["blockzip.rows_decompressed"]),
            "ratio"),
        "buffer.hit_ratio": (ratio(hits, lookups), "ratio"),
        "pager.reads_per_op": (counts["pager.reads"] / ops, "count"),
        "wal.bytes_per_commit": (counts["wal.bytes"] / commits, "bytes"),
        "wal.fsyncs_per_commit": (counts["wal.fsyncs"] / commits, "count"),
        "wal.fsync_ms_per_commit": (
            ms(counts["wal.fsync.seconds"], commits), "ms"),
        "persistence.sidecar_bytes_per_commit": (
            extra["persistence.sidecar_bytes"] / commits, "bytes"),
        "txn.commit_ms_per_commit": (
            ms(inclusive.get("txn.commit", 0.0), commits), "ms"),
        "txn.lock_wait_ms_per_txn": (
            ms(counts["txn.lock_wait.seconds"], commits), "ms"),
        "txn.snapshot_reconstructions_per_read": (
            counts["txn.snapshot.reconstructions"] / reads, "count"),
        "archive.apply_ms_per_commit": (ms(
            own.get("archis.apply_log", 0.0)
            + own.get("archis.batch_apply", 0.0), commits), "ms"),
        "archive.changes_applied_per_commit": (
            counts["tracker.changes_applied"] / commits, "count"),
        "clustering.freezes": (freezes, "count"),
        "clustering.freeze_ms_per_freeze": (ms(
            inclusive.get("archis.freeze", 0.0), max(freezes, 1)), "ms"),
        "clustering.rows_rewritten_per_freeze": (
            counts["clustering.rows_rewritten"] / max(freezes, 1), "count"),
        "setup.load_s": (phases["setup.load_s"], "s"),
        "setup.archive_s": (phases["setup.archive_s"], "s"),
        "setup.compress_s": (phases["setup.compress_s"], "s"),
        "setup.save_s": (phases["setup.save_s"], "s"),
        "obs.trace_overhead_ratio": (
            (tally.completed / tally.seconds)
            / (untraced.completed / untraced.seconds), "ratio"),
    }
    return values


# -- the run ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="history and round sizes (tiny: the smoke self-test)",
    )
    args = parser.parse_args(argv)
    import_program()

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    os.makedirs(RUNS, exist_ok=True)
    work = os.path.join(RUNS, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    archives: list = []
    try:
        return run(args, workload, size, work, archives)
    finally:
        for archive in archives:
            archive.stop()
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, size, work: str, archives: list) -> int:
    model = build_model(size)
    variant = build_model(size, keep_one_day_versions=True)
    loaded_user_bytes = model.user_bytes
    reps = 1 if args.trace or args.size == "tiny" else SETUP_REPS
    setups = []
    for rep in range(reps):
        if archives:
            archives.pop().stop()
        ticks = cpu_ticks()
        archive = build_archive(
            workload, size, os.path.join(work, f"setup{rep}")
        )
        archives.append(archive)
        setups.append((steal_share(ticks, cpu_ticks()), archive.seconds))
    archive = archives[-1]
    if archive.manager.stable_day() != model.last_day:
        print(f"archive day {archive.manager.stable_day()} != model day "
              f"{model.last_day}", file=sys.stderr)
        return 1

    stream = OpStream(workload, args.seed, model)
    runner = Runner(workload, archive, model, variant, stream)
    loop_counters = LoopCounters()
    seconds = args.seconds / 2 if args.trace else args.seconds
    floor = max(1, size.min_rounds // 2) if args.trace else size.min_rounds
    rounds = max(floor, round(seconds * workload.rounds_per_second))
    ticks = cpu_ticks()
    untraced = runner.loop(rounds)
    loop_delta = loop_counters.delta()
    fingerprint = {name: loop_delta[name] for name in FINGERPRINT_COUNTERS}
    steal = steal_share(ticks, cpu_ticks())
    tallies = [untraced]
    traced = trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace()
        runner.trace = trace
        traced_counters = LoopCounters()
        trace.install(archive.archis)
        try:
            traced = runner.loop(rounds)
        finally:
            trace.uninstall()
            runner.trace = None
        traced_delta = traced_counters.delta()
        tallies.append(traced)

    # -- checks, outside the timed loops --
    problems = []
    departures = Counter()
    for tally in tallies:
        problems.extend(f"unexpected failure: {e}" for e in tally.errors)
        problems.extend(tally.wrong)
        departures.update(tally.departures)
    found, departures["properties"] = property_checks(runner, args.seed)
    problems.extend(found)
    archive.stop()
    disk_bytes = directory_bytes(os.path.dirname(archive.path))
    if workload.name == "archive_under_updates":
        found, departures["reopen"] = reopen_check(archive.path, model,
                                                   variant)
        problems.extend(found)

    attempted = Counter()
    failed = Counter()
    for tally in tallies:
        attempted.update(tally.attempted)
        failed.update(tally.failed)

    # -- report --
    print(f"workload {workload.name} seed {args.seed} size {args.size}: "
          f"{size.employees} employees x {size.years} years, "
          f"{workload.ops_per_round()} ops per round")
    for tally, label in zip(tallies, ("untraced", "traced")):
        print(f"{label} loop: {tally.rounds} rounds in {tally.seconds:.2f}s, "
              f"{tally.completed} ops completed")
    for cls in sorted(attempted):
        samples = [ms for t in tallies for ms in t.class_ms.get(cls, [])]
        p50 = f"{statistics.median(samples):.3f} ms" if samples else "-"
        print(f"  op {cls:<18} attempted {attempted[cls]:>6} "
              f"failed {failed[cls]:>6}  p50 {p50}")
    key = (f"{workload.name}|{args.seed}|{args.size}|{rounds}|"
           f"{source_digest()}")
    # a virtual machine's host can take its CPUs away (steal); timings
    # taken while it does so are slower by about that share
    print(f"host CPU steal during the untraced loop: "
          f"{100.0 * steal:.1f}% of the machine's CPU time")
    print("untraced loop counts: " + ", ".join(
        f"{name} {loop_delta[name]:g}" for name in (
            "wal.bytes", "wal.fsyncs", "wal.checkpoints",
            "clustering.segments_frozen", "tracker.changes_applied",
            "blockzip.blocks_decompressed", "buffer.misses",
            "txn.snapshot.reconstructions")))
    expected = {}
    for tally in tallies:
        expected.update(tally.expected)
    for cls in sorted(expected):
        print(f"expected failure, first seen: {expected[cls][:300]}")
    # answers that agree with the model once a change and a leave of one
    # employee on one day keep the changed version for that day
    print("one-day-version departures: " + (", ".join(
        f"{cls} {n}" for cls, n in sorted(departures.items()) if n
    ) or "none"))
    print(f"inputs: {runner.inputs_digest}")
    print(f"untraced loop fingerprint "
          f"{json.dumps(fingerprint, sort_keys=True)}")
    print(f"determinism: {compare_fingerprint(key, fingerprint)}")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... {len(problems) - 20} more")

    write_bytes = loop_delta["wal.bytes"]
    e2e, notes = end_to_end(
        workload, size, untraced, setups, write_bytes, disk_bytes,
        model.user_bytes,
    )
    if args.trace:
        print("untraced half, end to end: " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in e2e.items()
        ))
        values = per_layer(trace, traced, untraced, traced_delta,
                           archive.phases)
        layers = trace.layer_seconds()
        busy = sum(layers.values())
        print(f"traced time by layer ({traced.completed} ops, "
              f"{traced.seconds:.2f}s loop, {busy:.2f}s in spans):")
        for layer, layer_seconds in sorted(layers.items(),
                                           key=lambda kv: -kv[1]):
            print(f"  {layer:<22} {layer_seconds * 1000 / traced.completed:9.3f}"
                  f" ms/op  {100 * layer_seconds / traced.seconds:5.1f}%")
        spans_path = os.path.join(
            RUNS, f"spans-{workload.name}-{args.seed}.jsonl"
        )
        print(f"{trace.write(spans_path)} span trees written to {spans_path}")
    else:
        values = e2e
        for note in notes:
            print(note)
        print(f"setup runs: {', '.join(f'{s:.3f}s' for _, s in setups)}; "
              f"user bytes loaded {loaded_user_bytes}, written "
              f"{model.user_bytes - loaded_user_bytes}")
    result = {
        "correct": not problems,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
