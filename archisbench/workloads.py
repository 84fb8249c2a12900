"""The three workloads: archive shape, and the fixed rounds of operations.

Every seed loads the same generated history (:data:`HISTORY_SEED`), so
set-up does the same work in every run.  A run then repeats whole
*rounds*.  Every round of a workload holds the same number of operations
of each class, so the share of each class — and of the one expected
failure — is the same in every run whatever its length or seed.  The
seed picks, within a round, the order of the operations, their keys,
days, thresholds and new values, and the hires and leaves.

Write transactions follow the employee generator's Section 8.4 event mix
(raises, title changes, department moves, hires, leaves).  The op stream
keeps its own copy of who is employed, so a round's later operations stay
valid after its earlier writes; the interval model is only updated from
acknowledged commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import ATTRIBUTES, FOREVER, date_of

#: employee titles and departments, as the history generator uses them
TITLES = (
    "Assistant Engineer",
    "Engineer",
    "Sr Engineer",
    "TechLeader",
    "Manager",
    "Sr Manager",
)
DEPARTMENTS = tuple(f"d{n:03d}" for n in range(1, 10))

#: the history generator starts every employee history on 1985-01-01
HISTORY_START = 5479

#: generator seed of the loaded history (the generator's own default)
HISTORY_SEED = 20060403

# -- statement texts (one text per class, reused: values are bound) -------

ASOF_SQL = (
    "SELECT t.id, t.salary FROM employee_salary t "
    "FOR SYSTEM_TIME AS OF :d WHERE t.id = :k"
)
HISTORY_SQL = (
    "SELECT t.salary, t.tstart, t.tend FROM employee_salary t "
    "FOR SYSTEM_TIME FROM :a TO :b WHERE t.id = :k ORDER BY t.tstart"
)
CURRENT_SQL = (
    "SELECT id, name, salary, title, deptno FROM employee WHERE id = :k"
)
UPDATE_SQL = {
    attribute: f"UPDATE employee SET {attribute} = :v WHERE id = :k"
    for attribute in ATTRIBUTES
}
INSERT_SQL = (
    "INSERT INTO employee VALUES (:k, :name, :salary, :title, :deptno)"
)
DELETE_SQL = "DELETE FROM employee WHERE id = :k"

#: HAVING is not implemented yet (SqlSyntaxError near 'having'): this
#: text fails on every run.  Its inputs are constants, not seed-drawn,
#: so its share of failed operations is exact.
HAVING_DAY = HISTORY_START + 365
HAVING_ABOVE = 1
HAVING_SQL = (
    "SELECT t.deptno, count(*) FROM employee_deptno t "
    f"FOR SYSTEM_TIME AS OF {HAVING_DAY} GROUP BY t.deptno "
    f"HAVING count(*) > {HAVING_ABOVE}"
)

#: Q6's window, as in the paper's Table 3
Q6_WINDOW = 730


@dataclass
class Op:
    """One client operation: a read (one statement) or a write
    transaction (BEGIN, 1–3 statements, COMMIT)."""

    cls: str
    kind: str  # "read" or "write"
    text: str = ""
    lang: str = "sql"  # "sql" or "xquery"
    params: dict | None = None
    #: oracle arguments for a read; (op, key, payload) per statement of
    #: a write, replayed into the model at the commit day
    args: tuple = ()
    stmts: list = field(default_factory=list)


@dataclass(frozen=True)
class Size:
    """History and round shape of one workload at one size."""

    employees: int
    years: int
    #: fewest rounds a run does; the tail percentiles are fixed from half
    #: of it (the fewest rounds a run times)
    min_rounds: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: Database buffer pool, in 4 KiB pages
    buffer_pages: int
    compress: bool
    encoding: str
    sizes: dict
    #: read classes per round (class -> count) and write transactions
    reads: dict
    writes: int
    #: statements per write transaction: (low, high)
    stmts_per_write: tuple
    #: share of writes that hire or fire (the rest update one attribute)
    churn: float
    #: rounds per second of ``--seconds``: a full-size round takes about
    #: 1 / rounds_per_second seconds on the reference machine, and a run
    #: does a fixed number of rounds so that its work, freezes and bytes
    #: written do not depend on how fast the host happens to be
    rounds_per_second: float = 1.0
    expected_failures: frozenset = frozenset()

    def ops_per_round(self) -> int:
        return sum(self.reads.values()) + self.writes

    def reads_per_round(self) -> int:
        return sum(
            n for cls, n in self.reads.items()
            if cls not in self.expected_failures
        )


TABLE3_READS = (
    "q2", "q3", "q4", "q5", "q5e", "q6",
    "sql_snapshot", "sql_slice_count", "sql_temporal_join", "sql_tavg",
)

#: Q1 and a windowed ``tavg`` at fixed arguments, read after the probe
#: key's salary update that opens every round.  The probe key's open
#: salary version began inside a segment that set-up froze and BlockZIP
#: compressed; once an update closes it, reads the optimizer restricts to
#: that segment return the compressed copy as still open (tend
#: 9999-12-31).  Their inputs do not depend on the seed, so both fail in
#: every round until the program mends that, and are then checked
#: against the model like any other read.  Seed-drawn Q1 and windowed
#: ``tavg`` would fail on some seeds only, so there are none.
FROZEN_PROBE_READS = ("q1_frozen", "sql_tavg_window")

WORKLOADS = {
    "point_reads": Workload(
        name="point_reads",
        buffer_pages=1024,
        compress=False,
        encoding="json",
        sizes={
            "full": Size(employees=100, years=12, min_rounds=14),
            "tiny": Size(employees=12, years=3, min_rounds=1),
        },
        reads={"asof": 16, "key_history": 16, "current_row": 16},
        rounds_per_second=1.2,
        writes=8,
        stmts_per_write=(1, 1),
        churn=0.0,
    ),
    "table3_analytics": Workload(
        name="table3_analytics",
        buffer_pages=16,
        compress=True,
        encoding="binary",
        sizes={
            "full": Size(employees=100, years=12, min_rounds=8),
            "tiny": Size(employees=12, years=3, min_rounds=1),
        },
        reads={
            **{cls: 2 for cls in TABLE3_READS},
            **{cls: 1 for cls in FROZEN_PROBE_READS},
            "having": 1,
        },
        rounds_per_second=0.6,
        writes=16,
        stmts_per_write=(1, 1),
        churn=0.0,
        expected_failures=frozenset({"having", *FROZEN_PROBE_READS}),
    ),
    "archive_under_updates": Workload(
        name="archive_under_updates",
        buffer_pages=1024,
        compress=False,
        encoding="json",
        sizes={
            "full": Size(employees=100, years=12, min_rounds=40),
            "tiny": Size(employees=10, years=2, min_rounds=1),
        },
        reads={"asof": 7, "written_row": 6},
        rounds_per_second=2.0,
        writes=20,
        stmts_per_write=(1, 3),
        churn=0.25,
    ),
}


def tail_percentile(samples_at_least: int) -> float:
    """The highest of a few fixed percentiles that leaves at least ten
    samples above it, for the fewest samples a run can take."""
    for percentile in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0,
                       75.0):
        if samples_at_least * (100.0 - percentile) / 100.0 >= 10.0:
            return percentile
    return 50.0


class OpStream:
    """Generates the rounds of one workload from a seed.

    Keeps its own view of the current employees (planned state): the
    writes a round generates are applied to it at once, so every later
    operation of the round addresses rows that will exist.
    """

    def __init__(self, workload: Workload, seed: int, model) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.alive = {key: dict(values) for key, values in model.alive.items()}
        #: key -> [hire day, last day alive or None], for keys whose
        #: hire day is known (committed before the current round)
        self.lifetime = {}
        for key, versions in model.intervals["id"].items():
            _, tstart, tend = versions[-1]
            self.lifetime[key] = [tstart, None if tend == FOREVER else tend]
        self.next_key = max(model.keys) + 1
        self.population = len(self.alive)
        #: on a workload with FROZEN_PROBE_READS: the alive key whose open
        #: salary version began earliest, and that day; only the probe
        #: write that opens every round changes it
        self.probe_key = self.probe_day = None
        if set(FROZEN_PROBE_READS) & set(workload.reads):
            self.probe_day, self.probe_key = min(
                (model.intervals["salary"][key][-1][1], key)
                for key in self.alive
            )

    # -- planned-state helpers -------------------------------------------

    def _known_keys(self, day_limit: int) -> list:
        return [
            key for key, (hired, _) in self.lifetime.items()
            if hired <= day_limit
        ]

    def _key_and_day(self, last_day: int) -> tuple:
        """A key and a day inside that key's known lifetime."""
        keys = sorted(self._known_keys(last_day))
        key = self.rng.choice(keys)
        hired, left = self.lifetime[key]
        end = last_day if left is None else min(left, last_day)
        return key, self.rng.randint(hired, end)

    def _alive_key(self, exclude=()) -> int:
        keys = sorted(k for k in self.alive if k not in exclude)
        return self.rng.choice(keys)

    # -- writes ------------------------------------------------------------

    def _write_stmt(self, touched: set) -> tuple:
        """One DML statement of the event mix, as (sql, params, event)."""
        rng = self.rng
        churn = self.workload.churn
        roll = rng.random()
        if roll < churn / 2 and len(self.alive) < self.population + 3:
            # hires and leaves keep the headcount near its starting size
            key = self.next_key
            self.next_key += 1
            values = {
                "name": f"emp{key}",
                "salary": rng.randrange(30000, 70000, 500),
                "title": rng.choice(TITLES[:3]),
                "deptno": rng.choice(DEPARTMENTS),
            }
            self.alive[key] = dict(values)
            touched.add(key)
            params = {"k": key, **values}
            return INSERT_SQL, params, ("hire", key, values)
        if roll < churn and len(self.alive) > self.population - 3:
            key = self._alive_key(touched)
            del self.alive[key]
            touched.add(key)
            return DELETE_SQL, {"k": key}, ("leave", key, {})
        key = self._alive_key(touched)
        touched.add(key)
        state = self.alive[key]
        kind = rng.random()
        if kind < 0.7 or state["title"] == TITLES[-1] and kind < 0.85:
            attribute = "salary"
            value = int(state["salary"] * rng.uniform(1.02, 1.09))
        elif kind < 0.85:
            attribute = "title"
            value = TITLES[TITLES.index(state["title"]) + 1]
        else:
            attribute = "deptno"
            value = rng.choice(
                [d for d in DEPARTMENTS if d != state["deptno"]]
            )
        state[attribute] = value
        return (
            UPDATE_SQL[attribute],
            {"v": value, "k": key},
            ("update", key, {attribute: value}),
        )

    def _write(self) -> Op:
        low, high = self.workload.stmts_per_write
        touched: set = {self.probe_key} - {None}
        stmts = [
            self._write_stmt(touched)
            for _ in range(self.rng.randint(low, high))
        ]
        return Op(cls="write", kind="write", stmts=stmts)

    def _probe_write(self) -> Op:
        """A 5% raise of the probe key (the same in every run)."""
        key = self.probe_key
        value = int(self.alive[key]["salary"] * 1.05)
        self.alive[key]["salary"] = value
        return Op(cls="write", kind="write", stmts=[(
            UPDATE_SQL["salary"], {"v": value, "k": key},
            ("update", key, {"salary": value}),
        )])

    # -- reads -------------------------------------------------------------

    def _read(self, cls: str, last_day: int, last_written) -> Op:
        rng = self.rng
        if cls == "asof":
            key, day = self._key_and_day(last_day)
            return Op(cls, "read", ASOF_SQL, params={"d": day, "k": key},
                      args=(key, day))
        if cls == "key_history":
            key = rng.choice(sorted(self._known_keys(last_day)))
            return Op(cls, "read", HISTORY_SQL,
                      params={"a": 0, "b": FOREVER, "k": key},
                      args=(key, 0, FOREVER))
        if cls == "current_row":
            key = self._alive_key()
            return Op(cls, "read", CURRENT_SQL, params={"k": key},
                      args=(key,))
        if cls == "written_row":
            # the row the most recent write of this round touched (or a
            # random row before any): shows each commit to the next read
            key = last_written if last_written is not None else (
                self._alive_key()
            )
            return Op("current_row", "read", CURRENT_SQL,
                      params={"k": key}, args=(key,))
        if cls == "having":
            return Op(cls, "read", HAVING_SQL,
                      args=(HAVING_DAY, HAVING_ABOVE))
        if cls == "q1_frozen":
            from repro.bench import queries

            key, day = self.probe_key, self.probe_day
            text = queries.q1_snapshot_single(key, date_of(day)).xquery
            return Op(cls, "read", text, "xquery", args=(key, day))
        if cls == "sql_tavg_window":
            start, end = HISTORY_START, self.probe_day + 1
            text = (
                "SELECT tavg(t.salary) FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM {start} TO {end}"
            )
            return Op(cls, "read", text, args=(start, end))
        return self._table3(cls, last_day)

    def _table3(self, cls: str, last_day: int) -> Op:
        """A Table 3 query or temporal SQL scan with literal arguments."""
        from repro.bench import queries  # the paper's query texts

        rng = self.rng
        day = rng.randint(HISTORY_START, last_day)
        start = rng.randint(HISTORY_START, last_day)
        end = rng.randint(start, last_day)
        above = rng.randrange(30000, 90000, 1000)
        if cls == "q3":
            key = rng.choice(sorted(self._known_keys(last_day)))
            text = queries.q3_history_single(key).xquery
            return Op(cls, "read", text, "xquery", args=(key,))
        if cls == "q2":
            text = queries.q2_snapshot_avg(date_of(day)).xquery
            return Op(cls, "read", text, "xquery", args=(day,))
        if cls == "q4":
            return Op(cls, "read", queries.q4_history_count().xquery,
                      "xquery")
        if cls in ("q5", "q5e"):
            build = (
                queries.q5_slicing if cls == "q5"
                else queries.q5_slicing_employees
            )
            text = build(above, date_of(start), date_of(end)).xquery
            return Op(cls, "read", text, "xquery", args=(above, start, end))
        if cls == "q6":
            after = rng.randint(HISTORY_START, max(HISTORY_START,
                                                   last_day - Q6_WINDOW))
            text = queries.q6_temporal_join(date_of(after), Q6_WINDOW).xquery
            return Op(cls, "read", text, "xquery", args=(after, Q6_WINDOW))
        if cls == "sql_snapshot":
            text = (
                "SELECT t.id, t.salary FROM employee_salary t "
                f"FOR SYSTEM_TIME AS OF {day} ORDER BY t.id"
            )
            return Op(cls, "read", text, args=(day,))
        if cls == "sql_slice_count":
            text = (
                "SELECT count(*) FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM {start} TO {end + 1} "
                f"WHERE t.salary > {above}"
            )
            return Op(cls, "read", text, args=(start, end + 1, above))
        if cls == "sql_temporal_join":
            title = rng.choice(TITLES)
            text = (
                "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
                "FROM employee_salary a TEMPORAL JOIN employee_title b "
                f"ON a.id = b.id WHERE b.title = '{title}'"
            )
            return Op(cls, "read", text, args=(title,))
        if cls == "sql_tavg":
            text = "SELECT tavg(t.salary) FROM employee_salary t"
            return Op(cls, "read", text, args=(0, FOREVER))
        raise ValueError(f"unknown read class {cls!r}")

    # -- rounds ------------------------------------------------------------

    def next_round(self, last_day: int) -> list:
        """The next round: the workload's fixed class counts, shuffled
        (after the probe write, on a workload that has one).

        ``last_day`` is the session's snapshot day when the round starts;
        every day a read asks about is at or before it.
        """
        ops = []
        last_written = None
        if self.probe_key is not None:
            ops.append(self._probe_write())
            last_written = self.probe_key
        slots = ["write"] * (self.workload.writes - len(ops))
        for cls, count in self.workload.reads.items():
            slots.extend([cls] * count)
        self.rng.shuffle(slots)
        for slot in slots:
            if slot == "write":
                op = self._write()
                last_written = op.stmts[-1][2][1]
                if op.stmts[-1][2][0] == "leave":
                    last_written = None
            else:
                op = self._read(slot, last_day, last_written)
            ops.append(op)
        return ops

    def note_commit(self, op: Op, day: int) -> None:
        """Record the commit day of an acknowledged write."""
        for _, _, (kind, key, _) in op.stmts:
            if kind == "hire":
                self.lifetime[key] = [day, None]
            elif kind == "leave":
                self.lifetime[key][1] = day - 1
