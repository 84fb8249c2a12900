"""End-to-end temporal SQL on the archive: ArchIS.sql / explain_sql.

The SQL-native FOR SYSTEM_TIME path must agree with the engine's other
time-travel surfaces (``snapshot_rows``, the ``history_`` functions) on
single and segmented stores — and the plans must show the paper's
access-path work (segment restriction) actually firing.
"""

import pytest

from repro import ArchIS, ArchISConfig
from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.util.timeutil import parse_date


def build(**overrides):
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    settings = dict(min_segment_rows=8)
    settings.update(overrides)
    archis = ArchIS(db, config=ArchISConfig(**settings))
    archis.track_table("employee", document_name="employees.xml")
    return archis


def churn(archis, employees=9, rounds=6):
    emp = archis.db.table("employee")
    for i in range(employees):
        emp.insert((i, f"e{i}", 1000 + i))
    for round_no in range(rounds):
        archis.db.advance_days(30)
        for i in range(employees):
            emp.update_where(
                lambda r, i=i: r["id"] == i,
                {"salary": 2000 + round_no * 100 + i},
            )
    archis.apply_pending()


AS_OF = "1995-02-15"


def as_of_sql(date=AS_OF):
    return (
        "SELECT t.id, t.salary FROM employee_salary t "
        f"FOR SYSTEM_TIME AS OF DATE '{date}' ORDER BY t.id"
    )


class TestAsOfAgainstSnapshots:
    def test_matches_snapshot_rows(self):
        archis = build()
        churn(archis)
        got = archis.sql(as_of_sql()).rows
        want = sorted(
            (row[0], row[1])
            for row in archis.snapshot_rows(
                "employee", "salary", parse_date(AS_OF)
            ).rows
        )
        assert [tuple(r) for r in got] == want
        keyed = archis.sql(
            "SELECT t.id, t.salary FROM employee_salary t "
            f"FOR SYSTEM_TIME AS OF DATE '{AS_OF}' WHERE t.id = 3"
        ).rows
        assert [tuple(r) for r in keyed] == [w for w in want if w[0] == 3]

    def test_segmented_plan_restricts_segments(self):
        archis = build()
        churn(archis)
        explained = archis.explain_sql(as_of_sql())
        assert explained.result_count == 9
        assert any(
            "segment-restriction" in rule for rule in explained.plan.rules
        )

    def test_non_select_delegates_to_the_database(self):
        archis = build()
        churn(archis)
        result = archis.sql("SELECT count(*) FROM employee")
        assert result.rows == [(9,)]


class TestTemporalOperatorsOnArchive:
    def test_temporal_join_across_attributes(self):
        archis = build()
        churn(archis)
        rows = archis.sql(
            "SELECT a.id, a.salary, b.name, a.tstart, a.tend "
            "FROM employee_salary a TEMPORAL JOIN employee_name b "
            "ON a.id = b.id WHERE a.id = 1 ORDER BY a.tstart"
        ).rows
        assert rows  # every salary version pairs with the stable name
        assert all(row[2] == "e1" for row in rows)
        starts = [row[3] for row in rows]
        assert starts == sorted(starts)

    def test_tavg_matches_xquery_temporal_aggregate(self):
        archis = build()
        churn(archis)
        sql_rows = archis.sql(
            "SELECT tavg(t.salary) FROM employee_salary t"
        ).rows
        xml = archis.xquery(
            'for $s in doc("employees.xml")/employees/employee/salary '
            "return tavg($s)"
        ).rows
        assert len(sql_rows) == len(xml)
        from repro.util.timeutil import parse_date as pd

        for (value, tstart, tend), element in zip(sql_rows, xml):
            assert float(element.children[0].value) == pytest.approx(value)
            assert pd(element.get("tstart")) == tstart

    def test_temporal_metrics_flow(self):
        archis = build()
        churn(archis)
        registry = get_registry()
        queries = registry.counter("temporal.queries")
        before = queries.value
        archis.sql(as_of_sql())
        assert queries.value == before + 1
