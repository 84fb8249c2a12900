"""Three-valued logic, checked against stdlib ``sqlite3``.

A comparison with NULL is UNKNOWN; ``NOT``, ``AND``, ``OR``, ``IN``,
``BETWEEN`` and ``LIKE`` must propagate it, and WHERE must drop UNKNOWN
rows.  Each query below runs on both engines over the same NULL-bearing
table and must return the same multiset of rows.
"""

import sqlite3

import pytest

from repro.rdb import Database


def _rows():
    out = []
    for i in range(100):
        k = i % 7
        v = None if i % 3 == 0 else i % 10
        s = None if i % 5 == 0 else "abc"[i % 3] + str(i % 4)
        out.append((i, k, v, s))
    return out


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


@pytest.fixture(scope="module")
def engines():
    values = ", ".join(
        "(" + ", ".join(_literal(x) for x in row) + ")" for row in _rows()
    )
    db = Database()
    db.sql("CREATE TABLE t (id INT, k INT, v INT, s VARCHAR)")
    db.sql(f"INSERT INTO t VALUES {values}")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, k INTEGER, v INTEGER, s TEXT)")
    lite.execute(f"INSERT INTO t VALUES {values}")
    yield db, lite
    lite.close()


WHERE_CLAUSES = [
    "NOT (v > 3)",
    "NOT (v = 1 AND k = 2)",
    "v > 3 OR k = 2",
    "NOT (v > 3 OR k = 2)",
    "NOT (v > 3 AND k < 9)",
    "NOT (v > 3) OR k = 1",
    "NOT (NOT (v <> 4))",
    "v IN (1, 2)",
    "NOT (v IN (1, 2))",
    "v NOT IN (1, 2)",
    "v IN (1, NULL)",
    "v NOT IN (1, NULL)",
    "NOT (v IN (1, NULL))",
    "v BETWEEN 2 AND 6",
    "NOT (v BETWEEN 2 AND 6)",
    "v NOT BETWEEN 2 AND 6",
    "v BETWEEN 2 AND NULL",
    "v NOT BETWEEN 5 AND NULL",
    "v NOT BETWEEN NULL AND 5",
    "NOT (s LIKE 'a%')",
    "s NOT LIKE 'b%'",
    "NOT (v = k)",
    "NOT (v IS NULL) AND NOT (v < 5)",
]


@pytest.mark.parametrize("where", WHERE_CLAUSES)
def test_where_matches_sqlite(engines, where):
    db, lite = engines
    sql = f"SELECT id FROM t WHERE {where}"
    got = sorted(db.sql(sql).rows)
    want = sorted(lite.execute(sql).fetchall())
    assert got == want


def test_not_comparison_drops_null_rows(engines):
    db, _ = engines
    nulls = {row[0] for row in _rows() if row[2] is None}
    kept = {row[0] for row in db.sql("SELECT id FROM t WHERE NOT (v > 3)").rows}
    assert nulls and not kept & nulls


def test_case_when_treats_unknown_as_false(engines):
    db, lite = engines
    sql = (
        "SELECT id, CASE WHEN NOT (v > 3) THEN 1 ELSE 0 END FROM t "
        "ORDER BY id"
    )
    assert db.sql(sql).rows == lite.execute(sql).fetchall()


def test_join_condition_drops_unknown(engines):
    db, lite = engines
    sql = (
        "SELECT a.id, b.id FROM t a, t b "
        "WHERE a.v = b.k AND NOT (a.v > b.k OR b.v > 6)"
    )
    assert sorted(db.sql(sql).rows) == sorted(lite.execute(sql).fetchall())
