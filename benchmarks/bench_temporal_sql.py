"""Temporal SQL: FOR SYSTEM_TIME and sequenced operators vs the older paths.

Three comparisons over one generated employee history:

1. **AS OF vs the snapshot fast path** — ``SELECT ... FOR SYSTEM_TIME AS
   OF d`` plans through the Section 6.4 segment restriction, so it must
   stay within ``AS_OF_TARGET`` (1.2x) of the hand-built
   ``snapshot_rows`` segment reader on the full run.
2. **TEMPORAL JOIN vs the translated XQuery join** — the first-class
   interval-intersecting hash join against the same join phrased in
   XQuery (id-join + ``toverlaps`` + XML construction); the plan-native
   operator must win on the full run.
3. **Sequenced aggregate vs XQuery tavg** — ``SELECT tavg(...)`` against
   ``return tavg($s)``.  Both now lower into the same SequencedAggregate
   plan node (that was the point of the refactor), so this cell gates
   *parity*: the SQL surface must not cost more than the XQuery surface
   beyond noise.

Answers are cross-checked before any timing is reported.  EXPLAIN
evidence is gated in every mode (including ``--smoke``): the AS OF plan
must show ``segment-restriction`` firing.

Run directly::

    PYTHONPATH=src python benchmarks/bench_temporal_sql.py            # full
    PYTHONPATH=src python benchmarks/bench_temporal_sql.py --smoke    # CI-sized

Emits ``BENCH_temporal_sql.json`` next to this file (``--out``
overrides); exits non-zero on divergent answers, missing plan evidence,
or (full run) missed performance targets.
"""

import argparse
import json
import os
import sys
import time

from repro.bench import build_archis
from repro.util.timeutil import parse_date

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_temporal_sql.json"
)

#: max allowed (SQL-native AS OF) / (snapshot_rows fast path) time ratio
AS_OF_TARGET = 1.2

#: the first-class temporal join must beat the translated XQuery join
JOIN_TARGET = 1.0

#: tavg gates parity only: XQuery tavg lowers into the *same*
#: SequencedAggregate node, so the surfaces differ by constant
#: translate/XML overhead — never by more than noise
TAVG_TARGET = 0.9


def as_of_sql(date: str) -> str:
    return (
        "SELECT t.id, t.salary FROM employee_salary t "
        f"FOR SYSTEM_TIME AS OF DATE '{date}' ORDER BY t.id"
    )


JOIN_SQL = (
    "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
    "FROM employee_salary a TEMPORAL JOIN employee_title b ON a.id = b.id"
)

JOIN_XQUERY = (
    'for $e in doc("employees.xml")/employees/employee '
    "for $s in $e/salary for $t in $e/title "
    "where not(empty(overlapinterval($s, $t))) "
    "return overlapinterval($s, $t)"
)

TAVG_SQL = "SELECT tavg(t.salary) FROM employee_salary t"

TAVG_XQUERY = (
    'for $s in doc("employees.xml")/employees/employee/salary '
    "return tavg($s)"
)


def _time(run, repeats: int) -> float:
    """Best-of-N wall time: robust to scheduler noise on small cells."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _interval_pairs_from_xml(elements):
    return sorted(
        (parse_date(e.get("tstart")), parse_date(e.get("tend")))
        for e in elements
    )


def _check_as_of(archis, date: str):
    sql_rows = [tuple(r) for r in archis.sql(as_of_sql(date)).rows]
    snap_rows = sorted(
        (row[0], row[1])
        for row in archis.snapshot_rows(
            "employee", "salary", parse_date(date)
        ).rows
    )
    return sql_rows == snap_rows, len(sql_rows)


def _check_join(archis):
    sql_rows = archis.sql(JOIN_SQL).rows
    sql_intervals = sorted((row[3], row[4]) for row in sql_rows)
    xml = archis.xquery(JOIN_XQUERY, allow_fallback=False).rows
    return sql_intervals == _interval_pairs_from_xml(xml), len(sql_rows)


def _check_tavg(archis):
    sql_rows = archis.sql(TAVG_SQL).rows
    xml = archis.xquery(TAVG_XQUERY, allow_fallback=False).rows
    if len(sql_rows) != len(xml):
        return False, len(sql_rows)
    for (value, tstart, tend), element in zip(sql_rows, xml):
        if parse_date(element.get("tstart")) != tstart:
            return False, len(sql_rows)
        if abs(float(element.children[0].value) - value) > 1e-6:
            return False, len(sql_rows)
    return True, len(sql_rows)


def _plan_evidence(archis, date: str):
    """EXPLAIN output for the AS OF query on the segmented store."""
    explained = archis.explain_sql(as_of_sql(date))
    rules = list(explained.plan.rules)
    return {
        "rules": rules,
        "segment_restriction_fired": any(
            "segment-restriction" in rule for rule in rules
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload: gates equivalence + plans, not speed",
    )
    parser.add_argument(
        "--out",
        default=RESULTS_PATH,
        help="where to write the JSON results "
        "(default: BENCH_temporal_sql.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        employees, years, scale, repeats = 32, 6, 1, 2
    else:
        employees, years, scale, repeats = 120, 17, 2, 5

    generator, archis, _ = build_archis(
        employees=employees,
        years=years,
        scale=scale,
        umin=0.4,
        min_segment_rows=256,
    )
    date = generator.mid_history_date()
    day = parse_date(date)

    failed = False
    payload = {
        "smoke": args.smoke,
        "employees": employees,
        "years": years,
        "scale": scale,
        "repeats": repeats,
        "as_of_date": date,
        "history_rows": archis.db.table("employee_salary").row_count,
        "cells": {},
    }

    # -- equivalence first: never time wrong answers ---------------------
    checks = {
        "as_of": _check_as_of(archis, date),
        "temporal_join": _check_join(archis),
        "tavg": _check_tavg(archis),
    }
    for name, (ok, size) in checks.items():
        payload["cells"][name] = {"result_size": size, "equivalent": ok}
        if not ok:
            print(f"FAIL: {name} answers diverge", file=sys.stderr)
            failed = True
    if failed:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return 1

    # -- plan evidence (gated in every mode) ----------------------------
    evidence = _plan_evidence(archis, date)
    payload["plan"] = evidence
    if not evidence["segment_restriction_fired"]:
        print(
            "FAIL: AS OF plan did not fire segment-restriction: "
            + "; ".join(evidence["rules"]),
            file=sys.stderr,
        )
        failed = True

    # -- timings ---------------------------------------------------------
    as_of_seconds = _time(lambda: archis.sql(as_of_sql(date)), repeats)
    snapshot_seconds = _time(
        lambda: archis.snapshot_rows("employee", "salary", day), repeats
    )
    ratio = as_of_seconds / max(snapshot_seconds, 1e-9)
    payload["cells"]["as_of"].update(
        {
            "sql_seconds": round(as_of_seconds, 5),
            "snapshot_rows_seconds": round(snapshot_seconds, 5),
            "ratio": round(ratio, 3),
            "target": AS_OF_TARGET,
        }
    )
    print(
        f"as_of: sql {as_of_seconds*1000:.1f} ms vs snapshot_rows "
        f"{snapshot_seconds*1000:.1f} ms ({ratio:.2f}x, target "
        f"<= {AS_OF_TARGET}x)"
    )
    if not args.smoke and ratio > AS_OF_TARGET:
        print(
            f"FAIL: AS OF is {ratio:.2f}x of snapshot_rows "
            f"(target {AS_OF_TARGET}x)",
            file=sys.stderr,
        )
        failed = True

    for name, sql, xquery, target in (
        ("temporal_join", JOIN_SQL, JOIN_XQUERY, JOIN_TARGET),
        ("tavg", TAVG_SQL, TAVG_XQUERY, TAVG_TARGET),
    ):
        sql_seconds = _time(lambda s=sql: archis.sql(s), repeats)
        xq_seconds = _time(
            lambda q=xquery: archis.xquery(q, allow_fallback=False), repeats
        )
        speedup = xq_seconds / max(sql_seconds, 1e-9)
        payload["cells"][name].update(
            {
                "sql_seconds": round(sql_seconds, 5),
                "xquery_seconds": round(xq_seconds, 5),
                "speedup": round(speedup, 2),
                "target": target,
            }
        )
        print(
            f"{name}: sql {sql_seconds*1000:.1f} ms vs xquery "
            f"{xq_seconds*1000:.1f} ms ({speedup:.2f}x, target "
            f">= {target}x)"
        )
        if not args.smoke and speedup < target:
            print(
                f"FAIL: {name} SQL path missed its target vs the XQuery "
                f"equivalent ({speedup:.2f}x < {target}x)",
                file=sys.stderr,
            )
            failed = True

    archis.close()
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
