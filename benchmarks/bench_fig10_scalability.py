"""Fig. 10: scalability — 7x data, query time grows ~linearly.

Paper: on a 7x dataset most query times grow approximately linearly;
single-object queries (Q1/Q3) grow much less, because the id index
isolates them from the archive size.

Run with pytest::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_fig10_scalability.py
"""

import pytest

from repro.bench import (
    averaged,
    build_setup,
    default_queries,
    format_table,
    run_archis_cold,
)

BASE_EMPLOYEES = 20


@pytest.fixture(scope="module")
def scaled_setups():
    small = build_setup(employees=BASE_EMPLOYEES, years=17, scale=1)
    large = build_setup(employees=BASE_EMPLOYEES, years=17, scale=7)
    return small, large


def test_fig10_table(scaled_setups):
    small, large = scaled_setups
    queries_small = default_queries(small.generator)
    queries_large = default_queries(large.generator)
    rows = []
    growth = {}
    for qs, ql in zip(queries_small, queries_large):
        ms = averaged(lambda q=qs: run_archis_cold(small.archis, q), 3)
        ml = averaged(lambda q=ql: run_archis_cold(large.archis, q), 3)
        factor = ml.seconds / max(ms.seconds, 1e-9)
        growth[qs.key] = factor
        rows.append(
            [qs.key, f"{ms.seconds*1000:.1f}", f"{ml.seconds*1000:.1f}",
             f"{factor:.1f}x"]
        )
    print(
        "\n== Fig. 10: query time at 1x vs 7x data (ArchIS) ==\n"
        + format_table(["query", "1x ms", "7x ms", "growth"], rows)
        + "\npaper: most queries grow ~linearly (<=7x); Q1/Q3 grow much less"
    )
    # whole-archive queries: at most modestly super-linear
    for key in ("Q2", "Q4", "Q5"):
        assert growth[key] < 7 * 2.5, (
            f"{key} grew {growth[key]:.1f}x on 7x data (super-linear)"
        )
    # single-object queries grow much less than the data
    for key in ("Q1", "Q3"):
        assert growth[key] < 7, (
            f"{key} (single object) grew {growth[key]:.1f}x"
        )


def test_archive_size_scales_linearly(scaled_setups):
    small, large = scaled_setups
    small_rows = small.archis.db.table("employee_salary").row_count
    large_rows = large.archis.db.table("employee_salary").row_count
    ratio = large_rows / small_rows
    assert 4 < ratio < 10, f"7x population gave {ratio:.1f}x history rows"
