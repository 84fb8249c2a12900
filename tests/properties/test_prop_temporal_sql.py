"""Property tests: SQL-native FOR SYSTEM_TIME agrees with every other
time-travel surface, whatever the storage layout.

For random update histories, on unsegmented, segmented and
log-tracked archives alike:

- ``FOR SYSTEM_TIME AS OF d`` returns exactly ``snapshot_rows(d)``;
- ``FOR SYSTEM_TIME FROM lo TO hi`` returns exactly the versions whose
  intervals overlap the closed-open window — the same rows a hand-written
  ``tstart/tend`` predicate selects on the full history.
"""

from hypothesis import given, settings, strategies as st

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database


def build_variants():
    variants = []
    for label, overrides in (
        ("unsegmented", dict(umin=None)),
        ("segmented", dict(umin=0.5)),
        ("atlas", dict(profile="atlas")),
    ):
        db = Database()
        db.set_date("1990-01-01")
        db.create_table(
            "item",
            [("id", ColumnType.INT), ("price", ColumnType.INT)],
            primary_key=("id",),
        )
        settings_ = dict(profile="db2", min_segment_rows=6)
        settings_.update(overrides)
        archis = ArchIS(db, config=ArchISConfig(**settings_))
        archis.track_table("item", document_name="items.xml")
        variants.append((label, archis))
    return variants


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=6),  # key
        st.integers(min_value=1, max_value=500),  # price
        st.integers(min_value=0, max_value=40),  # days to advance
    ),
    max_size=30,
)


def apply_ops(archis: ArchIS, ops) -> None:
    table = archis.db.table("item")
    live = set()
    for op, key, price, advance in ops:
        archis.db.advance_days(advance)
        if op == "insert":
            if key not in live:
                table.insert((key, price))
                live.add(key)
        elif op == "update":
            if key in live:
                table.update_where(
                    lambda r, k=key: r["id"] == k, {"price": price}
                )
        elif op == "delete":
            if key in live:
                table.delete_where(lambda r, k=key: r["id"] == k)
                live.discard(key)
    archis.apply_pending()


@settings(max_examples=10, deadline=None)
@given(operations, st.integers(min_value=0, max_value=1200))
def test_as_of_matches_snapshot_rows_on_every_layout(ops, offset):
    for label, archis in build_variants():
        apply_ops(archis, ops)
        date = archis.db.current_date - offset
        if date < 0:
            return
        got = archis.sql(
            "SELECT t.id, t.price FROM item_price t "
            "FOR SYSTEM_TIME AS OF :d ORDER BY t.id, t.price",
            {"d": date},
        ).rows
        want = sorted(
            (row[0], row[1])
            for row in archis.snapshot_rows("item", "price", date).rows
        )
        assert [tuple(r) for r in got] == want, label


@settings(max_examples=10, deadline=None)
@given(
    operations,
    st.integers(min_value=0, max_value=1200),
    st.integers(min_value=1, max_value=400),
)
def test_from_to_matches_manual_window_on_every_layout(ops, start, width):
    lo, hi = start, start + width
    expected = None
    for label, archis in build_variants():
        apply_ops(archis, ops)
        got = archis.sql(
            "SELECT t.id, t.price, t.tstart, t.tend FROM item_price t "
            "FOR SYSTEM_TIME FROM :lo TO :hi "
            "ORDER BY t.id, t.tstart, t.price",
            {"lo": lo, "hi": hi},
        ).rows
        spelled = archis.sql(
            "SELECT t.id, t.price, t.tstart, t.tend FROM item_price t "
            "WHERE t.tstart < :hi AND t.tend >= :lo "
            "ORDER BY t.id, t.tstart, t.price",
            {"lo": lo, "hi": hi},
        ).rows
        assert got == spelled, label
        if expected is None:
            expected = got
        else:
            # every storage layout answers the same window identically
            assert got == expected, label
