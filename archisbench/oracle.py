"""An interval model of the employee history: the benchmark's answer oracle.

The model is built only from the benchmark's own inputs: the generated
event stream that set-up loads, and every write the timed loop had
acknowledged, stamped with the commit day the server returned.  It keeps
one list of ``[value, tstart, tend]`` intervals per (attribute, key), with
closed day-granularity intervals: a change committed on day ``W`` closes
the previous version at ``W - 1`` and opens the new one at ``W``; an open
version ends at :data:`FOREVER` (9999-12-31).  A version opened and closed
on the same day is empty and dropped; a second change of one attribute on
one day replaces that day's version.  The benchmark's own writes never
touch one key twice on one day (every commit gets a day of its own).

The program departs from this rule in one case: when an employee's
attribute changes and the employee leaves on the same day, it keeps the
new version for that one day ``[d, d]`` although the key's own lifetime
ends on ``d - 1``.  ``IntervalModel(keep_one_day_versions=True)`` models
that departure, so that the benchmark can name and count the answers it
touches instead of taking them for other faults; the oracle itself is the
default model.

It follows the sequenced semantics of "Querying and Manipulating Temporal
Databases": a query asked through a snapshot pinned at day ``S`` sees the
versions that started on or before ``S``, and a version still open at
``S`` reads as open even if a later commit closed it.  So one model, built
to the end of a run, answers every read of the run by re-rendering it at
that read's snapshot day.

Nothing here imports the program under test.
"""

from __future__ import annotations

import datetime
from collections import defaultdict

EPOCH = datetime.date(1970, 1, 1)

#: the end-of-time day (9999-12-31) that open versions carry
FOREVER = (datetime.date(9999, 12, 31) - EPOCH).days

#: tracked attributes of the employee relation, in column order
ATTRIBUTES = ("name", "salary", "title", "deptno")


def day_of(text: str) -> int:
    """``YYYY-MM-DD`` (9999-12-31 for open) to days since 1970-01-01."""
    return (datetime.date.fromisoformat(text) - EPOCH).days


def date_of(day: int) -> str:
    return (EPOCH + datetime.timedelta(days=day)).isoformat()


def user_bytes(values) -> int:
    """User bytes a write carries: UTF-8 length of each value's text."""
    return sum(len(str(value).encode("utf-8")) for value in values)


class IntervalModel:
    """Replays hires, updates and leaves into per-key interval lists."""

    def __init__(self, keep_one_day_versions: bool = False) -> None:
        #: close a version opened on the closing day at that day instead
        #: of dropping it (the program's departure, see the module doc)
        self.keep_one_day_versions = keep_one_day_versions
        #: attribute ("id" for the key's own lifetime) -> key -> intervals
        self.intervals: dict[str, dict[int, list[list]]] = {
            attribute: defaultdict(list) for attribute in ("id",) + ATTRIBUTES
        }
        #: key -> current values of the keys alive now
        self.alive: dict[int, dict] = {}
        #: keys in hire order (alive or not)
        self.keys: list[int] = []
        self.last_day = 0
        self.user_bytes = 0

    # -- replay ----------------------------------------------------------

    def _open(self, attribute: str, key: int, value, day: int) -> None:
        self.intervals[attribute][key].append([value, day, FOREVER])

    def _close(self, attribute: str, key: int, day: int) -> None:
        """End the open version on ``day - 1``; drop it if it opened on
        ``day`` (or, modelling the departure, keep it for ``[day, day]``)."""
        versions = self.intervals[attribute][key]
        if not versions or versions[-1][2] != FOREVER:
            raise ValueError(f"no open {attribute} version of key {key}")
        if versions[-1][1] < day:
            versions[-1][2] = day - 1
        elif self.keep_one_day_versions:
            versions[-1][2] = day
        else:
            versions.pop()

    def hire(self, key: int, values: dict, day: int) -> None:
        if key in self.alive or key in self.intervals["id"]:
            raise ValueError(f"key {key} hired twice")
        self._open("id", key, key, day)
        for attribute in ATTRIBUTES:
            self._open(attribute, key, values[attribute], day)
        self.alive[key] = {a: values[a] for a in ATTRIBUTES}
        self.keys.append(key)
        self.last_day = max(self.last_day, day)
        self.user_bytes += user_bytes([key] + [values[a] for a in ATTRIBUTES])

    def update(self, key: int, attribute: str, value, day: int) -> None:
        current = self.alive[key]
        if current[attribute] == value:
            raise ValueError(f"key {key}: {attribute} update changes nothing")
        versions = self.intervals[attribute][key]
        if versions[-1][1] == day:
            # a second change on one day replaces that day's version
            versions[-1][0] = value
        else:
            self._close(attribute, key, day)
            self._open(attribute, key, value, day)
        current[attribute] = value
        self.last_day = max(self.last_day, day)
        self.user_bytes += user_bytes([key, value])

    def leave(self, key: int, day: int) -> None:
        del self.alive[key]
        for attribute in ("id",) + ATTRIBUTES:
            self._close(attribute, key, day)
        self.last_day = max(self.last_day, day)
        self.user_bytes += user_bytes([key])

    def apply_event(self, op: str, key: int, payload: dict, day: int) -> None:
        """One generator event (``hire``/``raise``/``title``/``move``/
        ``leave``) or one acknowledged write of the same kinds."""
        if op == "hire":
            self.hire(key, payload, day)
        elif op == "leave":
            self.leave(key, day)
        else:
            ((attribute, value),) = payload.items()
            self.update(key, attribute, value, day)

    # -- the view at a snapshot day -------------------------------------

    @staticmethod
    def _seen(versions, snapshot: int):
        """Versions visible at ``snapshot``, with their rendered ``tend``."""
        for value, tstart, tend in versions:
            if tstart <= snapshot:
                yield value, tstart, tend if tend <= snapshot else FOREVER

    def versions(self, attribute: str, key: int, snapshot: int) -> list:
        """``(value, tstart, tend)`` of one key, in start order."""
        return list(self._seen(self.intervals[attribute].get(key, ()), snapshot))

    def all_versions(self, attribute: str, snapshot: int):
        """``(key, value, tstart, tend)`` of every key."""
        for key, versions in self.intervals[attribute].items():
            for value, tstart, tend in self._seen(versions, snapshot):
                yield key, value, tstart, tend

    def as_of(self, attribute: str, key: int, day: int, snapshot: int) -> list:
        """Rows of ``FOR SYSTEM_TIME AS OF day WHERE id = key``."""
        return [
            (key, value)
            for value, tstart, tend in self.versions(attribute, key, snapshot)
            if tstart <= day <= tend
        ]

    def key_history(
        self, attribute: str, key: int, start: int, end: int, snapshot: int
    ) -> list:
        """Rows of ``FOR SYSTEM_TIME FROM start TO end``: versions that
        overlap the closed-open window, unclipped."""
        return [
            (value, tstart, tend)
            for value, tstart, tend in self.versions(attribute, key, snapshot)
            if tstart < end and tend >= start
        ]

    def current_row(self, key: int, snapshot: int) -> list:
        """The current-table row of ``key`` at ``snapshot`` (or none)."""
        lifetime = self.versions("id", key, snapshot)
        if not lifetime or lifetime[-1][2] != FOREVER:
            return []
        row = [key]
        for attribute in ATTRIBUTES:
            row.append(self.versions(attribute, key, snapshot)[-1][0])
        return [tuple(row)]

    def snapshot_all(self, attribute: str, day: int, snapshot: int) -> list:
        """``(key, value)`` of every key at ``day``, in key order."""
        return sorted(
            (key, value)
            for key, value, tstart, tend in self.all_versions(
                attribute, snapshot
            )
            if tstart <= day <= tend
        )

    def slice_count(
        self, attribute: str, start: int, end: int, above, snapshot: int
    ) -> int:
        """Versions overlapping ``[start, end)`` with value > ``above``."""
        return sum(
            1
            for _, value, tstart, tend in self.all_versions(attribute, snapshot)
            if tstart < end and tend >= start and value > above
        )

    def temporal_join(self, title: str, snapshot: int) -> list:
        """salary ⋈ title on key, intervals intersected, title = ``title``:
        ``(id, salary, title, tstart, tend)`` rows, sorted."""
        rows = []
        for key in self.intervals["salary"]:
            titles = [
                v for v in self.versions("title", key, snapshot) if v[0] == title
            ]
            if not titles:
                continue
            for salary, s_start, s_end in self.versions("salary", key, snapshot):
                for _, t_start, t_end in titles:
                    low, high = max(s_start, t_start), min(s_end, t_end)
                    if low <= high:
                        rows.append((key, salary, title, low, high))
        return sorted(rows)

    def tavg(self, attribute: str, start: int, end: int, snapshot: int) -> list:
        """Time-weighted average over the versions that overlap
        ``[start, end)``: ``(avg, tstart, tend)`` constant periods.

        Each maximal run of days with the same multiset average is one
        period; days where no version is live end a run.
        """
        chosen = [
            (value, tstart, tend)
            for _, value, tstart, tend in self.all_versions(attribute, snapshot)
            if tstart < end and tend >= start
        ]
        points = sorted(
            {tstart for _, tstart, _ in chosen}
            | {tend + 1 for _, _, tend in chosen}
        )
        periods: list[list] = []
        starts: dict[int, list] = defaultdict(list)
        ends: dict[int, list] = defaultdict(list)
        for value, tstart, tend in chosen:
            starts[tstart].append(value)
            ends[tend + 1].append(value)
        total = 0
        count = 0
        for index, point in enumerate(points[:-1]):
            for value in ends.get(point, ()):
                total -= value
                count -= 1
            for value in starts.get(point, ()):
                total += value
                count += 1
            if count == 0:
                continue
            average = total / count
            last = points[index + 1] - 1
            if periods and periods[-1][0] == average and periods[-1][2] == point - 1:
                periods[-1][2] = last
            else:
                periods.append([average, point, last])
        return [tuple(period) for period in periods]

    # -- the Table 3 queries (over the salary attribute) -----------------

    def q2(self, day: int, snapshot: int) -> float | None:
        values = [
            value
            for _, value, tstart, tend in self.all_versions("salary", snapshot)
            if tstart <= day <= tend
        ]
        return sum(values) / len(values) if values else None

    def q3(self, key: int, snapshot: int) -> list:
        return self.versions("salary", key, snapshot)

    def q4(self, snapshot: int) -> int:
        return sum(1 for _ in self.all_versions("salary", snapshot))

    def _q5_matches(self, above, start: int, end: int, snapshot: int):
        for key, value, tstart, tend in self.all_versions("salary", snapshot):
            if tstart <= end and start <= tend and value > above:
                yield key

    def q5(self, above, start: int, end: int, snapshot: int) -> int:
        """Salary versions over ``above`` overlapping closed [start, end]."""
        return sum(1 for _ in self._q5_matches(above, start, end, snapshot))

    def q5e(self, above, start: int, end: int, snapshot: int) -> int:
        """Distinct employees among the Q5 matches."""
        return len(set(self._q5_matches(above, start, end, snapshot)))

    def q6(self, after: int, window: int, snapshot: int):
        """Largest raise between two salary versions of one employee that
        start ``after`` or later and at most ``window`` days apart."""
        best = None
        for key in self.intervals["salary"]:
            versions = self.versions("salary", key, snapshot)
            for value_a, start_a, _ in versions:
                if start_a < after:
                    continue
                for value_b, start_b, _ in versions:
                    if start_a < start_b <= start_a + window:
                        increase = value_b - value_a
                        if best is None or increase > best:
                            best = increase
        return best
