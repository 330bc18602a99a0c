"""Pod-wide metrics registry: named, labelled series scraped as flat vectors.

Every subsystem publishes through one registry, two ways:

* **instruments** -- :class:`Counter` / :class:`Histogram` objects created
  through the registry and mutated on the hot path (``inc`` / ``observe``
  are an attribute update);
* **readers** -- bound with :meth:`MetricsRegistry.register` (the
  ``bind_*`` functions of :mod:`repro.obs.bindings`) over counters that live
  elsewhere (``CacheStats``, ``LinkStats``, ...).  Binding is
  observation-only: those objects remain the source of truth.

Identity is separated from value.  A :class:`SeriesTable` interns every
``(name, labels_key)`` to an integer slot exactly once (labels ``host``,
``device``, ``category``, ... are sorted and stringified then, never again);
:meth:`MetricsRegistry.snapshot` fills one flat value vector and wraps it in
a :class:`MetricsSnapshot`, a thin view ``(table, vector, time)``.  Readers
are declared lazily at the first scrape and a :class:`Family` interns members
on first sight, so a pod that never scrapes pays nothing and an older,
shorter vector reads a later series as absent.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "Sample",
    "SeriesTable",
    "Family",
    "MetricsRegistry",
    "MetricsSnapshot",
    "labels_key",
]

#: canonical immutable form of a label set: sorted (key, value) pairs
LabelsKey = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelsKey]


def labels_key(labels: Dict[str, str]) -> LabelsKey:
    """Canonical hashable form of a label dict."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One materialised value: a metric name, its labels, and a number."""

    name: str
    labels: LabelsKey
    value: float


class SeriesTable:
    """Each ``(name, labels_key)`` interned to an integer slot, exactly once.

    Slots are handed out in first-sight order and never reused, so a vector
    taken when the table held ``n`` series covers exactly slots ``[0, n)``.
    A key's label pairs are the table's pooled ``pairs``: one tuple per
    distinct ``(key, value)``, however many series carry it.
    """

    __slots__ = ("keys", "slots", "families", "pairs")

    def __init__(self):
        self.keys: List[SeriesKey] = []               # slot -> key
        self.slots: Dict[SeriesKey, int] = {}
        self.families: Dict[str, List[int]] = {}      # name -> its slots
        self.pairs: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def groups(self, name: str, by: Sequence[str],
               n: int) -> Dict[Tuple[str, ...], List[int]]:
        """Slots below ``n`` of one family, grouped by the ``by`` label
        values; groups and their slots in first-sight order."""
        out: Dict[Tuple[str, ...], List[int]] = {}
        for slot in self.families.get(name, ()):
            if slot >= n:
                break
            labels = dict(self.keys[slot][1])
            out.setdefault(tuple(labels.get(k, "") for k in by),
                           []).append(slot)
        return out


class _Instrument:
    """Base class for registry-owned instruments."""

    kind = "abstract"
    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: LabelsKey, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    def declare(self, series) -> Callable[[list], None]:
        slot = series(self.name, self.labels)

        def read(vector):
            vector[slot] += self.value

        return read


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelsKey, help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not 0 <= amount < inf:
            # NaN fails both comparisons: it would poison every later delta.
            raise ValueError(
                f"counter {self.name} takes a finite amount >= 0, not {amount}")
        self.value += amount


#: default histogram bucket bounds (generic latency-ish scale)
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                   1000.0, 2500.0, 5000.0, 10000.0, float("inf"))


class Histogram(_Instrument):
    """A distribution: cumulative buckets plus count/sum.

    It also retains every observation (``observations``, a packed
    ``array("d")``: 8 B a sample), so experiments can compute *exact*
    percentiles from the registry -- this is what lets Figure 10/11 render
    from the registry while staying numerically identical to the legacy
    hand-pulled lists.
    """

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "count", "sum", "observations")

    def __init__(self, name: str, labels: LabelsKey, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, labels, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.observations = array("d")

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            # A NaN lands in no bucket: _count would outrun +Inf for good.
            raise ValueError(f"histogram {self.name} cannot observe NaN")
        self.count += 1
        self.sum += value
        # First bound >= value; the last bound is +Inf, so always in range.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.observations.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def declare(self, series) -> Callable[[list], None]:
        count = series(f"{self.name}_count", self.labels)
        total = series(f"{self.name}_sum", self.labels)
        buckets = [
            series(f"{self.name}_bucket", self.labels + ((
                "le", "+Inf" if bound == float("inf") else f"{bound:g}"),))
            for bound in self.buckets]

        def read(vector):
            vector[count] += self.count
            vector[total] += self.sum
            cumulative = 0
            for slot, n in zip(buckets, self.bucket_counts):
                cumulative += n
                vector[slot] += cumulative

        return read


#: a histogram's series whose labels are its own (``_bucket`` adds ``le``)
_DERIVED = ("_count", "_sum")


class MetricsSnapshot:
    """A point-in-time view of a registry: ``(table, vector, time)``.

    ``vector[slot]`` is the value of the series the shared table interned
    at ``slot``; series interned later lie beyond the vector and read as
    absent.  Only ``values`` / ``items()`` materialise the
    ``{(name, labels_key): value}`` dict (reports, tests).
    """

    __slots__ = ("table", "vector", "time")

    def __init__(self, table: SeriesTable, vector: Sequence[float],
                 time: float = 0.0):
        self.table = table
        self.vector = vector
        self.time = time

    def __len__(self) -> int:
        return len(self.vector)

    def get(self, name: str, default: float = 0.0, **labels) -> float:
        slot = self.table.slots.get((name, labels_key(labels)))
        if slot is None or slot >= len(self.vector):
            return default
        return self.vector[slot]

    def delta_since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Per-series difference against an earlier snapshot of the same
        table; series absent from ``earlier`` count from zero, as
        ``LinkStats.delta_since``."""
        if earlier.table is not self.table:
            # Slot i names a different series in another registry's table.
            raise ValueError("delta_since needs two snapshots of one registry")
        vector, before = self.vector, earlier.vector
        delta = [now - then for now, then in zip(vector, before)]
        delta.extend(vector[len(before):])
        return MetricsSnapshot(self.table, delta, time=self.time)

    def aggregate(self, name: str,
                  by: Sequence[str] = ()) -> Dict[Tuple[str, ...], float]:
        """Sum series of ``name`` grouped by the given label keys (``by=()``:
        one entry keyed by the empty tuple, the grand total)."""
        vector, out = self.vector, {}
        for group, slots in self.table.groups(name, by, len(vector)).items():
            total = 0.0
            for slot in slots:
                total += vector[slot]
            out[group] = total
        return out

    def total(self, name: str) -> float:
        return self.aggregate(name).get((), 0)

    def names(self) -> List[str]:
        n = len(self.vector)
        return sorted(name for name, family in self.table.families.items()
                      if family[0] < n)

    @property
    def values(self) -> Dict[SeriesKey, float]:
        return dict(zip(self.table.keys, self.vector))


class Family(dict):
    """Slots of a metric family whose members appear at run time, keyed by
    the tuple of label values.  A miss interns the new series, so
    ``vector[family[host, category]] += n`` costs one dict lookup per scrape
    and one ``labels_key`` per series ever."""

    def __init__(self, series, name: str, label_names: Tuple[str, ...]):
        self._series = series
        self.name = name
        self.label_names = label_names

    def __missing__(self, values: tuple) -> int:
        slot = self[values] = self._series(
            self.name, **dict(zip(self.label_names, values)))
        return slot


class _Scope:
    """What a declaration is handed: interns series for one reader."""

    __slots__ = ("_registry", "_reader")

    def __init__(self, registry: "MetricsRegistry", reader: int):
        self._registry = registry
        self._reader = reader

    def __call__(self, name: str, key: Optional[LabelsKey] = None, /,
                 **labels) -> int:
        return self._registry._intern(
            self._reader, name, labels_key(labels) if key is None else key)

    def family(self, name: str, *label_names: str) -> Family:
        self._registry._producers.setdefault(name, set()).add(self._reader)
        return Family(self, name, label_names)

    def getter(self, *paths: str) -> Callable:
        """``attrgetter(*paths)``, one per registry for each path tuple."""
        getters = self._registry._getters
        get = getters.get(paths)
        if get is None:
            get = getters[paths] = attrgetter(*paths)
        return get


class MetricsRegistry:
    """The pod-wide registry: one series table, instruments and readers."""

    def __init__(self):
        self.table = SeriesTable()
        self._instruments: Dict[SeriesKey, _Instrument] = {}
        self._pending: List[Callable] = []       # declarations not yet run
        self._readers: List[Callable[[list], None]] = []
        self._producers: Dict[str, set] = {}     # name -> readers writing it
        self._getters: Dict[Tuple[str, ...], Callable] = {}  # Scope.getter
        self._filling: Optional[list] = None     # grows with late interning

    # -- instrument creation (get-or-create, idempotent) ----------------------

    def _get_or_create(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            other = self._shares_series(cls, *key)
            if other is not None:
                raise TypeError(
                    f"{cls.kind} {name}{dict(key[1])} would write the series "
                    f"of {other.kind} {other.name}{dict(key[1])}")
            instrument = cls(name, key[1], help=help, **kwargs)
            self._instruments[key] = instrument
            self.register(instrument.declare)
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name}{dict(key[1])} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def _shares_series(self, cls, name: str,
                       labels: LabelsKey) -> Optional[_Instrument]:
        """The instrument that ``cls(name, labels)`` would collide with
        through a histogram's ``<h>_count`` / ``<h>_sum`` series."""
        if cls is Histogram:
            keys = [(name + suffix, labels) for suffix in _DERIVED]
        else:
            keys = [(name[:-len(suffix)], labels) for suffix in _DERIVED
                    if name.endswith(suffix)]
        for key in keys:
            other = self._instruments.get(key)
            if other is not None and (other.kind == "histogram") != (
                    cls is Histogram):
                return other
        return None

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def register(self, declare: Callable) -> None:
        """Bind a reader of counters that live elsewhere.

        ``declare(series)`` runs once, at the next scrape: it interns the
        reader's series (``series(name, **labels)`` returns a slot,
        ``series.family(name, *label_names)`` a :class:`Family`) and returns
        ``read(vector)``, which adds the current raw numbers into those
        slots (series written twice sum).
        """
        self._pending.append(declare)

    def _intern(self, reader: int, name: str, labels: LabelsKey) -> int:
        table, key = self.table, (name, labels)
        slot = table.slots.get(key)
        if slot is None:
            pairs = table.pairs
            key = (name, tuple([pairs.setdefault(pair, pair)
                                for pair in labels]))
            slot = table.slots[key] = len(table.keys)
            table.keys.append(key)
            table.families.setdefault(name, []).append(slot)
            if self._filling is not None:
                self._filling.append(0.0)
        self._producers.setdefault(name, set()).add(reader)
        return slot

    # -- reading ---------------------------------------------------------------

    def _fill(self, name: Optional[str] = None) -> list:
        """One value vector; with ``name``, only its producers are read."""
        pending, self._pending = self._pending, []
        for declare in pending:
            self._readers.append(declare(_Scope(self, len(self._readers))))
        readers = self._readers if name is None else [
            self._readers[i] for i in sorted(self._producers.get(name, ()))]
        vector = self._filling = [0.0] * len(self.table.keys)
        try:
            for read in readers:
                read(vector)
        finally:
            self._filling = None
        return vector

    def snapshot(self, time: float = 0.0) -> MetricsSnapshot:
        """Read every series into one vector (a view, nothing materialised)."""
        return MetricsSnapshot(self.table, self._fill(), time=time)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """One series' current value, reading only the readers that own it."""
        return MetricsSnapshot(self.table, self._fill(name)).get(
            name, default, **labels)
