"""MetricsRegistry: thread-safe labelled counters, gauges and histograms.

The registry is the one metrics surface every layer of the stack records
into, and the only place a count lives: a named family per metric, a child
per label combination, two snapshot forms — a JSON-able document (what the
wire protocol's ``metrics`` op ships) and the Prometheus text exposition
format (what a scraper ingests; :func:`render_prometheus` writes it from
the document, for one registry and for the cluster monitor's merge) — and
:meth:`MetricsRegistry.read`, through which every ``stats()`` document
reads its numbers.  Dependency-free and
deliberately small:

* **Counters** are monotone floats; nothing ever resets them.
* **Gauges** are instantaneous values, settable directly or backed by a
  callback evaluated only at snapshot time — the callback form is how
  queue depths and version-chain gauges cost nothing on the hot path.
* **Histograms** are fixed-bucket (cumulative at render time, like
  Prometheus), with an observation count and sum for averages.

Family registration is idempotent: re-requesting the same name with the
same type and labelnames returns the existing family, so every layer can
declare what it needs without coordination.  All mutation is lock-guarded
per family; a snapshot taken concurrently with writers sees each child's
state atomically.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds) — latency-oriented, sub-ms to 10s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integral floats without .0 noise)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # Exposition-format HELP text escapes backslash and newline (but not
    # quotes — HELP text is not quoted).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + body + "}"


def render_prometheus(document: Mapping[str, Mapping]) -> str:
    """A :meth:`MetricsRegistry.snapshot` document (or a merge of several)
    in the Prometheus text exposition format (version 0.0.4), families in
    name order."""
    lines: List[str] = []
    for name in sorted(document):
        family = document[name]
        help_text = str(family.get("help") or "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {family.get('type', 'untyped')}")
        for value in family.get("values", ()):
            labels = dict(value.get("labels") or {})
            if "buckets" in value:
                for bound, count in value["buckets"].items():
                    bucket_labels = dict(labels, le=str(bound))
                    lines.append(f"{name}_bucket{_render_labels(bucket_labels)} {count}")
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(float(value.get('sum') or 0.0))}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {int(value.get('count') or 0)}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(float(value.get('value') or 0.0))}"
                )
    return "\n".join(lines) + "\n"


class _CounterChild:
    """One (family, label-combination) counter cell."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    """One gauge cell — directly settable, or callback-backed."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            return 0.0


class _HistogramChild:
    """One histogram cell: fixed per-bucket counts plus sum and count."""

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        self._lock = lock
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, counts):
            total += count
            out.append((bound, total))
        out.append((float("inf"), total + counts[-1]))
        return out


class _Family:
    """A named metric family: one child per label-value combination."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        # Fast path for the (common) unlabelled family: one cached child.
        self._default = None if self.labelnames else self._make_child()
        if self._default is not None:
            self._children[()] = self._default

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values, **labelkw):
        """The child for one label combination (created on first use)."""
        if labelkw:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(labelkw[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} expects labels {self.labelnames}, got {sorted(labelkw)}"
                ) from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (labelnames must be empty)."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Back the unlabelled child with a callback evaluated at read time."""
        self.labels().set_function(fn)

    @property
    def value(self) -> float:
        return self.labels().value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b == float("inf") for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """A thread-safe collection of metric families, snapshotable two ways."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    # registration (idempotent)
    # ------------------------------------------------------------------ #

    def _register(self, factory, name: str, labelnames: Sequence[str]) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} for metric {name!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                family = factory()
                if existing.kind != family.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {family.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            family = factory()
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        """Register (or fetch) a counter family."""
        return self._register(
            lambda: CounterFamily(name, help, labelnames), name, labelnames
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> GaugeFamily:
        """Register (or fetch) a gauge family.

        ``fn`` (unlabelled gauges only) installs a callback evaluated at
        snapshot time; re-registering with a new ``fn`` replaces it, so an
        object rebinding its gauges always wins.
        """
        family = self._register(
            lambda: GaugeFamily(name, help, labelnames), name, labelnames
        )
        if fn is not None:
            if family.labelnames:
                raise ValueError(f"callback gauges must be unlabelled: {name!r}")
            family.set_function(fn)
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._register(
            lambda: HistogramFamily(name, help, labelnames, buckets), name, labelnames
        )

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._families

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def read(self, name: str, by: Optional[str] = None, **labels):
        """The current total of family ``name``, summed over its children
        whose labels equal ``labels`` (a histogram child counts the sum of
        its observations).

        With ``by``, a dict from each value of label ``by`` to that total
        instead.  An unregistered family raises :class:`KeyError`.
        """
        family = self.get(name)
        if family is None:
            raise KeyError(f"no metric family {name!r}")
        totals: Dict[Optional[str], float] = {}
        for key, child in family.children():
            values = dict(zip(family.labelnames, key))
            if any(values[label] != str(value) for label, value in labels.items()):
                continue
            group = None if by is None else values[by]
            amount = child.sum if family.kind == "histogram" else child.value
            totals[group] = totals.get(group, 0.0) + amount
        return totals if by is not None else totals.get(None, 0.0)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able document: every family, every child, current values."""
        with self._lock:
            families = sorted(self._families.items())
        document: Dict[str, dict] = {}
        for name, family in families:
            values = []
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    values.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": {
                                _format_value(bound): count
                                for bound, count in child.cumulative()
                            },
                        }
                    )
                else:
                    values.append({"labels": labels, "value": child.value})
            document[name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return document

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        return render_prometheus(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self.names())} families)"
