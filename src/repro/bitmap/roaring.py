"""A pure-Python RoaringBitmap-style compressed bitmap.

The original Roaring design partitions the 32-bit universe into 2^16-value
chunks keyed by the high 16 bits of each value.  Sparse chunks are stored as
sorted arrays of 16-bit "low" values; dense chunks are stored as bit masks.
This module reproduces that container model:

* array containers use ``array('H', ...)`` (sorted, deduplicated);
* bitmap containers use a Python int as a 65536-bit mask;
* containers convert automatically when they cross the density threshold
  (4096 members, as in the reference implementation).

The point of carrying this structure (instead of plain Python sets) is that
the benchmark for Fig. 12(a) compares binary-search adjacency probing against
bitmap-based batch intersection, and the RIG adjacency lists in
:mod:`repro.rig` are stored as these bitmaps exactly as §6 describes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional

CHUNK_BITS = 16
CHUNK_SIZE = 1 << CHUNK_BITS
CHUNK_MASK = CHUNK_SIZE - 1
#: An array container converts to a bitmap container above this cardinality
#: (the threshold used by the reference Roaring implementation).
ARRAY_TO_BITMAP_THRESHOLD = 4096


class _Container:
    """One chunk of the bitmap: either a sorted array or a bit mask."""

    __slots__ = ("values", "mask", "is_bitmap")

    def __init__(self) -> None:
        self.values: array = array("H")
        self.mask: int = 0
        self.is_bitmap: bool = False

    # -- construction -------------------------------------------------- #

    @classmethod
    def from_sorted_lows(cls, lows: List[int]) -> "_Container":
        container = cls()
        if len(lows) > ARRAY_TO_BITMAP_THRESHOLD:
            mask = 0
            for low in lows:
                mask |= 1 << low
            container.mask = mask
            container.is_bitmap = True
        else:
            container.values = array("H", lows)
        return container

    def _to_bitmap(self) -> None:
        mask = 0
        for low in self.values:
            mask |= 1 << low
        self.mask = mask
        self.values = array("H")
        self.is_bitmap = True

    # -- mutation ------------------------------------------------------ #

    def add(self, low: int) -> None:
        if self.is_bitmap:
            self.mask |= 1 << low
            return
        values = self.values
        # Binary search for insertion point.
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] < low:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(values) and values[lo] == low:
            return
        values.insert(lo, low)
        if len(values) > ARRAY_TO_BITMAP_THRESHOLD:
            self._to_bitmap()

    def discard(self, low: int) -> None:
        if self.is_bitmap:
            self.mask &= ~(1 << low)
            return
        values = self.values
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] < low:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(values) and values[lo] == low:
            values.pop(lo)

    # -- queries ------------------------------------------------------- #

    def __contains__(self, low: int) -> bool:
        if self.is_bitmap:
            return (self.mask >> low) & 1 == 1
        values = self.values
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] < low:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(values) and values[lo] == low

    def __len__(self) -> int:
        if self.is_bitmap:
            return self.mask.bit_count()
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        if self.is_bitmap:
            mask = self.mask
            while mask:
                low_bit = mask & -mask
                yield low_bit.bit_length() - 1
                mask ^= low_bit
        else:
            yield from self.values

    # -- algebra ------------------------------------------------------- #

    def _as_mask(self) -> int:
        if self.is_bitmap:
            return self.mask
        mask = 0
        for low in self.values:
            mask |= 1 << low
        return mask

    def intersect(self, other: "_Container") -> Optional["_Container"]:
        """Return the intersection container, or None if empty."""
        if self.is_bitmap and other.is_bitmap:
            mask = self.mask & other.mask
            if not mask:
                return None
            result = _Container()
            result.mask = mask
            result.is_bitmap = True
            return result
        if not self.is_bitmap and not other.is_bitmap:
            a, b = self.values, other.values
            if len(a) > len(b):
                a, b = b, a
            lows = [low for low in a if low in other] if other.is_bitmap else None
            # Galloping-free two-pointer merge over sorted arrays.
            out: List[int] = []
            i = j = 0
            while i < len(a) and j < len(b):
                if a[i] == b[j]:
                    out.append(a[i])
                    i += 1
                    j += 1
                elif a[i] < b[j]:
                    i += 1
                else:
                    j += 1
            if not out:
                return None
            return _Container.from_sorted_lows(out)
        # Mixed: probe the array container against the bitmap container.
        array_side = other if self.is_bitmap else self
        bitmap_side = self if self.is_bitmap else other
        out = [low for low in array_side.values if (bitmap_side.mask >> low) & 1]
        if not out:
            return None
        return _Container.from_sorted_lows(out)

    def union(self, other: "_Container") -> "_Container":
        mask = self._as_mask() | other._as_mask()
        result = _Container()
        count = mask.bit_count()
        if count > ARRAY_TO_BITMAP_THRESHOLD:
            result.mask = mask
            result.is_bitmap = True
        else:
            lows: List[int] = []
            work = mask
            while work:
                low_bit = work & -work
                lows.append(low_bit.bit_length() - 1)
                work ^= low_bit
            result.values = array("H", lows)
        return result

    def intersection_size(self, other: "_Container") -> int:
        if self.is_bitmap and other.is_bitmap:
            return (self.mask & other.mask).bit_count()
        if not self.is_bitmap and not other.is_bitmap:
            a, b = self.values, other.values
            i = j = count = 0
            while i < len(a) and j < len(b):
                if a[i] == b[j]:
                    count += 1
                    i += 1
                    j += 1
                elif a[i] < b[j]:
                    i += 1
                else:
                    j += 1
            return count
        array_side = other if self.is_bitmap else self
        bitmap_side = self if self.is_bitmap else other
        return sum(1 for low in array_side.values if (bitmap_side.mask >> low) & 1)


class RoaringBitmap:
    """A set of non-negative integers stored in Roaring-style containers."""

    __slots__ = ("_containers",)

    def __init__(self, items: Optional[Iterable[int]] = None) -> None:
        self._containers: Dict[int, _Container] = {}
        if items is not None:
            self.update(items)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sorted(cls, items: Iterable[int]) -> "RoaringBitmap":
        """Build from an ascending iterable (slightly faster bulk path)."""
        bitmap = cls.__new__(cls)
        bitmap._containers = {}
        current_high: Optional[int] = None
        lows: List[int] = []
        for item in items:
            high = item >> CHUNK_BITS
            if high != current_high:
                if lows:
                    bitmap._containers[current_high] = _Container.from_sorted_lows(lows)
                current_high = high
                lows = []
            lows.append(item & CHUNK_MASK)
        if lows and current_high is not None:
            bitmap._containers[current_high] = _Container.from_sorted_lows(lows)
        return bitmap

    def copy(self) -> "RoaringBitmap":
        """Return a deep copy."""
        return RoaringBitmap(iter(self))

    def update(self, items: Iterable[int]) -> None:
        """Insert every item of ``items``."""
        for item in items:
            self.add(item)

    # ------------------------------------------------------------------ #
    # element access
    # ------------------------------------------------------------------ #

    def add(self, item: int) -> None:
        """Insert ``item``."""
        if item < 0:
            raise ValueError("RoaringBitmap only stores non-negative integers")
        high, low = item >> CHUNK_BITS, item & CHUNK_MASK
        container = self._containers.get(high)
        if container is None:
            container = _Container()
            self._containers[high] = container
        container.add(low)

    def discard(self, item: int) -> None:
        """Remove ``item`` if present."""
        if item < 0:
            return
        high, low = item >> CHUNK_BITS, item & CHUNK_MASK
        container = self._containers.get(high)
        if container is None:
            return
        container.discard(low)
        if not len(container):
            del self._containers[high]

    def __contains__(self, item: int) -> bool:
        if item < 0:
            return False
        container = self._containers.get(item >> CHUNK_BITS)
        return container is not None and (item & CHUNK_MASK) in container

    def __len__(self) -> int:
        return sum(len(container) for container in self._containers.values())

    def __bool__(self) -> bool:
        return any(len(container) for container in self._containers.values())

    def __iter__(self) -> Iterator[int]:
        for high in sorted(self._containers):
            base = high << CHUNK_BITS
            for low in self._containers[high]:
                yield base + low

    def batch_iter(self, batch_size: int = 256) -> Iterator[List[int]]:
        """Yield members in ascending batches (the Roaring batch iterator).

        The paper reports that batch iterators are 2-10x faster than
        element-at-a-time iterators; the enumeration algorithm consumes RIG
        adjacency in batches through this method.
        """
        batch: List[int] = []
        for item in self:
            batch.append(item)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def to_list(self) -> List[int]:
        """Members in ascending order."""
        return list(self)

    def min(self) -> int:
        """Smallest member; raises ``ValueError`` if empty."""
        for item in self:
            return item
        raise ValueError("min() of empty RoaringBitmap")

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        result = RoaringBitmap()
        small, large = (self, other) if len(self._containers) <= len(other._containers) else (other, self)
        for high, container in small._containers.items():
            other_container = large._containers.get(high)
            if other_container is None:
                continue
            intersected = container.intersect(other_container)
            if intersected is not None:
                result._containers[high] = intersected
        return result

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        result = RoaringBitmap()
        for high, container in self._containers.items():
            other_container = other._containers.get(high)
            if other_container is None:
                result._containers[high] = _Container.from_sorted_lows(list(container))
            else:
                result._containers[high] = container.union(other_container)
        for high, container in other._containers.items():
            if high not in self._containers:
                result._containers[high] = _Container.from_sorted_lows(list(container))
        return result

    def __sub__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        result = RoaringBitmap()
        for item in self:
            if item not in other:
                result.add(item)
        return result

    def __iand__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        intersected = self & other
        self._containers = intersected._containers
        return self

    def __ior__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        merged = self | other
        self._containers = merged._containers
        return self

    def intersection_size(self, other: "RoaringBitmap") -> int:
        """``len(self & other)`` without materialising the intersection."""
        total = 0
        small, large = (self, other) if len(self._containers) <= len(other._containers) else (other, self)
        for high, container in small._containers.items():
            other_container = large._containers.get(high)
            if other_container is not None:
                total += container.intersection_size(other_container)
        return total

    def intersects(self, other: "RoaringBitmap") -> bool:
        """True if the two bitmaps share at least one member."""
        small, large = (self, other) if len(self._containers) <= len(other._containers) else (other, self)
        for high, container in small._containers.items():
            other_container = large._containers.get(high)
            if other_container is not None and container.intersection_size(other_container):
                return True
        return False

    def issubset(self, other: "RoaringBitmap") -> bool:
        """True if every member of ``self`` is in ``other``."""
        return all(item in other for item in self)

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        return self.to_list() == other.to_list()

    def __hash__(self) -> int:
        return hash(tuple(self.to_list()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        size = len(self)
        preview = []
        for item in self:
            preview.append(item)
            if len(preview) >= 8:
                break
        suffix = ", ..." if size > 8 else ""
        return f"RoaringBitmap({preview}{suffix} size={size})"
