"""Flat address-space allocator for simulated workload data.

The simulator separates *functional* state (numpy arrays the workloads
read and write directly) from *timing* state (the addresses those arrays
occupy, fed to the cache models). ``AddressSpace`` hands out
non-overlapping, line-aligned regions; ``ArrayRef`` maps element indices
of a registered array to byte addresses.
"""

from __future__ import annotations

from dataclasses import dataclass


class AllocationError(Exception):
    """Raised on overlapping or invalid allocations."""


@dataclass(frozen=True)
class Region:
    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class AddressSpace:
    """Bump allocator over a flat 64-bit address space.

    Regions are aligned to cache lines so distinct arrays never share a
    line (avoiding spurious false sharing between unrelated structures).
    """

    def __init__(self, base: int = 0x1000_0000, align: int = 64):
        if align <= 0 or align & (align - 1):
            raise AllocationError(
                f"alignment must be a power of two, got {align}")
        self._align = align
        self._next = self._round_up(base)
        self._regions: dict[str, Region] = {}

    def _round_up(self, addr: int) -> int:
        return (addr + self._align - 1) & ~(self._align - 1)

    def alloc(self, name: str, size: int) -> Region:
        """Reserve ``size`` bytes under ``name`` and return the region."""
        if name in self._regions:
            raise AllocationError(f"region {name!r} already allocated")
        if size <= 0:
            raise AllocationError(
                f"region {name!r} has non-positive size {size}")
        region = Region(name, self._next, size)
        self._next = self._round_up(region.end)
        self._regions[name] = region
        return region

    def alloc_array(self, name: str, n_elems: int,
                    elem_bytes: int = 8) -> "ArrayRef":
        """Reserve space for ``n_elems`` elements of ``elem_bytes`` each."""
        region = self.alloc(name, max(1, n_elems) * elem_bytes)
        return ArrayRef(region, elem_bytes)

    def region(self, name: str) -> Region:
        return self._regions[name]

    def regions(self) -> list[Region]:
        return list(self._regions.values())

    @property
    def bytes_allocated(self) -> int:
        return sum(r.size for r in self._regions.values())


@dataclass(frozen=True)
class ArrayRef:
    """Address mapping for one registered array."""

    region: Region
    elem_bytes: int

    def __post_init__(self):
        # Cached for the hot addr() path (frozen dataclass, hence the
        # object.__setattr__; not fields, so eq/hash are unchanged).
        object.__setattr__(self, "_base", self.region.base)
        object.__setattr__(self, "_n", self.region.size // self.elem_bytes)

    @property
    def base(self) -> int:
        return self._base

    @property
    def n_elems(self) -> int:
        return self._n

    def addr(self, index: int) -> int:
        """Byte address of element ``index`` (bounds-checked)."""
        if 0 <= index < self._n:
            return self._base + index * self.elem_bytes
        raise IndexError(
            f"index {index} out of range for {self.region.name!r} "
            f"({self._n} elements)")
