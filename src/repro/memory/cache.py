"""Set-associative cache and main-memory timing models.

Caches are functional-timing only: they track which line addresses are
resident (LRU within each set) and return access latencies; data values
live in numpy arrays outside the cache model. Writes are write-allocate
and write-back; dirty evictions are counted as memory write traffic for
the energy model.

Main memory models the paper's high-bandwidth memory: fixed 120-cycle
latency plus a per-quantum bandwidth budget (256 GB/s at 2 GHz = 128
bytes/cycle); traffic beyond the budget pays a queueing penalty.
"""

from __future__ import annotations

from repro.config import CacheConfig, MemoryConfig


class MainMemory:
    """Latency + bandwidth model for HBM."""

    # Optional telemetry Probe (repro.stats.telemetry); instance attrs
    # shadow this when System.attach_telemetry wires the hierarchy.
    probe = None

    def __init__(self, config: MemoryConfig, line_bytes: int = 64):
        self.config = config
        self.line_bytes = line_bytes
        self.reads = 0
        self.writes = 0
        self._quantum_bytes = 0.0
        self._quantum_budget = float("inf")
        self._latency = float(config.latency)
        self._bw = config.bandwidth_bytes_per_cycle

    def begin_quantum(self, cycles: int) -> None:
        """Reset the bandwidth budget for a new simulation quantum."""
        self._quantum_bytes = 0.0
        self._quantum_budget = self.config.bandwidth_bytes_per_cycle * cycles

    def access(self, addr: int, write: bool = False) -> float:
        if write:
            self.writes += 1
        else:
            self.reads += 1
        self._quantum_bytes += self.line_bytes
        latency = self._latency
        over = self._quantum_bytes - self._quantum_budget
        if over > 0:
            # Queueing penalty: excess traffic drains at the peak rate.
            latency += over / self._bw
        # mem.complete rides behind the mem.issue guard: subscribe to
        # both kinds to observe completions.
        if self.probe is not None and "mem.issue" in self.probe.bus.wants:
            now = self.probe.bus.now
            self.probe.emit("mem.issue", cycle=now, addr=addr, write=write)
            self.probe.emit("mem.complete", cycle=now + latency, addr=addr,
                            latency=latency)
        return latency

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_transferred(self) -> int:
        return self.accesses * self.line_bytes


class Cache:
    """One level of a set-associative, LRU, write-back cache.

    ``parent`` is the next level (another ``Cache`` or ``MainMemory``).
    ``access`` returns the total latency of the access including any
    parent latencies on a miss.
    """

    # Optional telemetry Probe; see MainMemory.probe.
    probe = None

    def __init__(self, name: str, config: CacheConfig, parent):
        self.name = name
        self.config = config
        self.parent = parent
        n_sets = config.n_sets
        if n_sets <= 0 or n_sets & (n_sets - 1):
            raise ValueError(
                f"cache {name!r}: set count {n_sets} is not a positive power of two")
        self._set_mask = n_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self._latency = float(config.latency)
        self._ways = config.ways
        # One ordered dict per set: line_addr -> dirty flag. Python dicts
        # preserve insertion order, which we exploit for LRU.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0

    def _locate(self, addr: int) -> tuple[int, dict[int, bool]]:
        line = addr >> self._line_shift
        return line, self._sets[line & self._set_mask]

    def contains(self, addr: int) -> bool:
        line, cache_set = self._locate(addr)
        return line in cache_set

    def access(self, addr: int, write: bool = False) -> float:
        """Access one address; returns total latency in cycles."""
        line = addr >> self._line_shift
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            self.hits += 1
            dirty = cache_set.pop(line) or write
            cache_set[line] = dirty  # move to MRU position
            return self._latency
        self.misses += 1
        if self.probe is not None and "cache.miss" in self.probe.bus.wants:
            self.probe.emit("cache.miss", level=self.name, addr=addr,
                            write=write)
        latency = self.config.latency + self.parent.access(addr, write=False)
        if len(cache_set) >= self._ways:
            victim, victim_dirty = next(iter(cache_set.items()))
            del cache_set[victim]
            if victim_dirty:
                self.dirty_evictions += 1
                self.parent.access(victim << self._line_shift, write=True)
        cache_set[line] = write
        return latency

    def touch_range(self, base: int, size: int, write: bool = False) -> float:
        """Access every line in ``[base, base+size)``; returns total latency."""
        latency = 0.0
        line_bytes = self.config.line_bytes
        addr = base & ~(line_bytes - 1)
        while addr < base + size:
            latency += self.access(addr, write=write)
            addr += line_bytes
        return latency

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def flush(self) -> None:
        """Drop all resident lines (writing back dirty ones)."""
        for cache_set in self._sets:
            for line, dirty in cache_set.items():
                if dirty:
                    self.dirty_evictions += 1
                    self.parent.access(line << self._line_shift, write=True)
            cache_set.clear()


def build_hierarchy(l1_config: CacheConfig, llc_config: CacheConfig,
                    mem_config: MemoryConfig, n_l1s: int):
    """Build ``n_l1s`` private L1s over a shared LLC over main memory.

    Returns ``(l1s, llc, memory)``.
    """
    memory = MainMemory(mem_config, line_bytes=llc_config.line_bytes)
    llc = Cache("llc", llc_config, memory)
    l1s = [Cache(f"l1.{i}", l1_config, llc) for i in range(n_l1s)]
    return l1s, llc, memory
