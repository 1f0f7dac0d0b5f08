"""Memory substrate: flat address space, set-associative caches, HBM model.

Workload data lives in numpy arrays registered with the
:class:`AddressSpace`; the caches simulate timing for the addresses those
arrays occupy while functional values are read directly from the arrays.
"""

from repro.memory.address import AddressSpace, ArrayRef
from repro.memory.cache import Cache, MainMemory, build_hierarchy

__all__ = ["AddressSpace", "ArrayRef", "Cache", "MainMemory",
           "build_hierarchy"]
