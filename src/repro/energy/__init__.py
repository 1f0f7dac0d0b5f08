"""Energy and area models (paper Table 1 and Fig. 15)."""

from repro.energy.area import (PE_AREA_BREAKDOWN_MM2, pe_area_mm2,
                               ooo_core_area_mm2)
from repro.energy.model import EnergyModel, EnergyBreakdown

__all__ = ["PE_AREA_BREAKDOWN_MM2", "pe_area_mm2", "ooo_core_area_mm2",
           "EnergyModel", "EnergyBreakdown"]
