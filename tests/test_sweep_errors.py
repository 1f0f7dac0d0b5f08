"""A failing sweep point is fatal: ``run_sweep`` re-raises it."""

import pytest

from repro.harness import SweepPoint, run_sweep

_SCALE = 0.05

_GOOD = SweepPoint("bfs", "Hu", "fifer", scale=_SCALE)
# an unknown variant passes SweepPoint construction but explodes in
# the workload build, i.e. deep inside the worker
_POISONED = SweepPoint("bfs", "Hu", "fifer", variant="bogus", scale=_SCALE)


def test_default_behavior_still_raises():
    with pytest.raises(Exception):
        run_sweep([_GOOD, _POISONED], workers=1)
