"""Run the doctests embedded in module docstrings."""

import doctest

import pytest

import repro.chips.roofline
import repro.core.slicing
import repro.fleet.presets
import repro.network.fairshare
import repro.reporting.tables
import repro.sim.rng
import repro.sparsecore.dedup
import repro.topology.builder
import repro.topology.coords
import repro.topology.dor
import repro.topology.twisted
import repro.units

DOCTESTED_MODULES = [
    repro.units,
    repro.sim.rng,
    repro.topology.coords,
    repro.topology.twisted,
    repro.topology.builder,
    repro.topology.dor,
    repro.core.slicing,
    repro.fleet.presets,
    repro.network.fairshare,
    repro.sparsecore.dedup,
    repro.chips.roofline,
    repro.reporting.tables,
]


@pytest.mark.parametrize("module", DOCTESTED_MODULES,
                         ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
