"""Run the library's docstring examples as part of the suite."""

import doctest

import pytest

import repro.compression.matrix
import repro.compression.modes
import repro.compression.pyramid_geo
import repro.experiments.parallel
import repro.experiments.sweeps
import repro.lte.competitors
import repro.metrics.freeze
import repro.metrics.stability
import repro.metrics.stats
import repro.obs.bus
import repro.obs.meter
import repro.telephony.timestamping
import repro.units
import repro.video.projection
import repro.video.quality

MODULES = [
    repro.units,
    repro.video.quality,
    repro.video.projection,
    repro.compression.matrix,
    repro.compression.modes,
    repro.compression.pyramid_geo,
    repro.lte.competitors,
    repro.obs.bus,
    repro.obs.meter,
    repro.telephony.timestamping,
    repro.metrics.freeze,
    repro.metrics.stability,
    repro.metrics.stats,
    repro.experiments.parallel,
    repro.experiments.sweeps,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS, verbose=False)
    assert result.failed == 0
