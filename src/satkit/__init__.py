"""Multibeam satellite forward-link simulation and resource allocation.

Submodules:
    scenario        geometry, link budget, channel synthesis
    precoding       multicast MMSE precoding and sum-rate evaluation
    access          two-user interference-channel rate regions
    detection       onboard interference detection (energy detectors)
    predistortion   jitter/SPD/HPA chain and SINR-vs-OBO evaluation
    cognitive       SINR matrices and Hungarian carrier assignment
    caching         Zipf popularity and broadcast/unicast thresholds
    cli             batch experiment runner (CSV outputs)
"""

# numpy 2 imports these submodules lazily, on first use. Most runs need
# them, so they load with the package, like its other imports, rather than
# part-way through a run.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from . import access, caching, cognitive, detection, precoding, predistortion, scenario

__all__ = [
    "access", "caching", "cognitive", "detection", "precoding",
    "predistortion", "scenario",
]

__version__ = "0.1.0"
