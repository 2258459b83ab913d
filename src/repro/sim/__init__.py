"""Deterministic discrete-event simulation kernel.

The paper evaluates FT-Linda on a network of workstations (Sun-3 / i386 on
10 Mb Ethernet).  We do not have that testbed, so the distributed
experiments run on this kernel instead: virtual time in microseconds, an
ordered event queue, generator-based processes, and seeded randomness —
fully deterministic given a seed, which also makes crash/recovery schedules
reproducible (something the original hardware could never give).

Public surface: :class:`~repro.sim.kernel.Simulator`,
:class:`~repro.sim.kernel.SimEvent`, :class:`~repro.sim.process.SimProcess`
and the :func:`~repro.sim.process.hold` helper.
"""

from repro.sim.kernel import SimEvent, Simulator
from repro.sim.process import SimProcess, hold

__all__ = ["SimEvent", "SimProcess", "Simulator", "hold"]
