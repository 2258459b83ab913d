"""Process-wide opt-in switches, inherited by spawned replica processes.

Opt-in observability follows one enablement discipline: off by default,
flipped on before runtime construction, and **exported through the
environment** so replica OS processes spawned afterwards come up with
the setting too (``multiprocessing`` re-imports modules in the child,
which re-reads ``os.environ``).  Two variables use it:
``REPRO_INTROSPECT`` — switched through the :class:`EnvFlag` in
:mod:`repro.obs.inspect`, and read once more, directly, at import of
:mod:`repro.core.matching` (``core`` does not import ``obs``; that read
is what a spawned child's template profiler sees) — and
``REPRO_TELEMETRY``, an integer.  This module holds the two shapes:

- :class:`EnvFlag` — a boolean switch backed by an env var.  ``enable``
  sets both the in-process flag and the variable (children inherit);
  ``enabled`` answers True when either is set, so a spawned child whose
  module state is fresh still reads the parent's decision.

- :func:`int_env` — an optional integer setting (``REPRO_TELEMETRY=0``
  means "serve on an ephemeral port", unset means "don't serve"), used
  by the parallel runtimes to start the HTTP telemetry endpoint with no
  code changes in benchmarks, chaos runs, and examples.

Flags deliberately do not cache the environment read: ``enabled()`` is
called once per runtime/store construction, never on a hot path.
"""

from __future__ import annotations

import os

__all__ = ["EnvFlag", "int_env", "telemetry_port"]

#: Set to a port number to auto-serve the HTTP telemetry endpoint from
#: every parallel runtime constructed afterwards (``0`` = ephemeral).
TELEMETRY_ENV = "REPRO_TELEMETRY"


class EnvFlag:
    """A process-wide boolean switch exported through the environment."""

    __slots__ = ("name", "_enabled")

    def __init__(self, name: str):
        self.name = name
        self._enabled = False

    def enable(self) -> None:
        """Turn the flag on for this process and every child spawned after."""
        self._enabled = True
        os.environ[self.name] = "1"

    def disable(self) -> None:
        """Revert :meth:`enable` for future runtimes (and future children)."""
        self._enabled = False
        os.environ.pop(self.name, None)

    def enabled(self) -> bool:
        """True when enabled here or inherited from a parent process."""
        return self._enabled or os.environ.get(self.name) == "1"


def int_env(name: str) -> int | None:
    """An optional integer env setting; unset/empty/garbage reads as None."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def telemetry_port() -> int | None:
    """The ``REPRO_TELEMETRY`` port, or None when auto-serve is off."""
    port = int_env(TELEMETRY_ENV)
    if port is not None and not (0 <= port <= 65535):
        return None
    return port
