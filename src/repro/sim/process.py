"""Generator-based simulated processes.

A simulated process is a Python generator that ``yield``s *directives* to
the kernel:

- ``yield hold(t)``   — advance virtual time by *t* microseconds;
- ``yield event``     — a :class:`~repro.sim.kernel.SimEvent`; the process
  resumes with the event's value when it triggers;
- ``yield process``   — another :class:`SimProcess`; resumes with its
  return value when that process finishes (fork/join).

Processes model the paper's client and server processes in the simulated
network-of-workstations experiments.  A process can be :meth:`killed
<SimProcess.kill>` — that is exactly how host crashes stop local clients.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.kernel import SimEvent, Simulator

__all__ = ["SimProcess", "hold", "spawn"]


class _ProcError:
    """Marker carried by ``finished`` when a process died with an exception."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class Hold:
    """Directive: suspend the yielding process for ``duration`` time units."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("cannot hold for negative time")
        self.duration = duration


def hold(duration: float) -> Hold:
    """``yield hold(t)`` — sleep for *t* microseconds of virtual time."""
    return Hold(duration)


class SimProcess:
    """A running generator, driven by the simulator's event queue.

    The process doubles as a waitable: its :attr:`finished` event triggers
    with the generator's return value, so ``yield other_process`` is join.
    Exceptions escaping the generator are re-raised in whoever joins it
    (and stored on :attr:`error`); unjoined failures surface when the test
    inspects the process.
    """

    __slots__ = ("sim", "name", "gen", "finished", "error", "_alive", "_pending")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "proc")
        self.gen = gen
        self.finished = sim.event(f"{self.name}.finished")
        self.error: BaseException | None = None
        self._alive = True
        self._pending = None  # handle of our scheduled resume, for kill()
        sim.schedule(0.0, self._resume, None, None)

    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Stop the process immediately (crash semantics: no cleanup runs).

        The :attr:`finished` event never triggers for a killed process —
        mirroring a fail-silent host, which simply stops sending.
        """
        if not self._alive:
            return
        self._alive = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.gen.close()

    # ------------------------------------------------------------------ #

    def _resume(self, value: Any, exc: BaseException | None) -> None:
        if not self._alive:
            return
        self._pending = None
        try:
            if exc is not None:
                directive = self.gen.throw(exc)
            else:
                directive = self.gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.finished.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - surfaced to joiner
            self._alive = False
            self.error = err
            self.finished.succeed(_ProcError(err))
            return
        try:
            self._dispatch(directive)
        except BaseException as err:  # e.g. a nonsense yield value
            self._alive = False
            self.error = err
            self.gen.close()
            self.finished.succeed(_ProcError(err))

    def _dispatch(self, directive: Any) -> None:
        if isinstance(directive, Hold):
            self._pending = self.sim.schedule(
                directive.duration, self._resume, None, None
            )
        elif isinstance(directive, SimEvent):
            directive.add_waiter(self._on_event)
        elif isinstance(directive, SimProcess):
            directive.finished.add_waiter(self._on_event)
        else:
            raise TypeError(
                f"process {self.name!r} yielded {directive!r}; expected "
                "hold(t), a SimEvent, or a SimProcess"
            )

    def _on_event(self, value: Any) -> None:
        if isinstance(value, _ProcError):
            # joined a process that died: re-raise its exception in us
            self._resume(None, value.error)
        else:
            self._resume(value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"SimProcess({self.name}, {state})"


def spawn(sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> SimProcess:
    """Create and start a :class:`SimProcess` for *gen*."""
    return SimProcess(sim, gen, name)
