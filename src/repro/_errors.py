"""Exception hierarchy for the FT-Linda reproduction.

All library errors derive from :class:`LindaError` so callers can catch a
single base class.  Errors are split along the lines the paper draws:
programming errors in tuples/patterns (:class:`TupleError`,
:class:`MatchTypeError`), misuse of the AGS restrictions
(:class:`AGSError`), tuple-space lifecycle problems (:class:`SpaceError`),
and runtime/distribution failures (:class:`RuntimeFailure`,
:class:`HostFailedError`).
"""

from __future__ import annotations


class LindaError(Exception):
    """Base class for every error raised by this library."""


class TupleError(LindaError):
    """A malformed tuple or pattern (bad arity, unsupported field type)."""


class MatchTypeError(TupleError):
    """A pattern field has a type that can never match its position."""


class AGSError(LindaError):
    """An atomic guarded statement violates FT-Linda's restrictions.

    The paper restricts AGS bodies so that every replica can execute them
    deterministically without further communication: no ``eval`` in a body,
    no blocking operations outside the guard position, and operands limited
    to constants, guard-bound formals, and deterministic expressions.
    """


class FormalBindingError(AGSError):
    """A body operand references a formal the guard did not bind."""


class SpaceError(LindaError):
    """Tuple-space lifecycle error (unknown handle, double destroy, ...)."""


class ScopeError(SpaceError):
    """A process touched a private tuple space it does not own."""


class RuntimeFailure(LindaError):
    """The runtime could not complete an operation."""


class HostFailedError(RuntimeFailure):
    """The host a process was running on (or talking to) has crashed."""

    def __init__(self, host_id: int):
        self.host_id = host_id
        super().__init__(f"host {host_id} has failed")

    def __reduce__(self):
        # Exception's own would pass the message back as host_id
        return (type(self), (self.host_id,))


class OperandError(AGSError):
    """A registered function raised evaluating an operand: the statement aborts."""


class NotDeterministicError(AGSError):
    """An expression used inside an AGS body is not marked deterministic."""


class CompileError(LindaError):
    """FT-lcc front end rejected a source program."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = f" at {line}:{column}" if line is not None else ""
        super().__init__(f"{message}{loc}")


class TimeoutError_(RuntimeFailure):
    """A bounded wait elapsed before the guard could fire.

    ``outcome`` records what is known about the command's fate when the
    wait gave up: ``"cancelled"`` means an ordered cancel reached every
    replica first, so the command definitely did not and will not apply;
    ``"unknown"`` means the cancel race was lost or never resolved, so the
    command may yet apply.  Retry logic keys off this to decide whether a
    resubmission needs the original request id (for replica-side dedup).
    """

    def __init__(self, message: str, *, outcome: str = "cancelled"):
        self.outcome = outcome
        super().__init__(message)


class CommandFailed(RuntimeFailure):
    """A command's apply raised on the replicas.

    The apply loop converts the exception into this deterministic failed
    completion on *every* replica — the poison command consumes its slot,
    state machines stay identical, and only the submitting client sees
    the failure.
    """
