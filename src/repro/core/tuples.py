"""Tuples, patterns and typed formals — the data model of tuple space.

A Linda *tuple* is an ordered sequence of typed values ("actuals").  A
*pattern* (also called an anti-tuple or template) is a sequence mixing
actuals with typed wildcards ("formals", written ``?var`` in the paper's
notation).  A pattern matches a tuple when arities are equal, every actual
compares equal with the exact same runtime type, and every formal's type
equals the type of the value in its position.

The paper's FT-lcc precompiler catalogs the *signature* of every pattern —
"an ordered list of the types for each distinct pattern … used primarily
for matching purposes" (Sec. 5.2).  :func:`signature_of` and each
operation's :class:`Recipe` reproduce that: signatures are the primary
key of the matching index in :mod:`repro.core.matching`.

Field types are restricted to immutable values so tuples can be hashed,
replicated and compared deterministically: ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``None`` and (nested) tuples of these.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro._errors import MatchTypeError, TupleError

__all__ = [
    "Formal",
    "LindaTuple",
    "Pattern",
    "formal",
    "is_valid_field",
    "make_tuple",
    "match",
    "signature_of",
    "type_name",
    "typed_value",
]

#: Exact runtime types a tuple field may have.  ``bool`` is listed before
#: ``int`` for documentation only; matching always uses exact ``type()`` so
#: ``True`` never matches an ``int`` formal even though ``bool`` subclasses
#: ``int`` in Python.
ALLOWED_FIELD_TYPES = (bool, int, float, str, bytes, type(None), tuple)

#: Additional immutable value types registered by other modules (e.g.
#: :class:`repro.core.spaces.TSHandle`, so tuples can carry space handles).
_EXTRA_FIELD_TYPES: set[type] = set()

_ANY = object  # sentinel type for untyped formals

#: What a :class:`Recipe` does with a field, named by its class's ``_kind``:
#: a formal's type and name are fixed at compile, a constant was checked
#: when made, a formal reference's value came out of a matched tuple, and
#: a checked operand (a hole, an expression) is checked on every call.
FORMAL, CONST, REF, CHECKED = range(4)

#: The field types :func:`is_valid_field` accepts without looking inside.
_SCALAR_TYPES = frozenset((bool, int, float, str, bytes, type(None)))


def register_field_type(t: type) -> None:
    """Allow instances of immutable value type *t* as tuple fields.

    The type must be hashable and define value equality; the library uses
    this for :class:`~repro.core.spaces.TSHandle` so that tuples can name
    other tuple spaces (the paper's examples pass TS handles in tuples).
    """
    _EXTRA_FIELD_TYPES.add(t)


def type_name(t: type) -> str:
    """Stable, human-readable name for a field type (used in signatures)."""
    if t is _ANY:
        return "?"
    return t.__name__


def typed_value(value: Any) -> tuple:
    """*value* paired with its exact type, nested tuples walked."""
    if type(value) is tuple:
        return (tuple, tuple(map(typed_value, value)))
    return (type(value), value)


def is_valid_field(value: Any) -> bool:
    """Return True when *value* may appear as a tuple field.

    Nested tuples are validated recursively; any other container (list,
    dict, set) is rejected because it is mutable and would break the
    deterministic-replication guarantees of stable tuple spaces.
    """
    if type(value) is tuple:
        return all(is_valid_field(v) for v in value)
    t = type(value)
    return t in _SCALAR_TYPES or t in _EXTRA_FIELD_TYPES


class Formal:
    """A typed wildcard in a pattern — the paper's ``?var`` notation.

    Parameters
    ----------
    ftype:
        Exact runtime type the matched value must have, or ``object`` for
        an untyped wildcard (matches any field).  Untyped formals defeat
        the signature index and fall back to an arity scan, so prefer
        typed formals in hot paths.
    name:
        Optional binding name.  Named formals have their matched value
        recorded in the :class:`Binding` returned by :func:`match`; inside
        an AGS the guard's named formals become operands available to body
        operations (Sec. 3 of the paper).
    """

    __slots__ = ("ftype", "name")
    _kind = FORMAL

    def __init__(self, ftype: type = object, name: str | None = None):
        if (
            ftype is not object
            and ftype not in ALLOWED_FIELD_TYPES
            and ftype not in _EXTRA_FIELD_TYPES
        ):
            raise MatchTypeError(
                f"formal type {ftype!r} is not an allowed tuple field type"
            )
        self.ftype = _ANY if ftype is object else ftype
        self.name = name

    @property
    def typed(self) -> bool:
        """True when this formal constrains the matched value's type."""
        return self.ftype is not _ANY

    def matches_value(self, value: Any) -> bool:
        """Type-check *value* against this formal."""
        return self.ftype is _ANY or type(value) is self.ftype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nm = self.name or ""
        return f"?{nm}:{type_name(self.ftype)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Formal)
            and other.ftype is self.ftype
            and other.name == self.name
        )

    def __hash__(self) -> int:
        return hash((self.ftype, self.name))


def formal(ftype: type = object, name: str | None = None) -> Formal:
    """Convenience constructor mirroring the paper's ``?name`` syntax."""
    return Formal(ftype, name)


class LindaTuple:
    """An immutable tuple-space tuple.

    Thin wrapper over a Python tuple that validates field types once at
    construction and pre-computes the signature and hash.  Instances are
    value objects: two tuples with equal fields are equal and hash alike,
    which gives tuple space its multiset (bag) semantics.
    """

    __slots__ = ("fields", "signature", "_hash")

    def __init__(self, fields: Sequence[Any]):
        fields = tuple(fields)
        if not fields:
            raise TupleError("tuples must have at least one field")
        for i, v in enumerate(fields):
            if isinstance(v, Formal):
                raise TupleError(
                    f"field {i}: formals are only allowed in patterns, not tuples"
                )
            if not is_valid_field(v):
                raise TupleError(
                    f"field {i}: {type(v).__name__} is not an allowed field type"
                )
        self.fields = fields
        self.signature = tuple(type_name(type(v)) for v in fields)
        self._hash = hash(fields)

    @classmethod
    def trusted(cls, fields: tuple, signature: tuple | None = None) -> "LindaTuple":
        """A tuple of *fields* known valid already: none is checked again."""
        t = object.__new__(cls)
        t.fields, t._hash = fields, hash(fields)
        if signature is None:
            signature = tuple(map(type_name, map(type, fields)))
        t.signature = signature
        return t

    @property
    def arity(self) -> int:
        """Number of fields."""
        return len(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i: int) -> Any:
        return self.fields[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LindaTuple):
            return self.fields == other.fields
        if isinstance(other, tuple):
            return self.fields == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"({inner})"


def make_tuple(*fields: Any) -> LindaTuple:
    """Build a :class:`LindaTuple` from positional fields.

    ``make_tuple("count", 0)`` is the paper's ``("count", 0)``.
    """
    return LindaTuple(fields)


class Pattern:
    """A match template: actuals mixed with :class:`Formal` wildcards.

    The pattern pre-computes everything the matcher needs: its signature
    (exact when fully typed), the positions and expected values of its
    actuals, and the positions/types/names of its formals.
    """

    __slots__ = (
        "fields",
        "arity",
        "signature",
        "exact_signature",
        "actual_positions",
        "formal_positions",
        "names",
        "_first_actual",
    )

    def __init__(self, fields: Sequence[Any]):
        fields = tuple(fields)
        if not fields:
            raise TupleError("patterns must have at least one field")
        actuals: list[tuple[int, Any]] = []
        formals: list[tuple[int, Formal]] = []
        names: list[str] = []
        sig: list[str] = []
        exact = True
        for i, f in enumerate(fields):
            if isinstance(f, Formal):
                formals.append((i, f))
                sig.append(type_name(f.ftype))
                if not f.typed:
                    exact = False
                if f.name is not None:
                    if f.name in names:
                        raise TupleError(
                            f"duplicate formal name {f.name!r} in pattern"
                        )
                    names.append(f.name)
            else:
                if not is_valid_field(f):
                    raise TupleError(
                        f"field {i}: {type(f).__name__} is not an allowed field type"
                    )
                actuals.append((i, f))
                sig.append(type_name(type(f)))
        self.fields = fields
        self.arity = len(fields)
        self.signature = tuple(sig)
        self.exact_signature = exact
        self.actual_positions = tuple(actuals)
        self.formal_positions = tuple(formals)
        self.names = tuple(names)
        self._first_actual = fields[0] if actuals and actuals[0][0] == 0 else None

    @classmethod
    def _trusted(cls, fields, signature, exact, actuals, formals, names) -> "Pattern":
        """A pattern whose parts a :class:`Recipe` knows already: none is worked out again."""
        p = object.__new__(cls)
        p.fields, p.arity, p.signature, p.exact_signature = fields, len(fields), signature, exact
        p.actual_positions, p.formal_positions, p.names = actuals, formals, names
        p._first_actual = fields[0] if actuals and actuals[0][0] == 0 else None
        return p

    @property
    def first_actual(self) -> Any:
        """Value of field 0 when it is an actual, else ``None``.

        Real Linda kernels hash on the first field because by convention it
        names the logical channel ("count", "subtask", …); the store keeps
        a secondary index keyed on it.
        """
        return self._first_actual

    def matches(self, tup: LindaTuple) -> bool:
        """True when this pattern matches *tup* (no binding produced)."""
        if tup.arity != self.arity:
            return False
        flds = tup.fields
        for i, expected in self.actual_positions:
            v = flds[i]
            if type(v) is not type(expected) or v != expected:
                return False
        for i, fm in self.formal_positions:
            if not fm.matches_value(flds[i]):
                return False
        return True

    def bind(self, tup: LindaTuple) -> dict[str, Any]:
        """Binding of named formals against *tup* (assumes it matches)."""
        out: dict[str, Any] = {}
        for i, fm in self.formal_positions:
            if fm.name is not None:
                out[fm.name] = tup.fields[i]
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Pattern({inner})"


class Recipe:
    """One operation's fields, compiled once: what each call builds its
    :class:`Pattern` or :class:`LindaTuple` from — FT-lcc's catalog entry
    (Sec. 5.2).  Each field's ``_kind`` says what a call does with it
    (DESIGN.md, "What is checked where"); a checked value that is no field
    value, or a name used twice, sends the call to the public constructor,
    whose rule and message hold.  Threads share it: only ``_kept``, a
    cache, is written after it is made.
    """

    __slots__ = (
        "_template", "_signature", "_actuals", "_dynamic", "_formals", "_names", "_exact", "_kept",
    )

    def __init__(self, fields: Sequence[Any]):
        template, signature, actuals, dynamic, formals, names, exact = [], [], [], [], [], [], True
        for i, f in enumerate(fields):
            kind = f._kind
            if kind == FORMAL:
                template.append(f)
                signature.append(type_name(f.ftype))
                formals.append((i, f))
                exact = exact and f.typed
                if f.name is not None:
                    names.append(f.name)
            elif kind == CONST:
                template.append(f.value)
                signature.append(type_name(type(f.value)))
                actuals.append((i, f.value))
            else:
                template.append(None)
                signature.append(None)
                dynamic.append((i, len(actuals), f, kind == CHECKED))
                actuals.append(None)
        self._template, self._signature, self._actuals = template, signature, actuals
        self._dynamic, self._formals, self._exact = tuple(dynamic), tuple(formals), exact
        # a name used twice: the public constructor raises, after evaluating
        self._names = tuple(names) if len(set(names)) == len(names) else None
        self._kept: tuple | None = None  # the last tuple's signature

    def _build(self, env: Mapping[Any, Any]) -> tuple[list, list, list, bool]:
        """Fields, signature, actual positions under *env*; whether all are valid."""
        if not self._dynamic:
            return self._template, self._signature, self._actuals, self._names is not None
        fields = self._template.copy()
        signature = self._signature.copy()
        actuals = self._actuals.copy()
        valid = self._names is not None
        # every operand is evaluated before any value is judged, as the
        # public constructors see them: an evaluation error comes first
        for i, k, operand, checked in self._dynamic:
            value = fields[i] = operand.evaluate(env)
            t = type(value)
            if checked and t not in _SCALAR_TYPES and not is_valid_field(value):
                valid = False
            signature[i] = type_name(t)
            actuals[k] = (i, value)
        return fields, signature, actuals, valid

    def pattern(self, env: Mapping[Any, Any]) -> Pattern:
        """The operation's pattern under *env*."""
        fields, signature, actuals, valid = self._build(env)
        if not valid:
            return Pattern(fields)
        return Pattern._trusted(
            tuple(fields), tuple(signature), self._exact, tuple(actuals), self._formals, self._names
        )

    def tuple_(self, env: Mapping[Any, Any]) -> LindaTuple:
        """The operation's tuple under *env* (an ``out``'s fields)."""
        fields, signature, _actuals, valid = self._build(env)
        if not valid:
            return LindaTuple(fields)
        # the run of tuples a store keeps share one signature object; the
        # one kept is read once, so a thread uses its own or an equal one
        signature, kept = tuple(signature), self._kept
        if signature == kept:
            signature = kept
        else:
            self._kept = signature
        return LindaTuple.trusted(tuple(fields), signature)


def signature_of(fields: Iterable[Any]) -> tuple[str, ...]:
    """Signature (ordered type-name list) of a sequence of actual values."""
    return tuple(type_name(type(v)) for v in fields)


def match(pattern: Pattern, tup: LindaTuple) -> Mapping[str, Any] | None:
    """Match *pattern* against *tup*.

    Returns the binding mapping (possibly empty) on success, ``None`` on
    failure — the one-call form used throughout the tests.
    """
    if not pattern.matches(tup):
        return None
    return pattern.bind(tup)
