"""Multiple tuple spaces: attributes, handles and the space registry.

FT-Linda generalizes Linda's single global tuple space to many, each
created with two attributes (Sec. 3 of the paper):

- **resilience** — ``STABLE`` spaces survive processor failures (they are
  replicated on every host by the state-machine layer); ``VOLATILE``
  spaces are as fast as ordinary memory but lost on a crash.
- **scope** — ``SHARED`` spaces are accessible to every process;
  ``PRIVATE`` spaces belong to a single logical process (used e.g. to
  checkpoint a worker's private state into a stable private space).

A :class:`TSHandle` is the value processes pass around to name a space
(handles are themselves valid tuple fields, so a tuple can carry a handle
to another space).  The :class:`SpaceRegistry` owns handle allocation and
the :class:`~repro.core.matching.TupleStore` of every live space; it is
part of the replicated state, so handle ids must be allocated
deterministically — they are, by a plain counter driven from the totally
ordered command stream.
"""

from __future__ import annotations

import enum
import functools
from typing import Any, Iterator, Mapping

from repro._errors import ScopeError, SpaceError
from repro.core.matching import TupleStore
from repro.core.tuples import register_field_type

__all__ = [
    "Resilience",
    "Scope",
    "TSHandle",
    "SpaceRegistry",
    "MAIN_TS",
]


class Resilience(enum.Enum):
    """Whether a space's contents survive host crashes."""

    STABLE = "stable"
    VOLATILE = "volatile"


class Scope(enum.Enum):
    """Who may operate on a space."""

    SHARED = "shared"
    PRIVATE = "private"


class TSHandle:
    """An opaque, hashable name for a tuple space.

    Handles are immutable value objects; equality is by id.  The default
    shared stable space has id 0 and is exported as :data:`MAIN_TS`.
    """

    __slots__ = ("id", "name", "resilience", "scope")

    def __init__(self, id: int, name: str, resilience: Resilience, scope: Scope):
        self.id = id
        self.name = name
        self.resilience = resilience
        self.scope = scope

    @property
    def stable(self) -> bool:
        return self.resilience is Resilience.STABLE

    @property
    def shared(self) -> bool:
        return self.scope is Scope.SHARED

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TSHandle) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("TSHandle", self.id))

    def __reduce__(self) -> tuple:
        # A handle rides in every planned statement (the space is actual
        # 0), so it pickles as four small values, not two by-value enums.
        return (_handle, (self.id, self.name, self.stable, self.shared))

    def __repr__(self) -> str:
        return (
            f"TS<{self.name}#{self.id} {self.resilience.value},{self.scope.value}>"
        )


@functools.lru_cache(maxsize=1024)
def _handle(id: int, name: str, stable: bool, shared: bool) -> TSHandle:
    """Unpickle a handle — interned, so a replica decoding the same space
    on every command builds it once; bounded, so a program that creates
    and destroys spaces without end does not grow the table."""
    return TSHandle(
        id,
        name,
        Resilience.STABLE if stable else Resilience.VOLATILE,
        Scope.SHARED if shared else Scope.PRIVATE,
    )


register_field_type(TSHandle)

#: Handle of the default shared, stable tuple space every runtime creates.
MAIN_TS = TSHandle(0, "main", Resilience.STABLE, Scope.SHARED)


class SpaceRegistry:
    """Allocation and lookup of tuple spaces.

    One registry instance exists per state-machine replica (for stable
    spaces) and per host (for volatile spaces).  All mutating entry points
    are deterministic functions of their arguments so that replicas stay
    identical.
    """

    def __init__(self, *, create_main: bool = True, first_id: int = 1):
        # Distributed runtimes give host-local (volatile) registries a
        # disjoint id range so volatile handles can never collide with the
        # replicated stable ones.
        self._next_id = first_id  # 0 is MAIN_TS
        self._spaces: dict[int, TupleStore] = {}
        self._handles: dict[int, TSHandle] = {}
        self._owners: dict[int, int | None] = {}  # ts id -> owning process id
        if create_main:
            self._spaces[MAIN_TS.id] = TupleStore()
            self._handles[MAIN_TS.id] = MAIN_TS
            self._owners[MAIN_TS.id] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def create(
        self,
        name: str,
        resilience: Resilience = Resilience.STABLE,
        scope: Scope = Scope.SHARED,
        owner: int | None = None,
    ) -> TSHandle:
        """``ts_create``: allocate a new, empty tuple space.

        *owner* is the process id that owns a ``PRIVATE`` space; it is
        ignored (and normalized to ``None``) for shared spaces.
        """
        if scope is Scope.PRIVATE and owner is None:
            raise SpaceError("private tuple spaces require an owner process id")
        hid = self._next_id
        self._next_id += 1
        handle = TSHandle(hid, name, resilience, scope)
        self._spaces[hid] = TupleStore()
        self._handles[hid] = handle
        self._owners[hid] = owner if scope is Scope.PRIVATE else None
        return handle

    def adopt(self, handle: TSHandle, owner: int | None = None) -> TSHandle:
        """Register an existing *handle* with a fresh, empty store.

        Used by the sharded router's scratch state machines: a cross-shard
        AGS executes against a throwaway registry holding only the spaces
        it touches, under their *original* handles (ids allocated by the
        real replicated registries).  Adopting never advances ``_next_id``
        and is a no-op when the handle is already registered.
        """
        if handle.id in self._spaces:
            return self._handles[handle.id]
        self._spaces[handle.id] = TupleStore()
        self._handles[handle.id] = handle
        self._owners[handle.id] = owner if handle.scope is Scope.PRIVATE else None
        return handle

    def destroy(self, handle: TSHandle) -> None:
        """``ts_destroy``: drop a space and all its tuples."""
        if handle.id == MAIN_TS.id:
            raise SpaceError("the main tuple space cannot be destroyed")
        if handle.id not in self._spaces:
            raise SpaceError(f"unknown or already-destroyed tuple space {handle!r}")
        del self._spaces[handle.id]
        del self._handles[handle.id]
        del self._owners[handle.id]

    def destroy_owned_by(self, process_id: int) -> list[TSHandle]:
        """Drop every private space owned by *process_id* (process exit)."""
        doomed = [
            self._handles[hid]
            for hid, owner in self._owners.items()
            if owner == process_id
        ]
        for h in doomed:
            self.destroy(h)
        return doomed

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def store(self, handle: TSHandle, *, accessor: int | None = None) -> TupleStore:
        """The backing store of *handle*, with a private-scope check.

        *accessor* is the calling process id; pass ``None`` for internal
        (runtime) access, which bypasses the ownership check.
        """
        try:
            store = self._spaces[handle.id]
        except KeyError:
            raise SpaceError(f"unknown or destroyed tuple space {handle!r}") from None
        owner = self._owners[handle.id]
        if owner is not None and accessor is not None and accessor != owner:
            raise ScopeError(
                f"process {accessor} may not access private space {handle!r} "
                f"owned by process {owner}"
            )
        return store

    def exists(self, handle: TSHandle) -> bool:
        return handle.id in self._spaces

    def handles(self) -> list[TSHandle]:
        """All live handles, in creation (id) order."""
        return [self._handles[hid] for hid in sorted(self._handles)]

    def stable_handles(self) -> list[TSHandle]:
        return [h for h in self.handles() if h.stable]

    def __iter__(self) -> Iterator[tuple[TSHandle, TupleStore]]:
        for hid in sorted(self._spaces):
            yield self._handles[hid], self._spaces[hid]

    def __len__(self) -> int:
        return len(self._spaces)

    # ------------------------------------------------------------------ #
    # replication support
    # ------------------------------------------------------------------ #

    def snapshot(self, *, stable_only: bool = True) -> dict[str, Any]:
        """Serializable image of the registry for state transfer."""
        spaces = []
        for hid in sorted(self._spaces):
            h = self._handles[hid]
            if stable_only and not h.stable:
                continue
            spaces.append(
                {
                    "id": h.id,
                    "name": h.name,
                    "resilience": h.resilience.value,
                    "scope": h.scope.value,
                    "owner": self._owners[hid],
                    "store": self._spaces[hid].snapshot(),
                }
            )
        return {"next_id": self._next_id, "spaces": spaces}

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "SpaceRegistry":
        reg = cls(create_main=False)
        reg._next_id = snap["next_id"]
        for sp in snap["spaces"]:
            handle = TSHandle(
                sp["id"], sp["name"], Resilience(sp["resilience"]), Scope(sp["scope"])
            )
            reg._handles[handle.id] = handle
            reg._owners[handle.id] = sp["owner"]
            reg._spaces[handle.id] = TupleStore.from_snapshot(sp["store"])
        return reg

    def fingerprint(self) -> int:
        """Order-insensitive, process-independent hash of all spaces."""
        from repro.core.matching import stable_hash

        acc = stable_hash(self._next_id)
        for hid in sorted(self._spaces):
            h = self._handles[hid]
            acc ^= stable_hash(
                (h.id, h.name, h.resilience, h.scope, self._owners[hid])
            )
            acc ^= self._spaces[hid].fingerprint() * (hid + 1)
        return acc
