"""Signature-indexed tuple store with deterministic matching.

This is the matching engine underneath every tuple space in the library.
Two properties matter and are enforced here:

**Associative lookup is indexed.**  Following the paper's FT-lcc, which
"analyzes and catalogs the signatures of all patterns" (Sec. 5.2), tuples
are bucketed by *signature* (the ordered list of field type names) and,
within a bucket, by the value of their first field when real programs use
it as a logical channel name ("count", "subtask", …).  A pattern whose
formals are all typed resolves to exactly one bucket; untyped formals fall
back to scanning every arity-compatible bucket.

**Matching is deterministic.**  Replicated state machines (Sec. 5) only
stay consistent if every replica, given the same operation sequence, picks
the *same* tuple for every ``in``/``rd``.  The store therefore stamps each
tuple with a monotonically increasing sequence number and always returns
the *oldest* match (smallest sequence number), the "oldest matching
semantics" the paper attributes to [27].  Iteration order, ``find_all``
order and snapshots are equally deterministic.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Iterator, Mapping

from repro.core.tuples import Formal, LindaTuple, Pattern, type_name

__all__ = [
    "ANY_FIRST",
    "Match",
    "TupleStore",
    "pattern_key",
    "shard_key",
    "shard_of",
    "stable_hash",
]

#: Process-wide gate for per-template match statistics.  Off by default so
#: the match hot path pays exactly one ``is not None`` branch; flipped by
#: :func:`repro.obs.inspect.enable_introspection`, which also exports
#: ``REPRO_INTROSPECT=1`` so spawned replica processes (multiproc backend)
#: come up instrumented too — this module reads the variable at import.
STATS_ENABLED = os.environ.get("REPRO_INTROSPECT", "") == "1"


#: Wildcard partition key: "any first field".  A plain string (picklable,
#: repr-stable) rather than a singleton object so it survives process
#: boundaries by value.  A shard *selector* carrying this value matches
#: every tuple of the space; an AGS whose first field is only known at
#: execution time classifies to this and takes the cross-shard path.
ANY_FIRST = "<any-first-field>"


def stable_hash(obj: Any) -> int:
    """A hash that is identical across *processes* (unlike ``hash(str)``).

    Python salts string hashing per process (PYTHONHASHSEED), so replica
    fingerprints built on ``hash()`` would differ between spawned replica
    processes even for identical state.  ``repr`` of our field values
    (scalars, nested tuples, TSHandles, enums) is canonical, so hashing
    its bytes gives a process-independent digest.
    """
    digest = hashlib.blake2b(repr(obj).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big", signed=True)


def shard_key(space_id: int, first_field: Any) -> int:
    """Stable partition key of ``(space, first-field signature)``.

    Every component that maps a tuple or template to a shard — the AGS
    classifier, the replicated runtime's router, the cross-shard scatter path —
    MUST derive the shard through this helper (or :func:`shard_of`), never
    through builtin ``hash()``: clients and replicas live in different
    processes, and ``hash(str)`` is salted per process (PYTHONHASHSEED),
    so a builtin-hash partitioner would route the same tuple to different
    shards on different hosts.  ``repr`` of field values is canonical
    (same property :func:`stable_hash` relies on for fingerprints), so
    hashing its bytes is process-independent.
    """
    key = (space_id, type(first_field), first_field)
    try:
        cached = _shard_key_cache.get(key)
    except TypeError:  # unhashable first field: compute, skip the cache
        key = None
        cached = None
    if cached is not None:
        return cached
    payload = repr((space_id, first_field)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    value = int.from_bytes(digest, "big", signed=False)
    if key is not None:
        if len(_shard_key_cache) >= _SHARD_KEY_CACHE_CAP:
            _shard_key_cache.clear()
        _shard_key_cache[key] = value
    return value


#: Process-local memo for :func:`shard_key` — routing sits on the submit
#: hot path and real workloads reuse a small set of channel names.  The
#: cache key is type-qualified because ``1``, ``1.0`` and ``True`` are
#: ``==``/hash-equal yet repr (hence shard) distinct; a plain value key
#: would silently alias them.  Using builtin hashing *for the memo* is
#: fine: a hit returns the same digest the miss path would compute.
_shard_key_cache: dict[tuple[int, type, Any], int] = {}
_SHARD_KEY_CACHE_CAP = 1 << 16


def shard_of(space_id: int, first_field: Any, n_shards: int) -> int:
    """The shard owning tuples of *space_id* whose first field is *first_field*."""
    if n_shards <= 1:
        return 0
    return shard_key(space_id, first_field) % n_shards


class Match:
    """Result of a successful match: the tuple, its id and the binding."""

    __slots__ = ("seqno", "tup", "binding")

    def __init__(self, seqno: int, tup: LindaTuple, binding: Mapping[str, Any]):
        self.seqno = seqno
        self.tup = tup
        self.binding = binding

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Match(#{self.seqno}, {self.tup!r}, {dict(self.binding)!r})"


def pattern_key(pattern: Pattern) -> str:
    """Canonical template string of *pattern* for the match profiler.

    Actuals render as their repr, formals as ``?typename`` with names
    stripped — so ``in(ts, "task", ?x:int)`` and ``in(ts, "task", ?y:int)``
    profile as the same hot template ``("task", ?int)``, matching the
    static keys :meth:`repro.core.ags.Op.template_key` derives for parked
    guards.
    """
    parts = [
        f"?{type_name(f.ftype)}" if isinstance(f, Formal) else repr(f)
        for f in pattern.fields
    ]
    return f"({', '.join(parts)})"


class _StoreStats:
    """Per-store match-profiler state (exists only when introspection is on)."""

    __slots__ = ("attempts", "hits")

    def __init__(self) -> None:
        self.attempts: dict[str, int] = {}
        self.hits: dict[str, int] = {}


class TupleStore:
    """A multiset of tuples with indexed, deterministic associative lookup.

    The store is a pure data structure: no locking, no blocking.  Blocking
    semantics (``in`` waiting for a tuple) are layered on top by the state
    machine and runtimes.
    """

    __slots__ = ("_next_seq", "_by_sig", "_key_index", "_size", "_stats")

    def __init__(self) -> None:
        self._next_seq = 0
        # signature -> {seqno: tuple}, insertion ordered (dicts preserve it)
        self._by_sig: dict[tuple[str, ...], dict[int, LindaTuple]] = {}
        # (signature, first-field value) -> {seqno: tuple}
        self._key_index: dict[tuple[tuple[str, ...], Any], dict[int, LindaTuple]] = {}
        self._size = 0
        self._stats = _StoreStats() if STATS_ENABLED else None

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, tup: LindaTuple) -> int:
        """Deposit *tup*; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        sig = tup.signature
        self._by_sig.setdefault(sig, {})[seq] = tup
        self._key_index.setdefault((sig, tup.fields[0]), {})[seq] = tup
        self._size += 1
        return seq

    def _remove_entry(self, sig: tuple[str, ...], seqno: int, tup: LindaTuple) -> None:
        bucket = self._by_sig[sig]
        del bucket[seqno]
        if not bucket:
            del self._by_sig[sig]
        kkey = (sig, tup.fields[0])
        kbucket = self._key_index[kkey]
        del kbucket[seqno]
        if not kbucket:
            del self._key_index[kkey]
        self._size -= 1

    def reinsert(self, seqno: int, tup: LindaTuple) -> None:
        """Undo support: put back a withdrawn tuple under its original id.

        Restoring the original sequence number keeps oldest-first matching
        deterministic across an abort/rollback — the tuple regains exactly
        the priority it had.  Buckets are re-sorted by seqno to restore the
        insertion-order invariant the matcher relies on.
        """
        sig = tup.signature
        bucket = self._by_sig.setdefault(sig, {})
        bucket[seqno] = tup
        if any(s > seqno for s in bucket if s != seqno):
            ordered = dict(sorted(bucket.items()))
            bucket.clear()
            bucket.update(ordered)
        kkey = (sig, tup.fields[0])
        kbucket = self._key_index.setdefault(kkey, {})
        kbucket[seqno] = tup
        if any(s > seqno for s in kbucket if s != seqno):
            ordered = dict(sorted(kbucket.items()))
            kbucket.clear()
            kbucket.update(ordered)
        self._size += 1

    def remove_seqno(self, seqno: int, tup: LindaTuple) -> None:
        """Undo support: withdraw the specific tuple deposited as *seqno*."""
        self._remove_entry(tup.signature, seqno, tup)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def _candidate_buckets(
        self, pattern: Pattern
    ) -> list[tuple[tuple[str, ...], dict[int, LindaTuple]]]:
        """Buckets that could contain a match, cheapest index first."""
        if pattern.exact_signature:
            sig = pattern.signature
            if pattern.first_actual is not None:
                bucket = self._key_index.get((sig, pattern.first_actual))
                return [(sig, bucket)] if bucket else []
            bucket = self._by_sig.get(sig)
            return [(sig, bucket)] if bucket else []
        # Untyped formals: scan arity-compatible buckets whose signature
        # agrees with the pattern at every typed position.  When the first
        # field is a bound actual (the usual channel-name idiom), narrow
        # each compatible signature through the key index instead — buckets
        # holding no tuple with that first field are skipped entirely.
        out = []
        psig = pattern.signature
        arity = pattern.arity
        first = pattern.first_actual
        wild = {i for i, f in pattern.formal_positions if not f.typed}
        for sig, bucket in self._by_sig.items():
            if len(sig) != arity:
                continue
            if not all(sig[i] == psig[i] for i in range(arity) if i not in wild):
                continue
            if first is not None:
                keyed = self._key_index.get((sig, first))
                if keyed:
                    out.append((sig, keyed))
                continue
            out.append((sig, bucket))
        return out

    def find(self, pattern: Pattern, *, remove: bool) -> Match | None:
        """Oldest tuple matching *pattern*; optionally withdraw it.

        This is the engine behind ``in``/``inp`` (``remove=True``) and
        ``rd``/``rdp`` (``remove=False``).
        """
        best_seq: int | None = None
        best_tup: LindaTuple | None = None
        best_sig: tuple[str, ...] | None = None
        for sig, bucket in self._candidate_buckets(pattern):
            for seqno, tup in bucket.items():
                if best_seq is not None and seqno >= best_seq:
                    # buckets are insertion ordered: nothing older remains
                    break
                if pattern.matches(tup):
                    best_seq, best_tup, best_sig = seqno, tup, sig
                    break
        st = self._stats
        if st is not None:
            key = pattern_key(pattern)
            st.attempts[key] = st.attempts.get(key, 0) + 1
            if best_seq is not None:
                st.hits[key] = st.hits.get(key, 0) + 1
        if best_seq is None:
            return None
        assert best_tup is not None and best_sig is not None
        if remove:
            self._remove_entry(best_sig, best_seq, best_tup)
        return Match(best_seq, best_tup, pattern.bind(best_tup))

    def find_all(self, pattern: Pattern, *, remove: bool) -> list[Match]:
        """All matches in sequence-number order (engine behind move/copy)."""
        hits: list[tuple[int, tuple[str, ...], LindaTuple]] = []
        for sig, bucket in self._candidate_buckets(pattern):
            for seqno, tup in bucket.items():
                if pattern.matches(tup):
                    hits.append((seqno, sig, tup))
        hits.sort(key=lambda h: h[0])
        st = self._stats
        if st is not None:
            key = pattern_key(pattern)
            st.attempts[key] = st.attempts.get(key, 0) + 1
            if hits:
                st.hits[key] = st.hits.get(key, 0) + 1
        if remove:
            for seqno, sig, tup in hits:
                self._remove_entry(sig, seqno, tup)
        return [Match(seqno, tup, pattern.bind(tup)) for seqno, sig, tup in hits]

    def withdraw_by_first(self, first: Any | None) -> list[tuple[int, tuple]]:
        """Withdraw every tuple whose first field equals *first* (``None`` → all).

        Returns ``(seqno, fields)`` pairs in deposit order — the cross-shard
        extraction primitive: a shard hands its slice of a partition to the
        coordinator with original sequence numbers attached, so oldest-first
        matching priority survives the round trip.  Untouched by the match
        profiler: this is replication plumbing, not an associative lookup.
        """
        doomed: list[tuple[int, tuple[str, ...], LindaTuple]] = []
        if first is None:
            for sig, bucket in self._by_sig.items():
                for seqno, tup in bucket.items():
                    doomed.append((seqno, sig, tup))
        else:
            for (sig, key), bucket in self._key_index.items():
                if key == first:
                    for seqno, tup in bucket.items():
                        doomed.append((seqno, sig, tup))
        doomed.sort(key=lambda e: e[0])
        for seqno, sig, tup in doomed:
            self._remove_entry(sig, seqno, tup)
        return [(seqno, tup.fields) for seqno, sig, tup in doomed]

    def count(self, pattern: Pattern) -> int:
        """Number of tuples currently matching *pattern*."""
        n = 0
        for _sig, bucket in self._candidate_buckets(pattern):
            for tup in bucket.values():
                if pattern.matches(tup):
                    n += 1
        return n

    def contains(self, pattern: Pattern) -> bool:
        """True when at least one tuple matches *pattern*."""
        return self.find(pattern, remove=False) is not None

    # ------------------------------------------------------------------ #
    # inspection / replication support
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[LindaTuple]:
        """Iterate all tuples in deposit (sequence-number) order."""
        entries: list[tuple[int, LindaTuple]] = []
        for bucket in self._by_sig.values():
            entries.extend(bucket.items())
        entries.sort(key=lambda e: e[0])
        return iter([t for _s, t in entries])

    def to_list(self) -> list[LindaTuple]:
        """All tuples in deposit order (a copy)."""
        return list(iter(self))

    def snapshot(self) -> dict[str, Any]:
        """Serializable image of the store, preserving sequence numbers.

        Used for state transfer when a recovering replica rejoins the group
        (Consul's restart protocol, Sec. 5) and by tests that assert
        replica convergence.
        """
        entries: list[tuple[int, tuple[Any, ...]]] = []
        for bucket in self._by_sig.values():
            for seqno, tup in bucket.items():
                entries.append((seqno, tup.fields))
        entries.sort(key=lambda e: e[0])
        return {"next_seq": self._next_seq, "entries": entries}

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "TupleStore":
        """Rebuild a store byte-for-byte equivalent to ``snapshot()``'s source."""
        store = cls()
        for seqno, fields in snap["entries"]:
            tup = LindaTuple(fields)
            sig = tup.signature
            store._by_sig.setdefault(sig, {})[seqno] = tup
            store._key_index.setdefault((sig, tup.fields[0]), {})[seqno] = tup
            store._size += 1
        store._next_seq = snap["next_seq"]
        return store

    def introspect(self) -> dict[str, Any]:
        """Live-state image for the introspection layer (plain data).

        Occupancy and byte gauges are computed on demand — the hot path
        never maintains them — so a dashboard refresh costs one pass over
        the store, not every ``out`` a bookkeeping write.  ``skew`` is
        max-bucket / mean-bucket: 1.0 means perfectly balanced signature
        buckets, large values mean one signature dominates and untyped
        scans degrade toward linear.
        """
        sizes = [len(b) for b in self._by_sig.values()]
        n_buckets = len(sizes)
        max_bucket = max(sizes) if sizes else 0
        mean_bucket = self._size / n_buckets if n_buckets else 0.0
        st = self._stats
        templates = []
        if st is not None:
            for key, attempts in st.attempts.items():
                templates.append(
                    {
                        "template": key,
                        "attempts": attempts,
                        "hits": st.hits.get(key, 0),
                    }
                )
            templates.sort(key=lambda t: (-t["attempts"], t["template"]))
        nbytes = 0
        for bucket in self._by_sig.values():
            for tup in bucket.values():
                nbytes += len(repr(tup.fields))
        return {
            "tuples": self._size,
            "bytes": nbytes,
            "buckets": n_buckets,
            "max_bucket": max_bucket,
            "skew": (max_bucket / mean_bucket) if mean_bucket else 0.0,
            "templates": templates,
        }

    def fingerprint(self) -> int:
        """Order-sensitive hash of (seqno, fields) pairs.

        Two replicas that applied the same command sequence must have equal
        fingerprints; property tests assert exactly that.
        """
        acc = 0
        for bucket in self._by_sig.values():
            for seqno, tup in bucket.items():
                acc ^= stable_hash((seqno, tup.fields))
        return acc
