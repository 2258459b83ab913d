"""Two-phase-commit replicated tuple space (the Xu–Liskov/PLinda design).

Section 6 of the paper contrasts FT-Linda with designs that replicate the
tuple space and update it with "locks and a general commit protocol":
"While sufficient, these techniques are expensive, requiring multiple
rounds of message passing between the processors hosting replicas" — and
"all the designs discussed in this section require multiple messages to
update the TS replicas."  This module implements that family's canonical
member so experiment E4 can measure the difference on the *same* network
model the FT-Linda cluster uses:

- every host holds a full replica (a :class:`~repro.core.matching.TupleStore`
  per space);
- the client's host *coordinates*: it resolves the update's matches
  against its own replica under local locks, producing a concrete
  **effect set** (exact tuples to remove, tuples to add);
- phase 1 — ``PREPARE(effect set)`` broadcast; each replica tries to lock
  the removed tuples by content and votes with a unicast ``VOTE``;
- phase 2 — ``COMMIT``/``ABORT`` broadcast; replicas apply or release;
- conflicts (a tuple already locked, or already consumed by a concurrent
  committed update) abort and retry after a seeded random backoff.

Per committed update: **2 broadcasts + (N−1) unicast votes**, and two
network round trips of latency, versus FT-Linda's single ordered
broadcast.  That ratio — not absolute times — is the paper's argument.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable

from repro.core.matching import TupleStore
from repro.core.tuples import LindaTuple, Pattern
from repro.consul.network import BROADCAST, EthernetSegment, NIC
from repro.sim.kernel import SimEvent, Simulator
from repro.xkernel.message import Message

__all__ = ["TwoPhaseCluster", "TwoPhaseConfig"]


@dataclasses.dataclass
class TwoPhaseConfig:
    """Cluster shape and timing (mirrors ClusterConfig where it overlaps)."""

    n_hosts: int = 3
    seed: int = 0
    bandwidth_bps: float = 10_000_000.0
    propagation_us: float = 50.0
    cpu_us_per_msg: float = 1_000.0
    backoff_min_us: float = 500.0
    backoff_max_us: float = 5_000.0
    backoff_factor: float = 1.5
    max_retries: int = 500


@dataclasses.dataclass
class TwoPhaseStats:
    commits: int = 0
    aborts: int = 0
    retries: int = 0


def _multiset(store: TupleStore) -> dict:
    counts: dict = {}
    for t in store:
        counts[t.fields] = counts.get(t.fields, 0) + 1
    return counts


class _Update:
    """A multi-op tuple-space update, expressed like a tiny transaction.

    ``takes`` are patterns to withdraw (each must match), ``puts`` are
    functions from the take bindings to new tuples — enough expressiveness
    for the fetch-and-update workloads E4 measures, without rebuilding the
    whole AGS machinery a second time.
    """

    __slots__ = ("takes", "puts")

    def __init__(
        self,
        takes: list[Pattern],
        puts: Callable[[list[dict[str, Any]]], list[tuple[Any, ...]]],
    ):
        self.takes = takes
        self.puts = puts


class _Replica:
    """Per-host replica state: stores plus content locks."""

    def __init__(self) -> None:
        self.store = TupleStore()
        # lock table: fields-tuple -> count of locked instances
        self.locks: dict[tuple, int] = {}
        # txn -> removes we granted locks for (so ABORT releases only what
        # *this* replica actually locked)
        self.granted: dict[int, list[tuple]] = {}

    def can_lock(self, fields_list: list[tuple]) -> bool:
        """All requested instances present and not already locked."""
        need: dict[tuple, int] = {}
        for f in fields_list:
            need[f] = need.get(f, 0) + 1
        for fields, n in need.items():
            held = self.locks.get(fields, 0)
            available = self.store.count(Pattern(fields))
            if available - held < n:
                return False
        return True

    def lock(self, fields_list: list[tuple]) -> None:
        for f in fields_list:
            self.locks[f] = self.locks.get(f, 0) + 1

    def unlock(self, fields_list: list[tuple]) -> None:
        for f in fields_list:
            n = self.locks.get(f, 0) - 1
            if n <= 0:
                self.locks.pop(f, None)
            else:
                self.locks[f] = n

    def apply(self, removes: list[tuple], adds: list[tuple]) -> None:
        for fields in removes:
            m = self.store.find(Pattern(fields), remove=True)
            assert m is not None, f"commit lost tuple {fields!r}"
        for fields in adds:
            self.store.add(LindaTuple(fields))


class TwoPhaseCluster:
    """N replicas of a tuple space updated by coordinator-driven 2PC."""

    def __init__(self, config: TwoPhaseConfig | None = None, **overrides: Any):
        if config is None:
            config = TwoPhaseConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.segment = EthernetSegment(
            self.sim,
            bandwidth_bps=config.bandwidth_bps,
            propagation_us=config.propagation_us,
        )
        self.stats = TwoPhaseStats()
        self.replicas = [_Replica() for _ in range(config.n_hosts)]
        self._txn_ids = itertools.count(1)
        self._cpu_free = [0.0] * config.n_hosts
        # in-flight coordinator state: txn -> dict
        self._coord: dict[int, dict[str, Any]] = {}
        for hid in range(config.n_hosts):
            self.segment.attach(NIC(hid, self._make_receiver(hid)))

    # ------------------------------------------------------------------ #
    # seeding / inspection
    # ------------------------------------------------------------------ #

    def seed_tuple(self, *fields: Any) -> None:
        """Deposit a tuple on every replica (initial state, no protocol)."""
        for r in self.replicas:
            r.store.add(LindaTuple(fields))

    def store_of(self, host: int) -> TupleStore:
        return self.replicas[host].store

    def converged(self) -> bool:
        """Content equality across replicas (multisets of tuple fields).

        Deliberately weaker than the FT-Linda cluster's seqno-sensitive
        fingerprint: without a total order, concurrent disjoint commits
        apply in different arrival orders at different replicas, so
        *deposit order* — and therefore oldest-first matching priority —
        is not replicated.  That is a real (and honest) deficiency of the
        lock-based design relative to the paper's: contents converge,
        matching determinism does not.
        """
        prints = set()
        for r in self.replicas:
            prints.add(frozenset(
                (fields, count)
                for fields, count in _multiset(r.store).items()
            ))
        return len(prints) <= 1

    # ------------------------------------------------------------------ #
    # the client operation
    # ------------------------------------------------------------------ #

    def update(
        self,
        host: int,
        takes: list[Pattern],
        puts: Callable[[list[dict[str, Any]]], list[tuple[Any, ...]]],
    ) -> SimEvent:
        """Run a 2PC update coordinated by *host*; event fires on commit."""
        done = self.sim.event(f"2pc@{host}")
        self._attempt(host, _Update(takes, puts), done, 0)
        return done

    # ------------------------------------------------------------------ #
    # coordinator
    # ------------------------------------------------------------------ #

    def _cpu(self, host: int, fn: Callable[..., None], *args: Any) -> None:
        start = max(self.sim.now, self._cpu_free[host])
        self._cpu_free[host] = start + self.config.cpu_us_per_msg
        self.sim.schedule(self._cpu_free[host] - self.sim.now, fn, *args)

    def _attempt(self, host: int, upd: _Update, done: SimEvent, tries: int) -> None:
        if tries > self.config.max_retries:
            raise RuntimeError("2PC update exceeded retry budget")
        replica = self.replicas[host]
        # resolve matches locally under local locks
        bindings: list[dict[str, Any]] = []
        removes: list[tuple] = []
        ok = True
        for pattern in upd.takes:
            m = self._find_unlocked(replica, pattern, removes)
            if m is None:
                ok = False
                break
            removes.append(m.tup.fields)
            bindings.append(dict(m.binding))
        if not ok or not replica.can_lock(removes):
            self._backoff(host, upd, done, tries)
            return
        adds = [tuple(f) for f in upd.puts(bindings)]
        replica.lock(removes)
        txn = next(self._txn_ids)
        self._coord[txn] = {
            "host": host,
            "removes": removes,
            "adds": adds,
            "votes": {host: True},
            "done": done,
            "upd": upd,
            "tries": tries,
            "decided": False,
        }
        msg = Message(("PREPARE", txn, host, removes, adds))
        self.segment.transmit(host, BROADCAST, msg)

    def _find_unlocked(self, replica: _Replica, pattern: Pattern, already: list[tuple]):
        """Oldest match not locked and not already claimed by this update."""
        for m in replica.store.find_all(pattern, remove=False):
            f = m.tup.fields
            held = replica.locks.get(f, 0) + already.count(f)
            if replica.store.count(Pattern(f)) > held:
                return m
        return None

    def _backoff(self, host: int, upd: _Update, done: SimEvent, tries: int) -> None:
        self.stats.retries += 1
        delay = self.sim.rng.uniform(
            self.config.backoff_min_us, self.config.backoff_max_us
        ) * self.config.backoff_factor ** min(tries, 10)
        self.sim.schedule(delay, self._attempt, host, upd, done, tries + 1)

    # ------------------------------------------------------------------ #
    # participants
    # ------------------------------------------------------------------ #

    def _make_receiver(self, hid: int):
        def receive(msg: Message, src: int) -> None:
            self._cpu(hid, self._handle, hid, msg.payload, src)

        return receive

    def _handle(self, hid: int, payload: tuple, src: int) -> None:
        kind = payload[0]
        if kind == "PREPARE":
            _k, txn, coord, removes, adds = payload
            replica = self.replicas[hid]
            granted = replica.can_lock(removes)
            if granted:
                replica.lock(removes)
                replica.granted[txn] = removes
            self.segment.transmit(hid, coord, Message(("VOTE", txn, granted)))
        elif kind == "VOTE":
            _k, txn, granted = payload
            state = self._coord.get(txn)
            if state is None or state["decided"]:
                return
            state["votes"][src] = granted
            if not granted:
                self._decide(txn, False)
            elif len(state["votes"]) == self.config.n_hosts:
                self._decide(txn, True)
        elif kind == "COMMIT":
            _k, txn, removes, adds = payload
            replica = self.replicas[hid]
            if replica.granted.pop(txn, None) is not None:
                replica.unlock(removes)
            replica.apply(removes, adds)
        elif kind == "ABORT":
            _k, txn, removes = payload
            replica = self.replicas[hid]
            if replica.granted.pop(txn, None) is not None:
                replica.unlock(removes)

    def _decide(self, txn: int, commit: bool) -> None:
        state = self._coord[txn]
        state["decided"] = True
        host = state["host"]
        removes, adds = state["removes"], state["adds"]
        replica = self.replicas[host]
        if commit:
            self.segment.transmit(
                host, BROADCAST, Message(("COMMIT", txn, removes, adds))
            )
            replica.unlock(removes)
            replica.apply(removes, adds)
            self.stats.commits += 1
            del self._coord[txn]
            state["done"].succeed(self.sim.now)
        else:
            self.segment.transmit(host, BROADCAST, Message(("ABORT", txn, removes)))
            replica.unlock(removes)
            self.stats.aborts += 1
            del self._coord[txn]
            self._backoff(host, state["upd"], state["done"], state["tries"])
