"""The seven workload scripts.

Every workload is a closed loop: each client issues a statement, waits
for its reply, checks the value against what the script expects, and only
then issues the next.  A workload's timed window is a whole number of
fixed-size *rounds* (the statement counts below); per-round rates and
percentiles are what the harness takes medians over.

The seed shapes keys, payloads and statement order only — the runtime
sees the generated statements, never the seed.  Expectations follow
Linda's semantics, not this implementation's: where several tuples match,
any of them is a correct answer, so the scripts track the resident
multiset and accept any member (oldest-first is not assumed).
"""

from __future__ import annotations

import os
import random
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, NamedTuple

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro.parallel import MultiprocessRuntime, ThreadedReplicaRuntime

from benchmarks.suite import adapters
from benchmarks.suite.spec import MAX_CLIENTS, STATEMENT_TIMEOUT_S

_FAILED = object()  # what Client.do returns when the statement raised
_T = STATEMENT_TIMEOUT_S


def n_clients() -> int:
    return max(1, min(MAX_CLIENTS, os.cpu_count() or 1))


def pin_to_one_cpu() -> None:
    """Pin this process, its threads and the replicas it spawns to one CPU.

    Noise control, from what was measured on the 2-vCPU reference VM.
    Left to the kernel, a threaded runtime's threads either share a CPU
    (a hand-off is a context switch) or are spread (a cross-CPU wake-up,
    three times dearer): 2,500 against 850 ping-pong pairs/s, and which
    regime a new process gets, for how long, and when it relapses is
    luck — no warm-up clears it.  A single-threaded LocalRuntime loop
    moved +-15% between rounds from being migrated.  Everything under one
    GIL can use one CPU at a time anyway; for the process backend pinning
    cost no throughput on that box and halved the run-to-run spread.  So
    every workload process and the ladder run pinned, and the numbers are
    one-CPU numbers.  Call before constructing the runtime: threads and
    spawned processes inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Round(NamedTuple):
    statements: int  # client-visible statements completed or failed
    wall_s: float
    latencies: list[float]  # blocking statements only, seconds
    spans: list[tuple]  # (client, op, start, end, statement id) when traced


class Client:
    """One closed-loop client: times, counts and (when traced) spans."""

    def __init__(self, cid: int):
        self.cid = cid
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.spans: list[tuple] | None = None

    def do(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """One blocking statement; returns its result or ``_FAILED``."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            got = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed statement is a count
            got = _FAILED
            self._fail(f"{fn.__name__}{args[1:]}: {type(exc).__name__}: {exc}")
        t1 = perf_counter()
        self.latencies.append(t1 - t0)
        if self.spans is not None:
            self.spans.append((self.cid, fn.__name__, t0, t1, self.attempted))
        return got

    def post(self, rt: Any, ags: AGS) -> None:
        """One pipelined statement: counted, not sampled for latency."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            adapters.post_ags(rt, ags)
        except Exception as exc:  # noqa: BLE001
            self._fail(f"post_ags: {type(exc).__name__}: {exc}")
        if self.spans is not None:
            self.spans.append(
                (self.cid, "post_ags", t0, perf_counter(), self.attempted)
            )

    def expect(self, got: Any, ok: bool, what: str) -> None:
        """Value check; a statement that already raised is not counted twice."""
        if got is not _FAILED and not ok:
            self._fail(f"{what}: got {got!r}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_clients(bodies: list[Callable[[], None]]) -> float:
    """Run *bodies* concurrently, one thread each; wall seconds to the last join."""
    if len(bodies) == 1:
        t0 = perf_counter()
        bodies[0]()
        return perf_counter() - t0
    barrier = threading.Barrier(len(bodies) + 1)
    crashed: list[BaseException] = []

    def run(body: Callable[[], None]) -> None:
        barrier.wait()
        try:
            body()
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            crashed.append(exc)

    threads = [
        threading.Thread(target=run, args=(b,), name=f"suite-client-{i}")
        for i, b in enumerate(bodies)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    if crashed:
        raise crashed[0]
    return wall


class Workload:
    """Base: runtime lifetime, round bookkeeping, the common end checks."""

    name = ""
    layer = ""  # the module whose public functions the clients call
    warmup_rounds = 2

    def __init__(self, seed: int, scale: float = 1.0, journal_dir: str | None = None):
        self.rng = random.Random(seed)
        self.scale = scale
        self.journal_dir = journal_dir
        self.rt: Any = None
        self.clients = [Client(c) for c in range(self.n_roles())]
        self.problems: list[str] = []  # failed end-of-run checks

    def n_roles(self) -> int:
        return n_clients()

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))

    @property
    def ts(self) -> Any:
        return self.rt.main_ts

    # -- lifecycle ------------------------------------------------------ #

    def setup(self) -> None:
        """Construct the runtime, preload resident tuples, warm up."""
        self.rt = self.construct()
        self.preload()
        for _ in range(self.warmup_rounds):
            self.run_round(traced=False)

    def construct(self) -> Any:
        raise NotImplementedError

    def preload(self) -> None:
        pass

    def close(self) -> None:
        if self.rt is not None:
            adapters.shutdown(self.rt)
            self.rt = None

    # -- rounds --------------------------------------------------------- #

    def run_round(self, traced: bool) -> Round:
        before = self.attempted()
        for c in self.clients:
            c.spans = [] if traced else None
        wall = self.round_body()
        latencies: list[float] = []
        spans: list[tuple] = []
        for c in self.clients:
            latencies.extend(c.latencies)
            c.latencies.clear()
            spans.extend(c.spans or ())
            c.spans = None
        return Round(self.attempted() - before, wall, latencies, spans)

    def round_body(self) -> float:
        """One fixed-size round; returns its wall seconds."""
        raise NotImplementedError

    # -- end-of-run checks ---------------------------------------------- #

    def expected_resident(self) -> Counter:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Conservation and convergence; returns the failed checks."""
        adapters.quiesce(self.rt)
        resident = Counter(adapters.resident_tuples(self.rt, self.ts))
        expected = self.expected_resident()
        if resident != expected:
            missing = sum((expected - resident).values())
            extra = sum((resident - expected).values())
            self.problems.append(
                f"conservation: {missing} expected tuples missing, {extra} unexpected"
            )
        if not adapters.converged(self.rt):
            self.problems.append("replicas did not converge")
        return self.problems

    def attempted(self) -> int:
        return sum(c.attempted for c in self.clients)

    def failed(self) -> int:
        return sum(c.failed for c in self.clients)

    def errors(self) -> list[str]:
        return [e for c in self.clients for e in c.errors]


# --------------------------------------------------------------------------- #
# local_core
# --------------------------------------------------------------------------- #

_KEYS = 64
#: The four tuple shapes behind each first-field key: value builders and
#: the formals that match them.
_SHAPES: list[tuple[Callable[[int], tuple], tuple]] = [
    (lambda v: (v,), (formal(int),)),
    (lambda v: (v, v % 97), (formal(int), formal(int))),
    (lambda v: (f"s{v}",), (formal(str),)),
    (lambda v: (v + 0.5,), (formal(float),)),
]
_COUNTERS = 16


def core_fields(v: int) -> tuple[str, int, tuple]:
    """Resident tuple number *v* of local_core: key, shape, fields after the key."""
    bucket = v % (_KEYS * len(_SHAPES))
    return f"k{bucket // len(_SHAPES)}", bucket % len(_SHAPES), _SHAPES[bucket % len(_SHAPES)][0](v)


def core_pattern(key: str, shape: int) -> tuple:
    """The pattern fields matching every resident tuple of (*key*, *shape*)."""
    return (key, *_SHAPES[shape][1])


class LocalCore(Workload):
    """30% out, 30% keyed in_, 20% rd, 10% absent inp, 10% AGS increment."""

    name = "local_core"
    layer = "core.runtime"
    RESIDENT = 50_000
    ROUND = 10_000
    warmup_rounds = 1

    def n_roles(self) -> int:
        return 1

    def construct(self) -> Any:
        return LocalRuntime()

    def preload(self) -> None:
        rt, ts = self.rt, self.ts
        self.model: dict[tuple[str, int], set] = {
            (f"k{j}", s): set() for j in range(_KEYS) for s in range(len(_SHAPES))
        }
        self.buckets = list(self.model)
        self.next_value = 0
        for _ in range(self.scaled(self.RESIDENT, floor=len(self.buckets))):
            key, shape, _rest = core_fields(self.next_value)
            rt.out(ts, key, *self._fresh(key, shape))
        self.counters = [0] * _COUNTERS
        for j in range(_COUNTERS):
            rt.out(ts, "ctr", j, 0)

    def _fresh(self, key: str, shape: int) -> tuple:
        rest = _SHAPES[shape][0](self.next_value)
        self.next_value += 1
        self.model[(key, shape)].add(rest)
        return rest

    def round_body(self) -> float:
        rng, rt, ts, c = self.rng, self.rt, self.ts, self.clients[0]
        model, buckets = self.model, self.buckets
        script = [
            (rng.random(), rng.choice(buckets)) for _ in range(self.scaled(self.ROUND))
        ]
        t0 = perf_counter()
        for r, bucket in script:
            key, shape = bucket
            have = model[bucket]
            if r < 0.30 or (r < 0.80 and not have):
                # a drained bucket turns its in_/rd into an out, so no
                # statement of this single client can ever block
                c.do(rt.out, ts, key, *self._fresh(key, shape))
            elif r < 0.60:
                got = c.do(rt.in_, ts, *core_pattern(key, shape), timeout=_T)
                ok = got is not _FAILED and got.fields[1:] in have
                c.expect(got, ok, f"in_ {key}")
                if ok:
                    have.remove(got.fields[1:])
            elif r < 0.80:
                got = c.do(rt.rd, ts, *core_pattern(key, shape), timeout=_T)
                c.expect(got, got is not _FAILED and got.fields[1:] in have, f"rd {key}")
            elif r < 0.90:
                got = c.do(rt.inp, ts, "absent", shape, formal(int))
                c.expect(got, got is None, "inp on an absent key")
            else:
                j = int(r * 1e6) % _COUNTERS
                got = c.do(
                    rt.execute,
                    AGS.single(
                        Guard.in_(ts, "ctr", j, formal(int, "old")),
                        [Op.out(ts, "ctr", j, ref("old") + 1)],
                    ),
                    timeout=_T,
                )
                ok = (
                    got is not _FAILED
                    and got.succeeded
                    and got.bindings["old"] == self.counters[j]
                )
                c.expect(got, ok, f"increment ctr {j}")
                if ok:
                    self.counters[j] += 1
        return perf_counter() - t0

    def expected_resident(self) -> Counter:
        expected: Counter = Counter()
        for (key, _shape), rests in self.model.items():
            for rest in rests:
                expected[(key, *rest)] += 1
        for j, n in enumerate(self.counters):
            expected[("ctr", j, n)] += 1
        return expected


# --------------------------------------------------------------------------- #
# pingpong, pingpong_mp
# --------------------------------------------------------------------------- #


class PingPong(Workload):
    """The S/Net kernel program: out(ping, i) / in(pong, ?int) and its mirror."""

    name = "pingpong"
    layer = "parallel.threaded"
    PAIRS = 400

    def construct(self) -> Any:
        return ThreadedReplicaRuntime(3)

    def preload(self) -> None:
        self.next_i = self.rng.randrange(1_000_000)

    def round_body(self) -> float:
        rt, ts = self.rt, self.ts
        first = self.next_i
        pairs = self.scaled(self.PAIRS)
        self.next_i += pairs

        def pinger(c: Client) -> None:
            for i in range(first, first + pairs):
                c.do(rt.out, ts, "ping", i)
                got = c.do(rt.in_, ts, "pong", formal(int), timeout=_T)
                c.expect(got, got == ("pong", i), "in_ pong")

        def ponger(c: Client) -> None:
            for i in range(first, first + pairs):
                got = c.do(rt.in_, ts, "ping", formal(int), timeout=_T)
                c.expect(got, got == ("ping", i), "in_ ping")
                c.do(rt.out, ts, "pong", i)

        if len(self.clients) == 1:
            # one core: the single client plays both sides in turn
            c = self.clients[0]

            def both() -> None:
                for i in range(first, first + pairs):
                    c.do(rt.out, ts, "ping", i)
                    got = c.do(rt.in_, ts, "ping", formal(int), timeout=_T)
                    c.expect(got, got == ("ping", i), "in_ ping")
                    c.do(rt.out, ts, "pong", i)
                    got = c.do(rt.in_, ts, "pong", formal(int), timeout=_T)
                    c.expect(got, got == ("pong", i), "in_ pong")

            return run_clients([both])
        a, b = self.clients
        return run_clients([lambda: pinger(a), lambda: ponger(b)])

    def expected_resident(self) -> Counter:
        return Counter()


class PingPongMP(PingPong):
    name = "pingpong_mp"
    layer = "parallel.multiproc"
    PAIRS = 200

    def construct(self) -> Any:
        return MultiprocessRuntime(3)


# --------------------------------------------------------------------------- #
# bag_of_tasks, durable_bag
# --------------------------------------------------------------------------- #


def bag_resident(scale: float) -> list[tuple]:
    """The resident tuples under both bag workloads (and in the journal)."""
    return [(f"k{i % _KEYS}", i) for i in range(max(_KEYS, int(10_000 * scale)))]


def post_resident(rt: Any, resident: list[tuple]) -> None:
    """Pipeline the resident ``out``s, draining every 500: an unbounded
    backlog makes peak memory a matter of how far the replicas fell behind."""
    for i, fields in enumerate(resident, 1):
        adapters.post_ags(rt, AGS.atomic(Op.out(rt.main_ts, *fields)))
        if i % 500 == 0:
            adapters.quiesce(rt)
    adapters.quiesce(rt)


class BagOfTasks(Workload):
    """The paper's E6 shape: pipelined fill, two-step AGS workers, collect."""

    name = "bag_of_tasks"
    layer = "parallel.multiproc"
    TASKS = 250
    warmup_rounds = 1

    def n_roles(self) -> int:
        return 1 + n_clients()  # the master, then the workers: never together

    def construct(self) -> Any:
        return MultiprocessRuntime(3)

    def preload(self) -> None:
        self.resident = bag_resident(self.scale)
        post_resident(self.rt, self.resident)
        self.next_id = 0

    def round_body(self) -> float:
        rt, ts, rng = self.rt, self.ts, self.rng
        master, workers = self.clients[0], self.clients[1:]
        n = self.scaled(self.TASKS)
        payload = {self.next_id + k: rng.randrange(1000) for k in range(n)}
        self.next_id += n
        tickets = iter(range(n))  # next() on a range iterator is atomic

        def fill() -> None:
            for tid, p in payload.items():
                master.post(rt, AGS.atomic(Op.out(ts, "task", tid, p)))
            adapters.quiesce(rt)

        def work(c: Client) -> None:
            w = c.cid
            for _ in tickets:
                got = c.do(
                    rt.execute,
                    AGS.single(
                        Guard.in_(ts, "task", formal(int, "id"), formal(int, "p")),
                        [Op.out(ts, "inprog", ref("id"), w, ref("p"))],
                    ),
                    timeout=_T,
                )
                ok = (
                    got is not _FAILED
                    and got.succeeded
                    and payload.get(got.bindings["id"]) == got.bindings["p"]
                )
                c.expect(got, ok, "take task")
                if not ok:
                    continue
                tid = got.bindings["id"]
                got = c.do(
                    rt.execute,
                    AGS.single(
                        Guard.in_(ts, "inprog", tid, w, formal(int, "p")),
                        [Op.out(ts, "result", tid, ref("p") * 2)],
                    ),
                    timeout=_T,
                )
                ok = got is not _FAILED and got.succeeded
                c.expect(got, ok and got.bindings["p"] == payload[tid], "finish task")

        total = [0]

        def collect() -> None:
            seen: set[int] = set()
            for _ in range(n):
                got = master.do(
                    rt.in_, ts, "result", formal(int), formal(int), timeout=_T
                )
                ok = (
                    got is not _FAILED
                    and got[1] not in seen
                    and payload.get(got[1]) is not None
                    and got[2] == 2 * payload[got[1]]
                )
                master.expect(got, ok, "in_ result")
                if ok:
                    seen.add(got[1])
                    total[0] += got[2]

        wall = run_clients([fill])
        wall += run_clients([lambda c=c: work(c) for c in workers])
        wall += run_clients([collect])
        if total[0] != 2 * sum(payload.values()):
            self.problems.append(
                f"result sum {total[0]} != {2 * sum(payload.values())}"
            )
        return wall

    def expected_resident(self) -> Counter:
        return Counter(self.resident)


class DurableBag(BagOfTasks):
    """bag_of_tasks on a journal: set-up recovers the prepared directory."""

    name = "durable_bag"

    def construct(self) -> Any:
        return MultiprocessRuntime(3, durable_dir=self.journal_dir, durable_fsync=True)

    def preload(self) -> None:
        self.resident = bag_resident(self.scale)
        self.next_id = 0
        recovered = adapters.space_size(self.rt, self.ts)
        if recovered != len(self.resident):
            self.problems.append(
                f"recovered {recovered} tuples, prepared {len(self.resident)}"
            )


def prepare_journal(journal_dir: str, scale: float) -> None:
    """Journal the resident ``out``s into *journal_dir* and shut down.

    The journal is the sequencer's ordered stream, the same records
    whatever carries them to the replicas, so one threaded replica
    writes it; fsync is off because nothing crashes between this and the
    reopen.
    """
    rt = ThreadedReplicaRuntime(1, durable_dir=journal_dir, durable_fsync=False)
    try:
        post_resident(rt, bag_resident(scale))
    finally:
        rt.shutdown()


# --------------------------------------------------------------------------- #
# read_mostly
# --------------------------------------------------------------------------- #

_CFG_KEYS = 64
_CFG_COUNTER = 1000  # client c increments ("cfg", 1000 + c, n)


class ReadMostly(Workload):
    """90% rd on the fast path beside 10% AGS increments, one group."""

    name = "read_mostly"
    layer = "parallel.threaded"
    STATEMENTS = 1_000  # per client per round

    def construct(self) -> Any:
        return ThreadedReplicaRuntime(3)

    def preload(self) -> None:
        self.cfg = {k: self.rng.randrange(1_000_000) for k in range(_CFG_KEYS)}
        for k, v in self.cfg.items():
            self.rt.out(self.ts, "cfg", k, v)
        self.counters = [0] * len(self.clients)
        for c in self.clients:
            self.rt.out(self.ts, "cfg", _CFG_COUNTER + c.cid, 0)

    def round_body(self) -> float:
        rt, ts, cfg = self.rt, self.ts, self.cfg
        n = self.scaled(self.STATEMENTS)
        scripts = [
            [
                self.rng.randrange(_CFG_KEYS) if self.rng.random() < 0.9 else -1
                for _ in range(n)
            ]
            for _ in self.clients
        ]

        def body(c: Client, script: list[int]) -> None:
            mine = _CFG_COUNTER + c.cid
            for k in script:
                if k >= 0:
                    got = c.do(rt.rd, ts, "cfg", k, formal(int), timeout=_T)
                    c.expect(got, got == ("cfg", k, cfg[k]), f"rd cfg {k}")
                    continue
                got = c.do(
                    rt.execute,
                    AGS.single(
                        Guard.in_(ts, "cfg", mine, formal(int, "old")),
                        [Op.out(ts, "cfg", mine, ref("old") + 1)],
                    ),
                    timeout=_T,
                )
                ok = (
                    got is not _FAILED
                    and got.succeeded
                    and got.bindings["old"] == self.counters[c.cid]
                )
                c.expect(got, ok, "increment")
                if ok:
                    self.counters[c.cid] += 1

        return run_clients(
            [lambda c=c, s=s: body(c, s) for c, s in zip(self.clients, scripts)]
        )

    def expected_resident(self) -> Counter:
        expected = Counter(("cfg", k, v) for k, v in self.cfg.items())
        for c in self.clients:
            expected[("cfg", _CFG_COUNTER + c.cid, self.counters[c.cid])] += 1
        return expected


# --------------------------------------------------------------------------- #
# sharded_mix
# --------------------------------------------------------------------------- #

_SHARD_KEYS = 256
#: Its second field is one no resident tuple has: the wildcard statements
#: match on the second field alone and must have one answer each.
SENTINEL = ("sentinel", -1)


class ShardedMix(Workload):
    """Keyed pairs, a wildcard-first-field inp every 50th statement, a
    read of the resident sentinel every 10th.  Each client owns a disjoint
    set of keys, so every answer is checkable whatever the other client does.

    The sentinel read is a blocking ``rd``.  A rung withdraws the whole
    space, the sentinel with it, until its deposit is applied; a strong
    ``rdp`` that lands in between returns ``None`` (ROADMAP item 1's
    violation) — after the client's own rung too, whose deposit is posted,
    not awaited.  How many do is a matter of timing that no two runs
    repeat, and the benchmark's workloads may not fail by chance, so the
    workload reads with ``rd``, which waits the rung out, and the ladder
    runs rounds with ``strong_probe`` to count the violations as a layer
    metric.
    """

    name = "sharded_mix"
    layer = "parallel.threaded"
    RESIDENT = 2_000
    STATEMENTS = 300  # per client per round
    shards = 4
    strong_probe = False

    def construct(self) -> Any:
        return ThreadedReplicaRuntime(3, shards=self.shards)

    def preload(self) -> None:
        self.violations = [0] * len(self.clients)  # sentinel rdp -> None, per client
        resident = self.scaled(self.RESIDENT, floor=_SHARD_KEYS)
        nc = len(self.clients)
        #: per client: key -> resident second fields
        self.owned: list[dict[str, set[int]]] = [{} for _ in self.clients]
        for n in range(resident):
            key = f"s{n % _SHARD_KEYS}"
            self.owned[(n % _SHARD_KEYS) % nc].setdefault(key, set()).add(n)
            adapters.post_ags(self.rt, AGS.atomic(Op.out(self.ts, key, n)))
        adapters.post_ags(self.rt, AGS.atomic(Op.out(self.ts, *SENTINEL)))
        adapters.quiesce(self.rt)
        self.next_wild = [50] * nc
        self.next_probe = [10] * nc

    def round_body(self) -> float:
        rt, ts = self.rt, self.ts
        n = self.scaled(self.STATEMENTS)
        seeds = [self.rng.randrange(1 << 30) for _ in self.clients]

        def body(c: Client, seed: int) -> None:
            rng = random.Random(seed)
            owned = self.owned[c.cid]
            keys = sorted(owned)
            stop = c.attempted + n
            while c.attempted < stop:
                if c.attempted >= self.next_wild[c.cid]:
                    # the cross-shard rung: the second field is unique, so
                    # exactly one tuple can match, and it is this client's
                    self.next_wild[c.cid] += 50
                    key = rng.choice(keys)
                    want = rng.choice(sorted(owned[key]))
                    got = c.do(rt.inp, ts, formal(str), want)
                    c.expect(got, got == (key, want), f"wildcard inp {want}")
                    if got is not _FAILED and got is not None:
                        c.do(rt.out, ts, *got.fields)
                elif c.attempted >= self.next_probe[c.cid]:
                    self.next_probe[c.cid] += 10
                    if self.strong_probe:
                        got = c.do(rt.rdp, ts, SENTINEL[0], formal(int))
                        if got is None:
                            self.violations[c.cid] += 1
                    else:
                        got = c.do(rt.rd, ts, SENTINEL[0], formal(int), timeout=_T)
                    c.expect(got, got == SENTINEL, "read of the resident sentinel")
                else:
                    key = rng.choice(keys)
                    got = c.do(rt.in_, ts, key, formal(int), timeout=_T)
                    ok = got is not _FAILED and got[1] in owned[key]
                    c.expect(got, ok, f"in_ {key}")
                    if ok:
                        c.do(rt.out, ts, key, got[1])

        return run_clients(
            [lambda c=c, s=s: body(c, s) for c, s in zip(self.clients, seeds)]
        )

    def expected_resident(self) -> Counter:
        expected = Counter(
            (key, n) for owned in self.owned for key, ns in owned.items() for n in ns
        )
        expected[SENTINEL] += 1
        return expected


BY_NAME: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        LocalCore, PingPong, PingPongMP, BagOfTasks, DurableBag, ReadMostly,
        ShardedMix,
    )
}


def pipeline_metrics(rt: Any) -> dict[str, float]:
    """The per-workload layer metrics: counts the runtime itself keeps.

    ``LocalRuntime`` applies every command on its own under one lock, so
    it reports a batch of one; a workload without reads has no fast-path
    share to report.
    """
    snap = adapters.metrics_snapshot(rt)
    counters, hists = snap["counters"], snap["histograms"]
    batch = hists.get("batch_size")
    submitted = counters.get("commands_submitted", 0)
    reads = counters.get("read_fastpath", 0) + counters.get("read_fallback", 0)
    return {
        "replication.group.batch_mean": batch["mean"] if batch else 1.0,
        "replication.group.batches_per_cmd": (
            counters["batches_shipped"] / submitted if batch and submitted else 1.0
        ),
        "replication.group.submit_to_order_us": hists["submit_to_order"]["p50"] * 1e6,
        "replication.group.order_to_apply_us": hists["order_to_apply"]["p50"] * 1e6,
        "replication.group.read_fast_share": (
            counters.get("read_fastpath", 0) / reads if reads else 0.0
        ),
    }
