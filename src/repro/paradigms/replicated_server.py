"""A highly available request/reply server with primary/backup failover.

The fault-tolerance literature's classic application of failure
notification: a *primary* server consumes request tuples and deposits
reply tuples; a *backup* blocks on the primary's distinguished failure
tuple; when it appears, the backup atomically claims the primary role,
recovers the requests the primary had taken but not answered (they sit in
the primary's in-progress space, thanks to the take-AGS), and carries on.
Clients never notice beyond latency: every request gets exactly one reply.

The server's own state lives in a stable tuple space, so failover needs
no state reconstruction — exactly the "stable storage" use the paper's
abstract promises ("tuple values are guaranteed to persist across
failures").
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.ags import AGS, Guard, Op, ref
from repro.core.runtime import BaseRuntime, ProcessView
from repro.core.statemachine import FAILURE_TAG
from repro.core.tuples import formal

__all__ = ["ReplicatedServer"]

#: Pseudo-request telling a server loop to exit.
SHUTDOWN = "__svc_stop__"


class ReplicatedServer:
    """One named service: requests in, replies out, state in stable TS.

    Parameters
    ----------
    runtime:
        Any FT-Linda runtime.
    name:
        Service name; all its tuples are tagged with it.
    handler:
        ``handler(state, payload) -> (reply, new_state)`` — a pure
        function run in the server process.
    initial_state:
        Starting value of the service state tuple.
    """

    def __init__(
        self,
        runtime: BaseRuntime,
        name: str,
        handler: Callable[[Any, Any], tuple[Any, Any]],
        initial_state: Any,
    ):
        self.runtime = runtime
        self.name = name
        self.handler = handler
        self.main = runtime.main_ts
        runtime.out(self.main, name, "state", initial_state)

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #

    def request(self, api: Any, req_id: int, payload: Any) -> Any:
        """Submit a request and block for its reply."""
        api.out(self.main, self.name, "req", req_id, payload)
        return api.in_(self.main, self.name, "rep", req_id, formal())[3]

    def shutdown(self) -> None:
        self.runtime.out(self.main, self.name, "req", -1, SHUTDOWN)

    # ------------------------------------------------------------------ #
    # server side
    # ------------------------------------------------------------------ #

    def serve(
        self,
        proc: ProcessView,
        host_id: int,
        *,
        crash_after: int | None = None,
    ) -> int:
        """Server loop; returns the number of requests answered.

        ``crash_after=k`` makes the server die holding its (k+1)-th
        request — inside the vulnerable window — for failover tests.
        """
        prog = proc.create_space(f"{self.name}.prog.{host_id}")
        proc.out(self.main, self.name, "serving", host_id, prog)
        take = AGS.single(
            Guard.in_(self.main, self.name, "req", formal(int, "id"),
                      formal(object, "x")),
            [Op.out(prog, self.name, "req", ref("id"), ref("x"))],
        )
        answered = 0
        while True:
            res = proc.execute(take)
            req_id, payload = res["id"], res["x"]
            if payload == SHUTDOWN:
                proc.execute(AGS.single(
                    Guard.in_(self.main, self.name, "serving", host_id,
                              formal(object, "p")),
                    [Op.in_(prog, self.name, "req", req_id, SHUTDOWN)],
                ))
                return answered
            if crash_after is not None and answered >= crash_after:
                return answered  # dies with the request in its prog space
            state = proc.rd(self.main, self.name, "state", formal())[2]
            reply, new_state = self.handler(state, payload)
            # answer + state transition + request retirement: indivisible
            proc.execute(AGS.single(
                Guard.in_(prog, self.name, "req", req_id, payload),
                [
                    Op.in_(self.main, self.name, "state", state),
                    Op.out(self.main, self.name, "state", new_state),
                    Op.out(self.main, self.name, "rep", req_id, reply),
                ],
            ))
            answered += 1

    def backup(self, proc: ProcessView, primary_host: int, my_host: int) -> int:
        """Hot backup: waits for the primary's failure tuple, then serves.

        Returns the number of requests answered after taking over.
        """
        proc.in_(self.main, FAILURE_TAG, primary_host)
        # atomically take over the serving registration and recover the
        # requests the primary died holding
        res = proc.execute(AGS.single(
            Guard.in_(self.main, self.name, "serving", primary_host,
                      formal(object, "oldprog")),
            [Op.move(ref("oldprog"), self.main, self.name, "req",
                     formal(int), formal(object))],
        ))
        assert res.succeeded, res.error
        return self.serve(proc, my_host)

    # ------------------------------------------------------------------ #
    # demo orchestration
    # ------------------------------------------------------------------ #

    def run_with_failover(
        self,
        n_requests: int,
        payloads: Callable[[int], Any],
        *,
        crash_after: int,
    ) -> dict[str, Any]:
        """Serve *n_requests* with the primary crashing mid-run.

        The primary runs as host 101 and the backup as host 102.

        Returns ``{"replies", "primary_answered", "backup_answered"}``.
        """
        rt = self.runtime
        primary_host = 101
        hp = rt.eval_(
            lambda proc, h: self.serve(proc, h, crash_after=crash_after),
            primary_host,
        )
        hb = rt.eval_(self.backup, primary_host, 102)

        replies: dict[int, Any] = {}
        client_done: list[int] = []

        def client(proc: ProcessView) -> None:
            for i in range(n_requests):
                replies[i] = self.request(proc, i, payloads(i))
            client_done.append(1)

        hc = rt.eval_(client)
        # wait for the primary to die, then deliver the failure notification
        while not hp.done:
            time.sleep(0.002)
        rt.inject_failure(primary_host)
        primary_answered = hp.join(timeout=30)
        hc.join(timeout=30)
        self.shutdown()
        backup_answered = hb.join(timeout=30)
        return {
            "replies": replies,
            "primary_answered": primary_answered,
            "backup_answered": backup_answered,
        }
