#!/usr/bin/env python3
"""Running a textual FT-lcc program (examples/worker.ftl).

The paper's programs are C with embedded FT-Linda syntax, preprocessed by
FT-lcc into request blocks.  This example loads the statement side of a
bag-of-tasks worker from ``worker.ftl``, binds its declared spaces to a
runtime, and drives the computation through the compiled statements —
including the monitor's ``recycle`` statement after a simulated crash.

Run:  python examples/ftl_program_worker.py
"""

import pathlib

from repro import LocalRuntime
from repro.lcc import compile_program


def main() -> None:
    source = (pathlib.Path(__file__).parent / "worker.ftl").read_text()
    rt = LocalRuntime()
    prog = compile_program(source).bind(rt)
    bag, in_progress, results = (
        prog.handles["bag"], prog.handles["prog"], prog.handles["results"]
    )

    for i in range(6):
        rt.out(bag, "task", i)
    print(f"seeded {rt.space_size(bag)} tasks; statements:", prog.names())

    # a worker that crashes while holding its third task
    done = 0
    while True:
        res = rt.execute(*prog.statement("poll"))
        if res.fired == 1:
            break  # bag empty
        t = res["t"]
        if done == 2:
            print(f"worker 'crashes' holding task {t} "
                  f"(in-progress: {rt.space_size(in_progress)})")
            break
        rt.execute(*prog.statement("finish", t=t, r=t * t))
        done += 1

    # the monitor recycles the crashed worker's in-progress subtasks
    rt.execute(*prog.statement("recycle"))
    print(f"recycled; bag has {rt.space_size(bag)} tasks again")

    # a fresh worker drains the rest
    while True:
        res = rt.execute(*prog.statement("poll"))
        if res.fired == 1:
            break
        t = res["t"]
        rt.execute(*prog.statement("finish", t=t, r=t * t))
        done += 1

    got = sorted(
        t[1] for t in rt.space_tuples(results) if t[0] == "result"
    )
    print(f"results for tasks {got} — all six, exactly once")
    assert got == list(range(6))
    # the pattern signatures FT-lcc cataloged for this program
    print("signature catalog:", prog.catalog.signatures())


if __name__ == "__main__":
    main()
