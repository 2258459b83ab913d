"""Compiling an operation's fields changes no byte it is written as.

The compiled form of an :class:`~repro.core.ags.Op` lives beside its four
fields and never travels: a statement pickles as it did before the form
existed, a journal and a snapshot written by the same history are the same
files, and a directory written before opens to the same state.  Each
reference below was written by the commit before the compiled form — a
pickled statement, the digests of one history's files, that directory
itself and its fingerprint.
"""

from __future__ import annotations

import base64
import hashlib
import io
import os
import pickle
import tarfile
import threading
import time

from repro import AGS, Guard, LocalRuntime, Op, formal, ref
from repro.core.ags import Expr, Param
from repro.core.spaces import MAIN_TS
from repro.persist import SegmentedWALRuntime


def statement(ts):
    """A plan with a hole, formals, a formal reference, an expression, a
    constant tuple, a body probe and a move."""
    return AGS.single(
        Guard.in_(ts, "task", Param(0), formal(int, "p")),
        [Op.out(ts, "done", ref("p"), Expr("mul", [ref("p"), 2]), (1, "a")),
         Op.rdp(ts, "cfg", formal(str, "c")),
         Op.move(ts, ts, "old", formal(int))],
    )


def history(rt):
    """Classic operations and plans, then a compaction while one statement
    is parked (so the snapshot holds it), then more of both."""
    ts = rt.main_ts
    rt.out(ts, "cfg", "x")
    for i in range(20):
        rt.out(ts, "task", i, i * 3)
        rt.out(ts, "old", i)
    for i in range(10):
        rt.execute(statement(ts), (i,))
        rt.in_(ts, "done", formal(int), formal(int), formal(tuple))
    parked = threading.Thread(target=rt.in_, args=(ts, "never", formal(int)))
    parked.start()
    while not rt.state_machine.blocked:
        time.sleep(0.001)
    rt.compact()  # the snapshot holds the parked statement
    rt.out(ts, "never", 1)
    parked.join()
    for i in range(10, 15):
        rt.execute(statement(ts), (i,))
    rt.inp(ts, "absent", formal())
    rt.rdp(ts, "task", 19, formal(int))


#: ``pickle.dumps(statement(MAIN_TS), protocol=pickle.HIGHEST_PROTOCOL)``
_PARENT_STATEMENT = """
gAWVOAMAAAAAAACMDnJlcHJvLmNvcmUuYWdzlIwDQUdTlJOUaACMBkJyYW5jaJSTlCmBlE59lCiM
BWd1YXJklGgAjAVHdWFyZJSTlCmBlE59lCiMBGtpbmSUaACMCUd1YXJkS2luZJSTlIwCb3CUhZRS
lGgPaACMAk9wlJOUKYGUTn2UKIwEY29kZZRoAIwGT3BDb2RllJOUjAJpbpSFlFKUjAJ0c5RoAIwF
Q29uc3SUk5QpgZROfZSMBXZhbHVllIwRcmVwcm8uY29yZS5zcGFjZXOUjAdfaGFuZGxllJOUKEsA
jARtYWlulIiIdJRSlHOGlGKMBmZpZWxkc5RoHimBlE59lGghjAR0YXNrlHOGlGJoAIwFUGFyYW2U
k5QpgZROfZSMBWluZGV4lEsAc4aUYowRcmVwcm8uY29yZS50dXBsZXOUjAZGb3JtYWyUk5QpgZRO
fZQojAVmdHlwZZSMCGJ1aWx0aW5zlIwDaW50lJOUjARuYW1llIwBcJR1hpRih5SMA3RzMpROdYaU
YnWGlGKMBGJvZHmUaBMpgZROfZQoaBZoGIwDb3V0lIWUUpRoHGgeKYGUTn2UaCFoJ3OGlGJoKSho
HimBlE59lGghjARkb25llHOGlGJoAIwJRm9ybWFsUmVmlJOUKYGUTn2UaD1oPnOGlGJoAIwERXhw
cpSTlCmBlE59lCiMAmZulIwDbXVslIwEYXJnc5RoUimBlE59lGg9aD5zhpRiaB4pgZROfZRoIUsC
c4aUYoaUdYaUYmgeKYGUTn2UaCFLAYwBYZSGlHOGlGJ0lGhBTnWGlGJoEymBlE59lChoFmgYjANy
ZHCUhZRSlGgcaB4pgZROfZRoIWgnc4aUYmgpaB4pgZROfZRoIYwDY2ZnlHOGlGJoNimBlE59lCho
OWg6jANzdHKUk5RoPYwBY5R1hpRihpRoQU51hpRiaBMpgZROfZQoaBZoGIwEbW92ZZSFlFKUaBxo
HimBlE59lGghaCdzhpRiaCloHimBlE59lGghjANvbGSUc4aUYmg2KYGUTn2UKGg5aDxoPU51hpRi
hpRoQWgeKYGUTn2UaCFoJ3OGlGJ1hpRih5R1hpRihZSFlFKULg==
"""

#: What :func:`history` left in a ``SegmentedWALRuntime(dir, fsync=False)``.
_PARENT_FILES = {
    "MANIFEST": "ac6954ddd7e08bc13485c5bca80538d4e0d9dad2aea3fa416344b117cfe68fa5",
    "segment-00000000.log": "7a3a18120ea2b9254df3088870c2e9a64b4afb52af7ec9a439e69fe46bb151d4",
    "snapshot-0000000000000062.snap": "cc5ace13f427894666b775f21506ebd766a5d31106a6516ca27887db915f24f7",
}
_PARENT_FINGERPRINT = 183046945139793603

#: That directory, as an xz tarball (``wal/…``).
_PARENT_DIRECTORY = """
/Td6WFoAAATm1rRGAgAhARYAAAB0L+Wj4Hf/CDpdABcL3ASAUDIm7h19G/PyyzPs7Pg38OrWe3gP
WFZ6CP2VNw3xKgawSZws/GpIL825nFhriL4SYpvRmf3qDcLvJvG4nZTbnF9LFdaKMKOKbx1eXPcH
kXJk20a4FN7g1E+4vMPNOta70BwYLqMb5Ue144EAEexrI6809Kt+/hAyoyUb4LT+4/8ylZwWRSel
RyHU9pOn2pLrAVE59aSgCRFrdwHflTgt+n+sjUmXtFmsd3G/5C9va+K7Y4vjoyH7954PPXEwrJWY
hENwcN+Zphbzj4t5a6XgN/boEQi04j/GisFOpWhNEw2+aUQa+KV+rloeqaEkBgUlQeX17cjm9lfX
6wuTpWGJhQJh56nGsRdNVp/mN47C6zCSX2HqxvjlqjVV8TvS0oh4v27mwNvSHT5wZLElKuDDAz7w
W1bu2sCov6i8HVGmCjJ/KbtXCFG2o7VJ2dMkrxPqZ2/qdaNEVZGroaTTvFIQ2D3X8wNmCwGI/Bzm
VihKxHsrwz4KpUtOqmNuHcA1nRRzAU51OAt9Z/UXxpCwxE/qpl/65lVhk+PUd1PgecVIAf3dHpeJ
CwZLRA0OkTlHhxDkzCWIbfMASHx0dfA4A0IXiYfQKB5sOf2aS4Qr/rcVuSWyVdjgXcfgKbnz9sUE
85AFYqlf7LeIXn2ALbPQQt3Ajc4DtvgUwigTbXpI0Uc152Id59ipmGdN0XEBnCykVKhCQ80MhjQt
GaweTgOrV6kFtVIoAw9jqEciYMhyMHlgWAAxaf5eLIDiaO3W4ZddsIIkbJ9gs8qrBizq+wzBbxHm
HXgbCp4xXCEEMarFgC2byZpCv/hfESsis/uKgUwXBMdVVh40xLJ3KHAc0lVuoQ2DHtKjY9grGX5v
3jycOEhKWFP4Y6elUc17Oxq0vRlYF7RR34r07isP2j0GyJacXBiUL+3ITXdreKW3W4r06KsLErfb
g+JRo2I6mHTz6rtBImM+b+cPwushlFPa1rhrjuGYaSUxiZX7vTm8MOj2f0myZLvpzNq6OJQopsiU
AwqLfHflk31Xqulwxd5CixKtXAJic5wGeM4UhOu6xHd37Cmr142P4SP9wAKdQhZqaSXgKq9FHne7
/LsMJZsy//gTvC7+M7Qg2FzdPxqSF5cf9Q9qIOfmQC+3x+07xNvj3AaBWhNsTUw4jrT0odfm8xEQ
xF5cw7MqZgdu6nI74Clm978QE+nfZ8RCamKWr7bi2hDudWl2Okoy5KjW6/YeswbLjl3+IKocrcfG
TaoluAucM29ISoIZ39o2CE73WogG2BEX0xvQQed3PfxrIfUH7+M5bW0DSzMTq/NlYpRjO9KmywMs
5cBRaDiPGB4emajut27l4maf7B/g4w4LRyYrrVta5ZfDNd//PqwrMfQI38cp1MGzCcHcrvjqZ3Vx
sDxcXaP/5mEHjPl8P6l31PK3J1RAlLpxC3lSfnawQLgWdgVJMH2sZuoJWLMTeO5wNYP3TCswr35T
GqXR0RR2QkhVYCPyECg6bEyYDdqo/HLSL8CPp/tyrQ/No28l1RxyUpMN4EXAxpbNE+j8q5VDiQrP
StxrRglRjTW3LfySqtxz2dR9WXdbblrPDMl1cba72RoJUm081/RMn+CdlfiYM6gXzXeESxtLfjDl
rDhE2NbJm9b1+k81eOD/5R7lkLIOCOvcgBMyb7mkEDZr3rdnS+f3L3C3Lin+FBaKIqUnLyXVZCfe
kOeCxoRrpAX3iZ7ffYTz5txSTQegyRZPT3nsNYoBt70Xt7cskORLs7FE9TJb+rynIlDGZM47EgoP
tlv5Xj1EIoRC6NPVH6wdQju9EEL4G5V7I4lYQnSYzss7aIGfAfDUSuQrajC/yiyqL7jpEH8lUy95
Yf2uEZqexuv1uviiK7H2YW8x99BBa08rnQWvthODTWbxpBzCYN3WAio8YwY+wZs8MBWgO8l1bLkd
1wwErSfOOt6kLMdCkWRopllQS63IuT0t58lfrlPD3HLa0sDzXPU1BsEAqbucJDUbivWDrD/oo3le
nwAp69xMABcDNrS47UC9136cVz60iAlxEMAjbR3RW14jwjkyfaWJrrwmX6nB2H7Afhcy7iFcxk97
F2Av8kcbbyiLvwMfMI+dLQrfbSaE9wGsIFqZvJG+KYsz1SEw2tK2k8n33kydFNumekjcX4kQwdOQ
p/rgJJJiSQXAnmsBrgK1qUr3VuU0DSfemTTu1oQmfFTFMSDmkq9v/MEjX7+ABKKLpkIJ6KYkqmJ9
pVXGAeXjCt9Jw1hYksCO6zA8IlapxpndNrnDeipmZeZNoQ2sOfqWdMUlvkXkEuTVk78S6WGD69to
SPnJstSvaDeefOzjzwBl28FmVXEmTuAa5bMtl/mcH4g6qa2tj3d8JFWPpctrYYe9nPEVx5qwMBZ+
GRx0L/BWo/UDvToeqYDAfmiKcZwIlHl1f/+u5Ve7ZkovwKsF3ze0DohdYDS6BYaFedEFTtZAxjIj
J94rexFX3Wi7e0dlVHQMilGxd643TtkHlE2ko6ejzAnIIMKzCoTOdv6QxoermV7GX0dWMS0H/JBC
qVj8FyE31h9AwONQ3x0k4YReV9HpqbGAg1BnKMaNgTomfboJCyH6x84EdjbUnWPrVbL3m3YAPfRm
11xUdkTKbpGtiIR8+OAJ3ML9aS0KToRKoPyxAZlzNK1BV8OvT4VezCczV9Rx/SjFad2JsI7ZJ6ds
IWdhDGU+FK83CS1KP8hK0LM6weID1UKcVdf/HIF0V5q2beiR9nw1G3zjAy4pd/XJO/WEPmMmgHhE
5ymPn8of40FxcAgklXrQztEmxWNQ6OV+DAjCAAAAAKZcC0Ucx1dJAAHWEIDwAQDHSFQmscRn+wIA
AAAABFla
"""


def _digests(d):
    return {
        name: hashlib.sha256(open(os.path.join(d, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(d))
    }


def test_a_statement_pickles_to_the_same_bytes_and_old_pickles_run():
    blob = base64.b64decode(_PARENT_STATEMENT)
    fresh = statement(MAIN_TS)
    assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == blob
    with LocalRuntime() as rt:
        rt.out(MAIN_TS, "task", 7, 21)
        rt.out(MAIN_TS, "cfg", "x")
        assert rt.execute(fresh, (7,)).succeeded  # compiled now: no new bytes
        assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == blob
        old = pickle.loads(blob)
        assert old == fresh
        rt.out(MAIN_TS, "task", 8, 4)
        res = rt.execute(old, (8,))
        assert (res.fired, res.bindings, res.probe_results) == (
            0, {"p": 4, "c": "x"}, {1: True}
        )
        assert rt.in_(MAIN_TS, "done", 4, formal(int), formal(tuple)) == ("done", 4, 8, (1, "a"))


def test_the_same_history_writes_the_same_journal_and_snapshot(tmp_path):
    d = str(tmp_path / "wal")
    rt = SegmentedWALRuntime(d, fsync=False)
    history(rt)
    assert rt.state_machine.fingerprint() == _PARENT_FINGERPRINT
    rt.close()
    assert _digests(d) == _PARENT_FILES


def test_a_directory_written_before_reopens_to_the_same_state(tmp_path):
    blob = base64.b64decode(_PARENT_DIRECTORY)
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:xz") as tar:
        tar.extractall(tmp_path, filter="data")
    d = str(tmp_path / "wal")
    assert _digests(d) == _PARENT_FILES
    rt = SegmentedWALRuntime(d, fsync=False)
    assert rt.state_machine.fingerprint() == _PARENT_FINGERPRINT
    # and it runs on: the journaled plans' operations compile where they land
    assert rt.execute(statement(rt.main_ts), (15,)).succeeded
    assert rt.rdp(rt.main_ts, "done", 45, 90, (1, "a")) == ("done", 45, 90, (1, "a"))
    rt.close()
