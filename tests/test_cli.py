"""Tests for ftlsh, the interactive FT-Linda shell and its subcommands."""

import io
import json

import pytest

from repro.cli import FtlShell, _parse_value, main


@pytest.fixture
def shell():
    out = io.StringIO()
    sh = FtlShell(out=out)
    return sh, out


def lines_of(out: io.StringIO) -> list[str]:
    return [l for l in out.getvalue().splitlines() if l.strip()]


class TestStatements:
    def test_out_and_in(self, shell):
        sh, out = shell
        sh.handle('out(main, "x", 1)')
        sh.handle('< in(main, "x", ?v:int) >')
        text = out.getvalue()
        assert "ok" in text
        assert "v=1" in text

    def test_probe_miss_reports_no_branch(self, shell):
        sh, out = shell
        sh.handle('< inp(main, "missing", ?v:int) >')
        assert "no branch fired" in out.getvalue()

    def test_abort_reported(self, shell):
        sh, out = shell
        sh.handle('< true => in(main, "never") >')
        assert "aborted" in out.getvalue()

    def test_compile_error_reported_not_raised(self, shell):
        sh, out = shell
        sh.handle("out(nowhere, 1)")
        assert "error:" in out.getvalue()

    def test_comments_and_blanks_ignored(self, shell):
        sh, out = shell
        sh.handle("# comment")
        sh.handle("")
        assert out.getvalue() == ""


class TestCommands:
    def test_space_create_and_dump(self, shell):
        sh, out = shell
        sh.handle(".space scratch volatile")
        sh.handle('out(scratch, "k", 42)')
        sh.handle(".dump scratch")
        assert "('k', 42)" in out.getvalue()

    def test_spaces_listing(self, shell):
        sh, out = shell
        sh.handle(".spaces")
        assert "main" in out.getvalue()

    def test_fail_deposits_failure_tuple(self, shell):
        sh, out = shell
        sh.handle(".fail 7")
        sh.handle('< in(main, "ft_failure", ?h:int) >')
        assert "h=7" in out.getvalue()

    def test_catalog(self, shell):
        sh, out = shell
        sh.handle('< rd(main, "a", ?x:int) or true >')
        sh.handle(".catalog")
        assert "(str, int)" in out.getvalue()

    def test_unknown_command(self, shell):
        sh, out = shell
        sh.handle(".frobnicate")
        assert "unknown command" in out.getvalue()

    def test_quit_stops(self, shell):
        sh, out = shell
        assert sh.running
        sh.handle(".quit")
        assert not sh.running

    def test_load_and_run_program(self, shell, tmp_path):
        sh, out = shell
        src = (
            "space bag stable shared\n"
            'stmt put(v) = out(bag, "task", v)\n'
            'stmt get = < in(bag, "task", ?t:int) >\n'
        )
        f = tmp_path / "p.ftl"
        f.write_text(src)
        sh.handle(f".load {f}")
        sh.handle(".run put v=9")
        sh.handle(".run get")
        assert "t=9" in out.getvalue()

    def test_run_without_program(self, shell):
        sh, out = shell
        sh.handle(".run anything")
        assert "no program loaded" in out.getvalue()


class TestReplLoop:
    def test_scripted_session(self):
        out = io.StringIO()
        sh = FtlShell(out=out)
        script = io.StringIO(
            'out(main, "greeting", "hi")\n'
            '< rd(main, "greeting", ?s:str) >\n'
            ".quit\n"
            'out(main, "never", 1)\n'  # after .quit: not executed
        )
        sh.repl(script, prompt=False)
        text = out.getvalue()
        assert "s='hi'" in text
        assert sh.rt.rdp(sh.rt.main_ts, "never", 1) is None

    def test_eof_terminates(self):
        sh = FtlShell(out=io.StringIO())
        sh.repl(io.StringIO(""), prompt=False)  # returns without hanging


class TestParseValue:
    def test_types(self):
        assert _parse_value("3") == 3
        assert _parse_value("3.5") == 3.5
        assert _parse_value("true") is True
        assert _parse_value("false") is False
        assert _parse_value("hello") == "hello"


class TestMetricsSubcommand:
    def test_json_flag_emits_parseable_snapshot(self, capsys):
        rc = main(
            ["metrics", "--backend", "local", "--ops", "8", "--clients", "2",
             "--json"]
        )
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["histograms"]["ags_e2e"]["count"] >= 8
        assert "clamped" in snap["histograms"]["ags_e2e"]

    def test_human_output_still_default(self, capsys):
        rc = main(["metrics", "--backend", "local", "--ops", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=local" in out and "histograms:" in out


class TestTraceSubcommand:
    def test_local_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(
            ["trace", "--backend", "local", "--ops", "6", "--clients", "2",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"submit_to_order", "apply", "e2e"} <= names
        text = capsys.readouterr().out
        assert "consistency OK" in text

    def test_threaded_trace_checks_consistency(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(
            ["trace", "--backend", "threaded", "--replicas", "3",
             "--ops", "6", "--clients", "2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert {"replica-0", "replica-1", "replica-2", "sequencer"} <= tracks
        assert "consistency OK" in capsys.readouterr().out


class TestWalVerify:
    @staticmethod
    def verify(d, capsys, action="verify"):
        assert main(["wal", action, d]) == 0
        lines = capsys.readouterr().out.splitlines()
        return dict(line.strip().split(": ", 1) for line in lines if ": " in line)

    def test_verify_and_status_on_a_journaling_runtime(self, tmp_path, capsys):
        from repro.core.spaces import MAIN_TS
        from repro.persist import SegmentedWALRuntime

        d = str(tmp_path / "wal")
        rt = SegmentedWALRuntime(d, fsync=False, segment_bytes=512)
        try:
            for i in range(30):
                rt.out(MAIN_TS, "x", i)
            for i in range(10):
                rt.in_(MAIN_TS, "x", i)
            report = self.verify(d, capsys)
            assert report["replayed"] == str(rt.state_machine.applied_count) == "40"
            assert report["fingerprint"] == str(rt.state_machine.fingerprint())
            status = self.verify(d, capsys, "status")
            assert int(status["segments"]) > 1
            assert status["snapshots"] == "0"

            assert rt.compact() == 40
            for i in range(5):
                rt.out(MAIN_TS, "y", i)
            report = self.verify(d, capsys)
            assert report["snapshot_slot"] == "40"
            assert report["replayed"] == "5"
            assert report["fingerprint"] == str(rt.state_machine.fingerprint())
            status = self.verify(d, capsys, "status")
            assert status["snapshots"] == "1"
            assert status["snapshot_slot"] == "40"
        finally:
            rt.close()

    def test_verify_replays_a_group_journal(self, tmp_path, capsys):
        from repro import AGS, Guard, Op, formal, ref
        from repro.parallel import ThreadedReplicaRuntime

        d = str(tmp_path / "journal")
        with ThreadedReplicaRuntime(2, durable_dir=d) as rt:
            ts = rt.main_ts

            def burst(tag):
                for i in range(10):
                    rt.out(ts, tag, i)
                rt.execute(AGS.single(
                    Guard.in_(ts, tag, formal(int, "v")),
                    [Op.out(ts, "took", tag, ref("v") * 2)],
                ))
                rt.quiesce()
                return rt.journal_status()[0], rt.fingerprints()[0]

            st, fingerprint = burst("x")
            report = self.verify(d, capsys)
            assert report["replayed"] == str(st["journal_slot"]) == "11"
            assert report["fingerprint"] == str(fingerprint)
            assert rt.compact_journal() == [11]
            st, fingerprint = burst("y")
            report = self.verify(d, capsys)
            assert report["snapshot_slot"] == "11"
            assert report["replayed"] == str(st["journal_slot"] - 11) == "11"
            assert report["fingerprint"] == str(fingerprint)
