"""Tests for the command-line interface (python -m repro ...)."""

import pytest

from repro.__main__ import main


class TestCLI:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["sort", "--n", "256", "--v", "4"],
            ["permute", "--n", "256", "--v", "4"],
            ["transpose", "--n", "256", "--v", "4"],
            ["listrank", "--n", "128", "--v", "4"],
            ["cc", "--n", "64", "--v", "4"],
            ["hull", "--n", "128", "--v", "4"],
            ["delaunay", "--n", "48", "--v", "4"],
        ],
    )
    def test_subcommands_run(self, cmd, capsys):
        assert main(cmd) == 0
        out = capsys.readouterr().out
        assert "parallel I/O operations" in out
        assert "lambda" in out

    def test_sort_with_baselines(self, capsys):
        assert main(["sort", "--n", "512", "--v", "4", "--compare-baselines"]) == 0
        out = capsys.readouterr().out
        assert "EM mergesort" in out
        assert "Sibeyn-Kaufmann" in out

    def test_listrank_with_pram(self, capsys):
        assert main(["listrank", "--n", "128", "--v", "4", "--compare-pram"]) == 0
        assert "PRAM simulation" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cmd, rows",
        [
            (["sort", "--compare-baselines"], ["EM mergesort", "Sibeyn-Kaufmann"]),
            (["permute", "--compare-baselines"], ["naive permutation"]),
            (["listrank", "--compare-pram"], ["PRAM simulation"]),
        ],
    )
    def test_rival_rows_print_on_a_multiprocessor_machine(self, cmd, rows, capsys):
        """The rivals are sequential: with ``--procs 2`` they run on the same
        machine at ``p=1`` and report what they report without ``--procs``."""
        base = [cmd[0], "--n", "128", "--v", "4", *cmd[1:]]
        assert main(base) == 0
        single = capsys.readouterr().out
        assert main([*base, "-p", "2"]) == 0
        multi = capsys.readouterr().out
        assert "p=2" in multi
        for row in rows:
            want = next(ln for ln in single.splitlines() if row in ln)
            got = [ln for ln in multi.splitlines() if row in ln]
            # The PRAM row ends in a ratio to the (p-dependent) CGM run.
            assert got and got[0].split(" (")[0] == want.split(" (")[0]

    def test_machines_overview(self, capsys):
        assert main(["machines", "--n", "512", "--v", "4"]) == 0
        out = capsys.readouterr().out
        assert "laptop" in out and "diskarray" in out and "cluster" in out

    def test_multiprocessor_run(self, capsys):
        assert main(["sort", "--n", "256", "--v", "4", "-p", "2"]) == 0
        assert "p=2" in capsys.readouterr().out

    def test_backend_is_honoured_at_p1(self, tmp_path, capsys):
        """``--backend process`` on the one-processor default machine runs
        in a worker and prints what the inline run prints."""
        from repro.obs.live import read_events

        cmd, log = ["sort", "--n", "256", "--v", "4"], tmp_path / "events.jsonl"
        assert main(cmd) == 0
        inline = capsys.readouterr().out
        assert main([*cmd, "--backend", "process", "--events", str(log)]) == 0
        assert capsys.readouterr().out == inline + f"wrote run events to {log}\n"
        assert read_events(log)[0]["meta"]["backend"] == "process"

    def test_custom_machine_flags(self, capsys):
        assert main(
            ["permute", "--n", "256", "--v", "4", "-D", "8", "-B", "16",
             "--G", "25"]
        ) == 0
        out = capsys.readouterr().out
        assert "D=8" in out and "B=16" in out and "G=25" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_perf_report_runs_and_perf_trend_is_gone(self, capsys):
        assert main(["perf", "report", "--n", "256", "--v", "4"]) == 0
        assert "wall-clock attribution" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc_info:
            main(["perf", "trend"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'trend'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("not json", "Expecting value"),
            ('{"wall": 1.0, "tracks": {}}', "schema None, expected 1"),
        ],
        ids=["missing", "not-json", "wrong-schema"],
    )
    def test_perf_report_load_names_the_file_and_the_reason(
        self, content, reason, tmp_path, capsys
    ):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert main(["perf", "report", "--load", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err and reason in err

    def test_watch_missing_file_without_follow_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(["watch", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err
        # --follow keeps waiting for the file to appear (here: until timeout).
        assert main(["watch", str(path), "--follow", "--timeout", "0.3"]) == 0
        assert capsys.readouterr() == ("", "")
