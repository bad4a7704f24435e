import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from setmax import catalog, cli, search
from setmax.catalog import CatalogReport, FixtureResult


@pytest.fixture
def twelve(tmp_path):
    from setmax.catalog import fixture

    path = tmp_path / "twelve_fourteen.board"
    path.write_text(fixture("twelve_fourteen").board.to_text())
    return path


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_count_fixture(self, capsys, twelve):
        code, out, _ = run(capsys, "count", str(twelve))
        assert code == 0
        assert out.splitlines()[0] == "14"

    def test_count_oracle(self, capsys, twelve):
        code, out, _ = run(capsys, "count", "--oracle", str(twelve))
        assert code == 0 and out.strip() == "14"

    def test_count_empty_board(self, capsys, tmp_path):
        empty = tmp_path / "empty.board"
        empty.write_text("# nothing here\n")
        code, out, _ = run(capsys, "count", str(empty))
        assert code == 0 and out.strip() == "0"

    def test_list_lines_stanzas(self, capsys, twelve):
        code, out, _ = run(capsys, "count", "--list-lines", str(twelve))
        assert code == 0
        stanzas = [s for s in out.split("\n\n") if s.strip()]
        assert stanzas[0].strip() == "14"
        assert len(stanzas) == 15  # count + 14 lines
        for stanza in stanzas[1:]:
            assert len(stanza.strip().splitlines()) == 3

    def test_parse_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.board"
        bad.write_text("0,0,0,0\n0,0,0,7\n")
        code, _, err = run(capsys, "count", str(bad))
        assert code == cli.EXIT_PARSE
        assert "bad.board:2" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", str(tmp_path / "nope.board"))
        assert code == cli.EXIT_PARSE and err


class TestSearch:
    def test_pruned_d3_n12(self, capsys):
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "12")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "14"
        assert lines[1] == "witness (canonical orbit):"
        assert "complete: true" in out

    def test_greedy_witness_holds_the_fixed_cards(self, capsys):
        # No board of these rows beats the greedy prefix, which holds card 9
        # but not card 1 at d=4 n=9.  With symmetry the witness is that
        # board moved onto cards 0 and 1, which every board of the labeled
        # orbit holds; without, it is the prefix itself.
        from setmax.counting import Board, count_sets
        from setmax.heuristics import cmm_run

        for d, n, flags, label in ((4, 9, (), "witness (canonical orbit):"), (3, 10, ("--no-symmetry",), "witness:")):
            code, out, _ = run(capsys, "search", "--props", str(d), "--cards", str(n), *flags)
            lines = out.splitlines()
            greedy = cmm_run(d, n)
            assert code == 0 and lines[:2] == [str(greedy.cumulative_at(n)), label]
            witness = Board.parse("\n".join(lines[2:2 + n]), dim=d)
            assert len(witness) == n and count_sets(witness) == greedy.cumulative_at(n)
            if flags:
                assert witness == greedy.final_board
            else:
                assert 1 not in greedy.final_board and {0, 1} <= set(witness.cards)

    @pytest.mark.parametrize("value", ["1_6", "+16", " 16", "16 ", "\uff13", "\u0663", "0x10", "1.0", "-", ""])
    def test_integer_flags_take_decimal_digits_only(self, capsys, value):
        # int() reads the first four, U+FF13 and U+0663 (both a 3); argparse
        # alone would start 16 or 3 workers.
        parser = cli.build_parser()
        for argv in (
            ["search", "--props", "3", "--cards", "5", "--threads", value],
            ["search", "--props", "3", "--cards", value],
            ["search", "--props", "3", "--cards", "5", "--stop-after-nodes", value],
            ["table", "--props", "2", "--from", "3", "--to", value],
            ["cmm", "--props", "3", "--upto", value],
            ["count", "--props", value, "board.txt"],
        ):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
            assert exit_.value.code == cli.EXIT_PARSE
            assert f"invalid integer value: {value!r}" in capsys.readouterr().err

    def test_integer_flags_read_decimals(self):
        args = cli.build_parser().parse_args(["search", "--props", "3", "--cards", "012", "--threads", "16",
                                              "--stop-after-nodes", "-5", "--budget", "100"])
        assert (args.dim, args.n, args.threads, args.stop_after_nodes, args.naive_budget) == (3, 12, 16, -5, 100)

    @pytest.mark.parametrize("value", ["1_0", " 2 ", "\uff13", "\u0663", "1e3", "inf", "nan", "-1", ".", "1.2.3", ""])
    def test_report_interval_takes_decimal_digits_only(self, capsys, value):
        # float() reads all but the last three; "1_0" as 10 seconds.
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(["search", "--props", "3", "--cards", "6", "--report-interval", value])
        assert exit_.value.code == cli.EXIT_PARSE
        assert f"invalid decimal value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, seconds", [("5", 5.0), ("0.5", 0.5)])
    def test_report_interval_reads_decimals(self, value, seconds):
        args = cli.build_parser().parse_args(["search", "--props", "3", "--cards", "6", "--report-interval", value])
        assert args.report_interval == seconds

    @pytest.mark.parametrize("raw", ["1_0", "+2", " 2", "\uff13", "\u0663", "2.0"])
    def test_threads_env_takes_decimal_digits_only(self, monkeypatch, raw):
        monkeypatch.setenv(cli.THREADS_ENV, raw)
        args = cli.build_parser().parse_args(["search", "--props", "3", "--cards", "5"])
        with pytest.raises(ValueError, match=cli.THREADS_ENV) as err:
            cli._threads(args)
        assert repr(raw) in str(err.value)
        monkeypatch.setenv(cli.THREADS_ENV, "10")
        assert cli._threads(args) == 10

    def test_naive_d3_n4(self, capsys):
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "4", "--mode", "naive")
        assert code == 0
        assert out.splitlines()[0] == "1"
        assert out.splitlines()[1] == "witness:"

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "--props", "4", "--cards", "7", "--mode", "naive")
        assert code == cli.EXIT_BUDGET
        assert "budget" in err

    def test_budget_default(self, capsys, monkeypatch):
        # Every omitted flag reaches its SearchConfig default.
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        configs = []
        monkeypatch.setattr(search, "run_search", lambda config: configs.append(config) or search.max_sets_naive(config))
        code, _, _ = run(capsys, "search", "--props", "3", "--cards", "4", "--mode", "naive")
        assert code == 0 and configs == [search.SearchConfig(3, 4, mode="naive")]

    def test_every_flag_reaches_its_field(self, capsys, monkeypatch, tmp_path):
        configs = []
        done = search.SearchResult(0, None, 0, 0, 0.0, True)
        monkeypatch.setattr(search, "run_search", lambda config: configs.append(config) or done)
        path = str(tmp_path / "run.ckpt")
        code, _, _ = run(capsys, "search", "--props", "3", "--cards", "6", "--mode", "naive", "--no-symmetry",
                         "--threads", "2", "--checkpoint", path, "--stop-after-nodes", "5",
                         "--report-interval", "7", "--budget", "9")
        assert code == 0
        assert configs == [search.SearchConfig(3, 6, mode="naive", symmetry=False, threads=2, checkpoint_path=path,
                                               report_interval=7.0, naive_budget=9, stop_after_nodes=5)]

    def test_corrupt_checkpoint_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.ckpt"
        path.write_text("garbage")
        code, _, err = run(capsys, "search", "--props", "3", "--cards", "10",
                           "--checkpoint", str(path), "--resume")
        assert code == cli.EXIT_CHECKPOINT and err

    def test_unwritable_checkpoint_exit_code(self, capsys, tmp_path):
        path = tmp_path / "missing" / "run.ckpt"
        code, out, err = run(capsys, "search", "--props", "3", "--cards", "8", "--checkpoint", str(path))
        assert code == cli.EXIT_PARSE and out == "" and str(path) in err

    def test_failed_checkpoint_save_exit_code(self, capsys, tmp_path, monkeypatch):
        # A save that fails as on a full disk or a deleted folder.
        path = tmp_path / "run.ckpt"

        def full_disk(cp, p):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(p))

        monkeypatch.setattr(search, "checkpoint_save", full_disk)
        code, out, err = run(capsys, "search", "--props", "3", "--cards", "8", "--threads", "1",
                             "--checkpoint", str(path))
        assert code == cli.EXIT_PARSE and out == "" and str(path) in err

    def test_interrupt_before_the_walk_exit_code(self, capsys, monkeypatch):
        # A Ctrl-C that lands before the walk starts, here while it is planned.
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "_plan", interrupted)
        code, out, err = run(capsys, "search", "--props", "3", "--cards", "10", "--threads", "1")
        assert (code, out, err) == (cli.EXIT_INTERRUPT, "", "")

    def test_interrupt_inside_the_walk_prints_the_result_so_far(self, capsys, monkeypatch):
        # A Ctrl-C that lands in the second unit's walk.
        walked = []
        real_walk = search._dfs_segment

        def walk(*args, **kwargs):
            walked.append(1)
            if len(walked) == 2:
                raise KeyboardInterrupt
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(search, "_dfs_segment", walk)
        code, out, err = run(capsys, "search", "--props", "3", "--cards", "10", "--threads", "1")
        assert code == cli.EXIT_OK and err == "" and "complete: false" in out

    def test_resume_without_checkpoint_flag(self, capsys):
        code, _, err = run(capsys, "search", "--props", "3", "--cards", "10", "--resume")
        assert code == cli.EXIT_PARSE and "--checkpoint" in err

    def test_stop_and_resume_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "10",
                           "--checkpoint", str(path), "--stop-after-nodes", "40000")
        assert code == 0 and "complete: false" in out
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "10",
                           "--checkpoint", str(path), "--resume")
        assert code == 0
        assert out.splitlines()[0] == "12"
        assert "complete: true" in out

    def test_resume_reads_the_checkpoint_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        code, _, _ = run(capsys, "search", "--props", "3", "--cards", "10",
                         "--checkpoint", str(path), "--stop-after-nodes", "40000")
        assert code == 0
        loads = []
        real_load = search.checkpoint_load
        monkeypatch.setattr(search, "checkpoint_load", lambda p: loads.append(p) or real_load(p))
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "10",
                           "--checkpoint", str(path), "--resume")
        assert code == 0 and "witness (canonical orbit):" in out and "complete: true" in out
        assert loads == [str(path)]

    @pytest.mark.parametrize(
        "other",
        [("--props", "3", "--cards", "12"), ("--props", "4", "--cards", "10"), ("--props", "3", "--cards", "10", "--no-symmetry")],
    )
    def test_resume_of_another_search_exit_code(self, capsys, tmp_path, other):
        path = tmp_path / "run.ckpt"
        code, _, _ = run(capsys, "search", "--props", "3", "--cards", "10",
                         "--checkpoint", str(path), "--stop-after-nodes", "30000")
        assert code == 0
        code, out, err = run(capsys, "search", *other, "--checkpoint", str(path), "--resume")
        assert code == cli.EXIT_CHECKPOINT and out == "" and "(3, 10, 'pruned', True)" in err

    @pytest.mark.parametrize("name", ["missing.ckpt", "folder"])
    def test_unreadable_checkpoint_exit_code(self, capsys, tmp_path, name):
        (tmp_path / "folder").mkdir()
        path = tmp_path / name
        code, out, err = run(capsys, "search", "--props", "3", "--cards", "10", "--checkpoint", str(path), "--resume")
        assert code == cli.EXIT_CHECKPOINT and out == "" and "unreadable checkpoint" in err

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        code, out, _ = run(capsys, "search", "--props", "3", "--cards", "9")
        assert code == 0 and out.splitlines()[0] == "12"

    def test_threads_env_invalid(self, capsys, monkeypatch):
        for raw in ("many", "abc", "0"):
            monkeypatch.setenv(cli.THREADS_ENV, raw)
            for argv in (("search", "--props", "3", "--cards", "9"), ("table", "--props", "2", "--from", "3", "--to", "4")):
                code, out, err = run(capsys, *argv)
                assert code == cli.EXIT_PARSE and out == ""
                assert cli.THREADS_ENV in err and repr(raw) in err


class TestTable:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "table", "--props", "2", "--from", "3", "--to", "9")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0][:2] == ["n", "max_sets"]
        assert [r[1] for r in rows[1:]] == ["1", "1", "2", "3", "5", "8", "12"]

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(capsys, "table", "--props", "3", "--from", "5", "--to", "5",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1].startswith("5,2,")

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "table", "--props", "2", "--from", "3", "--to", "4", "--pretty")
        assert code == 0
        assert out.splitlines()[0].split()[:2] == ["n", "max_sets"]

    def test_pretty_widens_columns_to_fit(self):
        # d=4 n=10 searches C(81, 10) * C(10, 3) boards and triples, a
        # 15-digit cell.
        rows = [search.TableRow(n, 12, search.search_space(4, n), 5_048_743, 1.5, False) for n in (8, 10, 12)]
        buf = io.StringIO()
        cli._write_pretty(rows, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4 and len({len(line) for line in lines}) == 1

    def test_pretty_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.txt"
        argv = ("table", "--props", "2", "--from", "3", "--to", "4", "--pretty")
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, *argv)

        def columns(text):  # every column but elapsed_s
            return [line.split()[:4] + line.split()[5:] for line in text.splitlines()]

        assert len(columns(out)) == 3 and columns(out_path.read_text()) == columns(out)

    def test_dash_out_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "table", "--props", "2", "--from", "3", "--to", "4", "--out", "-")
        assert code == 0 and out.splitlines()[0] == ",".join(search.CSV_HEADER)
        assert list(tmp_path.iterdir()) == []

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--props", "2", "--from", "8", "--to", "3")
        assert code == cli.EXIT_PARSE and err

    def test_bad_threads_writes_nothing(self, capsys):
        code, out, err = run(capsys, "table", "--props", "2", "--from", "3", "--to", "4", "--threads", "0")
        assert code == cli.EXIT_PARSE and out == "" and "threads" in err

    def test_unwritable_out_exit_code(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        code, out, err = run(capsys, "table", "--props", "2", "--from", "3", "--to", "4", "--out", str(path))
        assert code == cli.EXIT_PARSE and out == "" and str(path) in err

    def test_bad_table_leaves_no_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        for bad in (("--threads", "0"), ("--to", "99")):
            code, _, err = run(capsys, "table", "--props", "2", "--from", "3", "--to", "4",
                               "--out", str(out_path), *bad)
            assert code == cli.EXIT_PARSE and err
            assert not out_path.exists()


class TestCmm:
    def test_trace_to_stdout(self, capsys):
        code, out, _ = run(capsys, "cmm", "--props", "3", "--upto", "3")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[-1] == ["3", "2,0,0", "1", "1"]

    def test_trace_turn_18(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        board_path = tmp_path / "final.board"
        code, _, _ = run(capsys, "cmm", "--props", "3", "--out", str(out_path),
                         "--board-out", str(board_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert rows[17]["cumulative"] == "35"
        from setmax.counting import Board

        assert len(Board.parse_file(board_path)) == 27

    def test_dash_outputs_are_stdout(self, capsys, tmp_path, monkeypatch):
        # The trace, then the board, both on stdout.
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "cmm", "--props", "2", "--upto", "3", "--out", "-", "--board-out", "-")
        assert code == 0
        assert out.splitlines() == ["turn,card,new_sets,cumulative", "1,\"0,0\",0,0", "2,\"0,1\",0,0",
                                    "3,\"0,2\",1,1", "0,0", "0,1", "0,2"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--board-out"])
    def test_unwritable_output_exit_code(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "trace"
        code, _, err = run(capsys, "cmm", "--props", "3", "--upto", "3", flag, str(path))
        assert code == cli.EXIT_PARSE and str(path) in err


class TestVerify:
    def test_verify_ok(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "all reference boards verified" in out
        assert out.count("ok  ") == 13  # 9 fixtures + 4 structural checks

    def test_verify_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--json", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["ok"] is True and len(obj["fixtures"]) == 9

    def test_unwritable_json_exit_code(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "verify", "--json", str(path))
        assert code == cli.EXIT_PARSE and str(path) in err

    def test_verify_mismatch_exit_code(self, capsys, monkeypatch):
        fake = CatalogReport([FixtureResult("line3", 1, 2, False)], [])
        monkeypatch.setattr(catalog, "verify_all", lambda: fake)
        code, out, _ = run(capsys, "verify")
        assert code == cli.EXIT_VERIFY
        assert "FAIL line3" in out


class TestFixtures:
    def test_show(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--show", "line3")
        assert code == 0
        assert out.splitlines() == ["0,0,0,0", "0,0,0,1", "0,0,0,2"]

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "fixtures", "--show", "zzz")
        assert code == cli.EXIT_PARSE and "zzz" in err

    def test_export_files_parse_back(self, capsys, tmp_path):
        from setmax.counting import Board

        code, out, _ = run(capsys, "fixtures", "--export", str(tmp_path / "fx"))
        assert code == 0
        paths = out.splitlines()
        assert len(paths) == 9
        for p in paths:
            Board.parse_file(p)

    def test_export_onto_a_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "boards"
        path.write_text("not a directory\n")
        code, out, err = run(capsys, "fixtures", "--export", str(path))
        assert code == cli.EXIT_PARSE and out == "" and str(path) in err


def test_unexpected_error_propagates(capsys, monkeypatch):
    # An error of no mapped type is a bug: it keeps its traceback.
    def broken(args):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._HANDLERS, "verify", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["verify"])


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "setmax", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "all reference boards verified" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--props", "4", "--cards", "80"],
        ["table", "--props", "3", "--from", "3", "--to", "6"],
        ["count", "--list-lines", str(Path(catalog.__file__).parent / "fixtures" / "twelve_fourteen.board")],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exit_code(argv):
    # The reader of stdout is gone before the command writes, as when
    # `setmax ... | head` has read its lines: no traceback, no message.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "setmax", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")
