import contextlib
import io
import json
import math

import pytest
from conftest import deadline

from trajindex import TrajectoryIndex
from trajindex.cli import main


def _series_csv(series):
    lines = []
    for oid, segs in series.items():
        for t0, cells in segs:
            for i, (x, y) in enumerate(cells):
                lines.append("%d,%d,%d,%d" % (oid, t0 + i, x, y))
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory, walkthrough_series):
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "walk.csv"
    csv_path.write_text(_series_csv(walkthrough_series))
    index_path = root / "walk.idx"
    code, out, _err = _run(
        [
            "build",
            "--input", str(csv_path),
            "--output", str(index_path),
            "--period", "8",
            "--side", "16",
            "--gap", "2",
        ]
    )
    assert code == 0
    return root, csv_path, index_path, json.loads(out)


class TestBuild:
    def test_build_reports_stats(self, cli_env):
        _root, _csv, index_path, stats = cli_env
        assert index_path.exists()
        assert stats["objects"] == 7
        assert stats["period"] == 8
        assert stats["raw_symbols"] == 87

    def test_build_from_binary(self, tmp_path):
        rows = [(1, 0, 3, 4), (1, 1, 3, 5), (2, 0, 7, 7), (2, 1, 7, 7)]
        blob = bytes([1, 1, 1, 1]) + b"".join(bytes(r) for r in rows)
        src = tmp_path / "records.bin"
        src.write_bytes(blob)
        out_path = tmp_path / "tiny.idx"
        code, out, _ = _run(
            [
                "build",
                "--input", str(src),
                "--format", "bin",
                "--output", str(out_path),
                "--period", "4",
            ]
        )
        assert code == 0
        assert json.loads(out)["objects"] == 2

    def test_build_missing_input(self, tmp_path):
        code, _out, err = _run(
            [
                "build",
                "--input", str(tmp_path / "nope.csv"),
                "--output", str(tmp_path / "x.idx"),
                "--period", "8",
            ]
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "flag",
        [
            ("--k", "1"),
            ("--period", "0"),
            ("--k", "257"),
            ("--period", "9223372036854775808"),
            ("--side", "1099511627776"),
        ],
    )
    def test_build_parameter_out_of_range(self, cli_env, tmp_path, flag):
        _root, csv_path, _index, _stats = cli_env
        argv = ["build", "--input", str(csv_path), "--output", str(tmp_path / "x.idx")]
        with deadline(5.0):
            code, _out, err = _run(argv + ["--period", "8", *flag])
        assert code == 1
        assert "error:" in err and "out of range" in err
        assert not (tmp_path / "x.idx").exists()

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("inf_time.csv", b"1,inf,0,0\n", "line 1: non-finite field"),
            ("huge_cell.csv", b"1,0,1e30,0\n", "outside int64"),
            (  # an 8-byte id of 2^63, then one-byte time, x and y
                "huge_id.bin",
                bytes([8, 1, 1, 1]) + (2**63).to_bytes(8, "little") + bytes(3),
                "0..2^63-1",
            ),
        ],
    )
    def test_build_input_out_of_range(self, tmp_path, name, data, message):
        src = tmp_path / name
        src.write_bytes(data)
        fmt = ["--format", "bin"] if name.endswith(".bin") else []
        argv = ["build", "--input", str(src), "--output", str(tmp_path / "x.idx")]
        with deadline(5.0):
            code, _out, err = _run(argv + ["--period", "8", *fmt])
        assert code == 1
        assert "error:" in err and message in err
        assert not (tmp_path / "x.idx").exists()


    @pytest.mark.parametrize(
        "flag, name",
        [
            (("--cell-size", "nan"), "cell_size"),
            (("--cell-size", "inf"), "cell_size"),
            (("--time-step", "nan"), "time_step"),
            (("--time-step", "inf"), "time_step"),
            (("--speed-cap", "nan"), "speed_cap"),
        ],
    )
    def test_build_non_finite_parameter_named(self, cli_env, tmp_path, flag, name):
        _root, csv_path, _index, _stats = cli_env
        argv = ["build", "--input", str(csv_path), "--output", str(tmp_path / "x.idx")]
        code, _out, err = _run(argv + ["--period", "8", *flag])
        assert code == 1
        assert err.startswith("error: %s must be" % name)
        assert not (tmp_path / "x.idx").exists()

    def test_build_gap_beyond_float_range_is_usage_error(self, cli_env, tmp_path, capsys):
        _root, csv_path, _index, _stats = cli_env
        argv = ["build", "--input", str(csv_path), "--output", str(tmp_path / "x.idx"),
                "--period", "8", "--gap", "9" * 400]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --gap: must be within float range" in capsys.readouterr().err
        assert not (tmp_path / "x.idx").exists()


class TestQuery:
    def test_object_csv(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path),
             "--type", "object", "--id", "2", "--t", "10"]
        )
        assert code == 0
        assert out == "id,t,x,y\n2,10,9,4\n"

    def test_object_absent_gives_empty_table(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path),
             "--type", "object", "--id", "5", "--t", "8"]
        )
        assert code == 0
        assert out == "id,t,x,y\n"

    def test_trajectory_csv(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path), "--type", "trajectory",
             "--id", "6", "--t-begin", "3", "--t-end", "13"]
        )
        assert code == 0
        assert out.splitlines() == [
            "t,x,y", "3,10,15", "4,10,15", "12,6,9", "13,6,9",
        ]

    def test_time_slice_json(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path), "--type", "time-slice",
             "--x1", "7", "--y1", "3", "--x2", "10", "--y2", "4",
             "--t", "10", "--out", "json"]
        )
        assert code == 0
        assert json.loads(out) == [
            {"id": 2, "x": 9, "y": 4},
            {"id": 5, "x": 7, "y": 3},
        ]

    def test_time_interval_csv(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path), "--type", "time-interval",
             "--x1", "7", "--y1", "3", "--x2", "10", "--y2", "4",
             "--t-begin", "9", "--t-end", "12"]
        )
        assert code == 0
        assert out.splitlines() == ["id", "2", "5"]

    def test_knn_distance_formatting(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, _ = _run(
            ["query", "--index", str(index_path), "--type", "knn",
             "--k-nn", "1", "--px", "10", "--py", "0", "--t", "9"]
        )
        assert code == 0
        assert out == "id,distance\n2,%s\n" % ("%.12g" % math.sqrt(10))

    def test_missing_flag_is_usage_error(self, cli_env):
        _, _, index_path, _ = cli_env
        with pytest.raises(SystemExit) as exc:
            _run(["query", "--index", str(index_path),
                  "--type", "object", "--id", "2"])
        assert exc.value.code == 2

    def test_unknown_object_fails(self, cli_env):
        _, _, index_path, _ = cli_env
        code, _out, err = _run(
            ["query", "--index", str(index_path),
             "--type", "object", "--id", "99", "--t", "5"]
        )
        assert code == 1
        assert "unknown object id" in err

    def test_out_of_extent_warns_but_succeeds(self, cli_env):
        _, _, index_path, _ = cli_env
        code, out, err = _run(
            ["query", "--index", str(index_path),
             "--type", "object", "--id", "1", "--t", "40"]
        )
        assert code == 0
        assert out == "id,t,x,y\n"
        assert "outside extent [0, 16]" in err


class TestStats:
    def test_matches_build_output(self, cli_env):
        _, _, index_path, build_stats = cli_env
        code, out, _ = _run(["stats", "--index", str(index_path)])
        assert code == 0
        assert json.loads(out) == build_stats
        mem = build_stats["mem_bytes"]
        assert set(mem) == {
            "snapshots", "log_streams", "log_events", "checkpoints", "columns", "dictionary",
            "total",
        }
        assert mem["total"] >= sum(v for part, v in mem.items() if part != "total") > 0

    def test_missing_index_file(self, tmp_path):
        code, _out, err = _run(["stats", "--index", str(tmp_path / "no.idx")])
        assert code == 1
        assert "error:" in err


class TestBench:
    def test_workload_report(self, cli_env):
        root, _, index_path, _ = cli_env
        wl = root / "workload.txt"
        wl.write_text(
            "--type object --id 2 --t 10\n"
            "# a comment\n"
            "\n"
            "--type time-slice --x1 7 --y1 3 --x2 10 --y2 4 --t 10\n"
            "--type knn --k-nn 1 --px 10 --py 0 --t 9\n"
        )
        code, out, err = _run(
            ["bench", "--index", str(index_path),
             "--workload", str(wl), "--repeat", "2"]
        )
        assert code == 0
        assert "loaded 3 queries" in err
        lines = out.splitlines()
        assert lines[0] == "type,queries,repeat,results,mean_ms,median_ms,p95_ms"
        table = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(table) == {"object", "time-slice", "knn"}
        assert table["object"][1:4] == ["1", "2", "1"]
        assert table["time-slice"][3] == "2"

    def test_bad_workload_line(self, cli_env):
        root, _, index_path, _ = cli_env
        wl = root / "bad.txt"
        wl.write_text("--type object --id 2\n")
        code, _out, err = _run(
            ["bench", "--index", str(index_path), "--workload", str(wl)]
        )
        assert code == 1
        assert "workload line 1" in err


class TestVerify:
    def test_pass(self, cli_env):
        _root, csv_path, _idx, _ = cli_env
        code, out, _ = _run(
            [
                "verify",
                "--input", str(csv_path),
                "--period", "8",
                "--side", "16",
                "--gap", "2",
                "--queries", "25",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert out.strip() == "PASS 5x25"

    def test_failure_reports_the_first_mismatch(self, cli_env, monkeypatch):
        _root, csv_path, _idx, _ = cli_env
        calls = []

        def wrong(self, region, t):
            calls.append((region, t))
            return ["wrong"]

        monkeypatch.setattr(TrajectoryIndex, "time_slice", wrong)
        code, out, _ = _run(
            ["verify", "--input", str(csv_path), "--period", "8", "--side", "16",
             "--gap", "2", "--queries", "5", "--seed", "3"]
        )
        assert code == 1
        (region, t), = calls  # evaluated once, and the first slice query fails
        lines = out.splitlines()
        assert lines[0] == "FAIL time-slice %r seed=3" % {"region": region, "t": t}
        assert lines[1].startswith("  expected: [")
        assert lines[2] == "  got:      ['wrong']"


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--index", "i.idx", "--workload", "w.txt", "--repeat", "0"],
        ["bench", "--index", "i.idx", "--workload", "w.txt", "--repeat", "-2"],
        ["verify", "--input", "r.csv", "--period", "8", "--queries", "0"],
        ["verify", "--input", "r.csv", "--period", "8", "--queries", "-3"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, cli_env):
    root, csv_path, index_path, _ = cli_env
    wl = root / "one.txt"
    wl.write_text("--type object --id 2 --t 10\n")
    paths = {"i.idx": str(index_path), "w.txt": str(wl), "r.csv": str(csv_path)}
    with pytest.raises(SystemExit) as exc:
        _run([paths.get(a, a) for a in argv])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_build_past_the_instant_limit_is_usage_error(tmp_path, capsys):
    """A gap threshold that joins records 10**12 instants apart into one
    segment would lay out every instant between them: a usage error."""
    csv_path = tmp_path / "far.csv"
    csv_path.write_text("1,0,0,0\n1,1000000000000,5,5\n")
    argv = ["build", "--input", str(csv_path), "--output", str(tmp_path / "x.idx"),
            "--gap", "100000000000000", "--period", "8"]
    with deadline(5.0), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "1000000000001 instants, more than the" in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


def test_build_past_the_period_bound_fails_named(tmp_path):
    """Two records at instant 2^40 with --period 10 would lay out 1.1e11
    snapshots and portions: build names the bound and writes no file."""
    csv_path = tmp_path / "late.csv"
    csv_path.write_text("1,1099511627776,0,0\n2,1099511627776,1,1\n")
    argv = ["build", "--input", str(csv_path), "--output", str(tmp_path / "x.idx"),
            "--period", "10"]
    with deadline(1.0):
        code, _out, err = _run(argv)
    assert code == 1
    assert "error: t_max 1099511627776 spans 109951162777 periods of 10" in err
    assert not (tmp_path / "x.idx").exists()
