import csv
import json
import logging
import os
import subprocess
import sys

import pytest

from graphforecast import cli, solver
from graphforecast.cli import _build_parser, main
from graphforecast.ingest import expanding_windows, parse_edgelist
from graphforecast.predictor import PredictParams


def run(args):
    assert main(args) == 0


@pytest.fixture()
def small_edgelist(tmp_path):
    path = tmp_path / "series.txt"
    run(
        [
            "synth", "--out", str(path), "--snapshots", "9",
            "--s", "2", "--s0", "5", "--base", "8", "--step", "2", "--width", "2",
            "--seed", "13",
        ]
    )
    return path


class TestSynth:
    def test_writes_edgelist_and_metadata(self, small_edgelist, tmp_path):
        events = parse_edgelist(small_edgelist)
        assert events
        meta = json.loads((tmp_path / "series.txt.meta.json").read_text())
        assert meta["command"] == "synth"
        assert meta["seed"] == 13
        assert meta["rng_algorithm"] == "numpy-PCG64"

    def test_deletions_are_refused(self, tmp_path, capsys):
        # an edge list is cumulative and cannot hold a deleted edge, so synth
        # takes no deletion flags; eval-synth --experiment 2 deletes in memory
        path = tmp_path / "del.txt"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(path), "--snapshots", "6", "--experiment", "2"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["graphforecast: error: unrecognized arguments: --experiment 2"]
        assert not path.exists()

    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "synth", "--snapshots", "8", "--s", "2", "--s0", "5",
            "--base", "8", "--step", "2", "--width", "2", "--seed", "99",
        ]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_emits_ingestible_prediction(self, small_edgelist, tmp_path):
        out = tmp_path / "pred.txt"
        run(
            [
                "predict", "--input", str(small_edgelist), "--out", str(out),
                "--granularity", "ticks:1", "--horizon", "2", "--k", "3",
            ]
        )
        events = parse_edgelist(out)
        assert events
        assert {e.t for e in events} == {11}  # 9 snapshots + horizon 2
        rebuilt = expanding_windows(events, [11])
        assert rebuilt.snapshot(1).edge_count == len(events)

    def test_byte_identical_rerun(self, small_edgelist, tmp_path):
        outs = []
        for name in ("p1.txt", "p2.txt"):
            out = tmp_path / name
            run(
                [
                    "predict", "--input", str(small_edgelist), "--out", str(out),
                    "--granularity", "ticks:1", "--k", "3",
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ticks_that_start_after_tick_1(self, tmp_path):
        # ticks 1-4 hold no event, so the windows are ticks 5-10, not an empty first one
        inp, out = tmp_path / "late.txt", tmp_path / "pred.txt"
        inp.write_text("1 2 5\n2 3 6\n3 4 7\n1 3 8\n4 5 9\n2 5 10\n")
        run(["predict", "--input", str(inp), "--out", str(out), "--granularity", "ticks:1"])
        assert {e.t for e in parse_edgelist(out)} == {7}  # 6 windows + horizon 1


class TestEvalSynth:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "t1.csv"
        run(
            [
                "eval-synth", "--out", str(out), "--runs", "2", "--T", "6",
                "--horizons", "1,2", "--s", "2", "--s0", "5",
                "--base", "8", "--step", "2", "--width", "2", "--k", "3",
                "--seed", "3",
            ]
        )
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2
        assert rows[1][0] == "pa-synthetic"

    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "eval-synth", "--runs", "2", "--T", "6", "--horizons", "1,2",
            "--s", "2", "--s0", "5", "--base", "8", "--step", "2", "--width", "2",
            "--k", "3", "--seed", "3",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEvalReal:
    def test_moving_window_protocol(self, tmp_path):
        path = tmp_path / "series.txt"
        run(
            [
                "synth", "--out", str(path), "--snapshots", "13",
                "--s", "2", "--s0", "5", "--base", "8", "--step", "2", "--width", "2",
                "--seed", "8",
            ]
        )
        out = tmp_path / "real.csv"
        run(
            [
                "eval-real", "--input", str(path), "--out", str(out),
                "--granularity", "ticks:1", "--Ts", "8-10", "--horizons", "1,2",
                "--window", "8", "--k", "3",
            ]
        )
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2
        assert rows[1][0] == "series"
        assert rows[1][1] == "real"


class TestSweep:
    def test_grid_dump(self, small_edgelist, tmp_path):
        out = tmp_path / "sweep.csv"
        run(
            [
                "sweep", "--input", str(small_edgelist), "--out", str(out),
                "--granularity", "ticks:1", "--gammas", "0.3,0.7", "--us", "0.5,0.9",
                "--k", "3",
            ]
        )
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "u", "n_hat", "vertex_count", "edge_count"]
        assert len(rows) == 5


# runs with exactly one prediction that branches: its root LP bound exceeds
# its optimum by at least alpha, the objective's lattice spacing, so no basic
# optimum of the root LP is integral and the search branches under either
# simplex; ((snapshots, seed) of the synthetic input or None, argv).  The
# sweep's branching cell is its second: the u = 0.8 cell, which starts from the
# u = 0.95 cell's basis.  eval-real's one window is that cell's series
SYNTH_ARGS = ["--s", "2", "--s0", "3", "--base", "0", "--step", "4", "--width", "1"]
BRANCHING_RUNS = {
    "sweep": ((5, 203), ["sweep", "--input", "IN", "--out", "OUT", "--granularity", "ticks:1",
                         "--gammas", "0.5", "--us", "0.95,0.8", "--k", "3"]),
    "eval-real": ((6, 203), ["eval-real", "--input", "IN", "--out", "OUT",
                             "--granularity", "ticks:1", "--Ts", "5", "--horizons", "1",
                             "--window", "5", "--u", "0.8", "--k", "3"]),
    "eval-synth": (None, ["eval-synth", "--out", "OUT", "--runs", "1", "--T", "5",
                          "--horizons", "1", "--s", "2", "--s0", "3", "--base", "0",
                          "--step", "4", "--width", "1", "--u", "0.8", "--k", "3",
                          "--seed", "34"]),
}


class TestNodeCap:
    @pytest.mark.parametrize("command", sorted(BRANCHING_RUNS))
    def test_capped_prediction_is_reported(self, command, tmp_path, monkeypatch, caplog):
        synth, argv = BRANCHING_RUNS[command]
        inp, out = tmp_path / "in.txt", tmp_path / "out.csv"
        if synth:
            snapshots, seed = synth
            run(["synth", "--out", str(inp), "--snapshots", str(snapshots), "--seed", str(seed)]
                + SYNTH_ARGS)
        argv = [{"IN": str(inp), "OUT": str(out)}.get(a, a) for a in argv]
        solve_ilp, uncapped = solver.solve_ilp, []

        def recording(cs, model=None):
            ilp = solve_ilp(cs, model)
            if solver.NODE_CAP > 1:
                uncapped.append(ilp)
            return ilp

        monkeypatch.setattr(solver, "solve_ilp", recording)
        counts = []
        for cap in (solver.NODE_CAP, 1):
            monkeypatch.setattr(solver, "NODE_CAP", cap)
            caplog.clear()
            run(argv)
            warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
            counts.append(len(warnings))
            assert all("node cap" in r.getMessage() for r in warnings)
            if command == "sweep":
                meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
                assert meta["params"]["node_cap_predictions"] == len(warnings)
        assert counts == [0, 1]
        gaps = [s.root.objective - s.objective for s in uncapped if s.nodes_explored > 1]
        assert len(gaps) == 1 and gaps[0] >= PredictParams().alpha


class TestCrossProcess:
    def test_fresh_processes_agree(self, tmp_path):
        # in-process reruns share warm caches; fresh interpreters must match
        outs = []
        for name in ("x1.txt", "x2.txt"):
            out = tmp_path / name
            subprocess.run(
                [
                    sys.executable, "-m", "graphforecast.cli", "synth",
                    "--out", str(out), "--snapshots", "8", "--s", "2", "--s0", "5",
                    "--base", "8", "--step", "2", "--width", "2", "--seed", "7",
                ],
                check=True,
                capture_output=True,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_config_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snapshots=7\nseed=5\ns=2\ns0=5\nbase=8\nstep=2\nwidth=2\n")
        out1 = tmp_path / "c1.txt"
        run(["--config", str(cfg), "synth", "--out", str(out1)])
        series1 = expanding_windows(
            parse_edgelist(out1), list(range(1, 8))
        )
        assert len(series1) == 7  # snapshots came from the config
        out2 = tmp_path / "c2.txt"
        run(["--config", str(cfg), "synth", "--out", str(out2), "--snapshots", "6"])
        events = parse_edgelist(out2)
        assert max(e.t for e in events) == 6  # explicit flag wins

    def test_another_commands_key_is_allowed_and_left_out(self, small_edgelist, tmp_path):
        # one file may serve several commands: predict takes k but not runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("runs=3\nk=3\n")
        out = tmp_path / "pred.txt"
        run(["--config", str(cfg), "predict", "--input", str(small_edgelist), "--out", str(out)])
        params = json.loads((tmp_path / "pred.txt.meta.json").read_text())["params"]
        assert params["k"] == 3
        assert "runs" not in params

    def test_config_without_value_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x.txt"), "--config"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()


class TestBadInput:
    def test_unix_seconds_with_ticks_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "unix.txt"
        path.write_text("1 2 1700000000\n2 3 1700000100\n")
        out = tmp_path / "out.txt"
        code = main(
            ["predict", "--input", str(path), "--out", str(out), "--granularity", "ticks:1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphforecast: error: ")
        assert "coarser granularity" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_edge_list_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\nfoo bar\n")
        code = main(["predict", "--input", str(path), "--out", str(tmp_path / "out.txt")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("graphforecast: error: ")
        assert "malformed" in err[-1]


    def test_missing_input_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        out = tmp_path / "out.txt"
        code = main(["predict", "--input", str(missing), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphforecast: error: ")
        assert str(missing) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        out = tmp_path / "out.txt"
        code = main(["--config", str(missing), "synth", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphforecast: error: ")
        assert str(missing) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_in_a_missing_directory_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.txt"
        code = main(
            ["synth", "--out", str(out), "--snapshots", "5", "--s", "2", "--s0", "5",
             "--base", "8", "--step", "2", "--width", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphforecast: error: ")
        assert str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "predict", "eval-synth", "eval-real", "sweep"])
    def test_out_in_a_missing_directory_stops_before_the_command(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def never(args):
            raise AssertionError(f"{command} ran")

        monkeypatch.setitem(cli._COMMANDS, command, (never, *cli._COMMANDS[command][1:]))
        edges = tmp_path / "in.txt"
        edges.write_text("1 2 1\n")
        out = tmp_path / "no-such-dir" / "out.csv"
        argv = [command, "--out", str(out)]
        if "input" in cli._COMMANDS[command][2].split():
            argv += ["--input", str(edges)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"graphforecast: error: cannot write --out {out}: {out.parent} is not a directory"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--input", "IN", "--out", "OUT", "--train-window", "-3"],
             "--train-window must be >= 0"),
            (["eval-real", "--input", "IN", "--out", "OUT", "--granularity", "ticks:1",
              "--Ts", "6-7", "--horizons", "1,2", "--window", "0"], "window must be >= 1"),
            (["eval-synth", "--out", "OUT", "--runs", "0"], "runs must be >= 1"),
            (["eval-synth", "--out", "OUT", "--runs", "1", "--T", "0"], "T must be >= 1"),
            (["predict", "--input", "IN", "--out", "OUT", "--granularity", "ticks:abc"],
             "unknown granularity 'ticks:abc'"),
        ],
        ids=["train-window", "window", "runs", "T", "granularity"],
    )
    def test_out_of_range_count_is_a_one_line_error(
        self, small_edgelist, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out.txt"
        paths = {"IN": str(small_edgelist), "OUT": str(out)}
        code = main([paths.get(a, a) for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphforecast: error: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag, value, reason",
        [
            (["eval-synth", "--out", "OUT", "--runs", "1", "--horizons", "3-1"],
             "--horizons", "3-1", "empty list"),
            (["eval-synth", "--out", "OUT", "--runs", "1", "--horizons", ""],
             "--horizons", "", "empty list"),
            (["eval-synth", "--out", "OUT", "--runs", "1", "--horizons", "1,1"],
             "--horizons", "1,1", "repeated value"),
            (["eval-real", "--input", "IN", "--out", "OUT", "--Ts", ""], "--Ts", "", "empty list"),
            (["eval-real", "--input", "IN", "--out", "OUT", "--Ts", "15,15,16"],
             "--Ts", "15,15,16", "repeated value"),
            (["sweep", "--input", "IN", "--out", "OUT", "--gammas", ""],
             "--gammas", "", "empty list"),
            (["sweep", "--input", "IN", "--out", "OUT", "--us", "0.8,0.8"],
             "--us", "0.8,0.8", "repeated value"),
            (["sweep", "--input", "IN", "--out", "OUT", "--gammas", "0.5,0.50"],
             "--gammas", "0.5,0.50", "repeated value"),
            (["eval-synth", "--out", "OUT", "--runs", "1", "--horizons", "1,x"],
             "--horizons", "1,x", "invalid literal for int() with base 10: 'x'"),
        ],
        ids=["reversed-range", "empty", "repeat", "empty-Ts", "repeat-Ts", "empty-gammas",
             "repeat-us", "repeat-gammas", "bad-value"],
    )
    def test_empty_or_repeated_list_is_a_usage_error(
        self, small_edgelist, tmp_path, capsys, argv, flag, value, reason
    ):
        out = tmp_path / "out.txt"
        paths = {"IN": str(small_edgelist), "OUT": str(out)}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(a, a) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value!r}: {reason}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["synth"], ["eval-synth", "--runs", "1"]])
    @pytest.mark.parametrize("seed, reason", [("-1", "must be >= 0"),
                                              ("x", "invalid literal for int() with base 10: 'x'")])
    def test_bad_seed_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command, seed, reason):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out), "--seed", seed])
        assert exc.value.code == 2
        assert f"argument --seed: {seed!r}: {reason}\n" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed={seed}\n")
        assert main(["--config", str(cfg), *command, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"graphforecast: error: config seed={seed!r}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ("gama=0.3\n", ["predict", "--input", "IN", "--out", "OUT"],
             "config key 'gama' is not a flag of any command"),
            ("k=abc\n", ["predict", "--input", "IN", "--out", "OUT"],
             "config k='abc': invalid literal for int()"),
            ("horizons=\n", ["eval-synth", "--out", "OUT", "--runs", "1"],
             "config horizons='': empty list"),
            ("experiment=3\n", ["synth", "--out", "OUT", "--snapshots", "5", "--s", "2",
                                "--s0", "5", "--base", "8", "--step", "2", "--width", "2"],
             "config experiment='3': not one of (1, 2)"),
            ("input=IN\nout=OUT\n", ["predict"],
             "config key 'input': give --input on the command line"),
        ],
        ids=["unknown-key", "bad-value", "empty-list", "bad-choice", "required-flag"],
    )
    def test_bad_config_is_a_one_line_error(
        self, small_edgelist, tmp_path, capsys, config, argv, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out.txt"
        paths = {"IN": str(small_edgelist), "OUT": str(out)}
        code = main(["--config", str(cfg)] + [paths.get(a, a) for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"graphforecast: error: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


# one invocation per command; IN and OUT stand for the input and output paths
SIDECAR_RUNS = {
    "synth": ["synth", "--out", "OUT", "--snapshots", "6", "--s", "2", "--s0", "5",
              "--base", "8", "--step", "2", "--width", "2", "--seed", "4"],
    "predict": ["predict", "--input", "IN", "--out", "OUT", "--k", "3"],
    "eval-synth": ["eval-synth", "--out", "OUT", "--runs", "1", "--T", "6", "--horizons", "1,2",
                   "--s", "2", "--s0", "5", "--base", "8", "--step", "2", "--width", "2",
                   "--k", "3", "--seed", "3"],
    "eval-real": ["eval-real", "--input", "IN", "--out", "OUT", "--granularity", "ticks:1",
                  "--Ts", "6-7", "--horizons", "1,2", "--window", "6", "--k", "3"],
    "sweep": ["sweep", "--input", "IN", "--out", "OUT", "--gammas", "0.3,0.7", "--us", "0.9",
              "--k", "3"],
}
LIST_FLAGS = {
    "eval-synth": {"horizons": [1, 2]},
    "eval-real": {"Ts": [6, 7], "horizons": [1, 2]},
    "sweep": {"gammas": [0.3, 0.7], "us": [0.9]},
}


class TestSidecar:
    @pytest.mark.parametrize("command", sorted(SIDECAR_RUNS))
    def test_params_are_the_parsed_flags(self, command, small_edgelist, tmp_path):
        out = tmp_path / "out.txt"
        swap = {"IN": str(small_edgelist), "OUT": str(out)}
        argv = [swap.get(a, a) for a in SIDECAR_RUNS[command]]
        run(argv)
        meta = json.loads((tmp_path / "out.txt.meta.json").read_text())
        flags = vars(_build_parser()[0].parse_args(argv))
        assert meta["command"] == command
        assert meta["seed"] == flags.get("seed")
        params = dict(meta["params"])
        diagnostics = params.pop("diagnostics", None)
        assert (diagnostics is not None) == (command == "predict")
        capped = params.pop("node_cap_predictions", None)
        assert (capped is not None) == (command == "sweep")
        expected = {k: v for k, v in flags.items() if k not in ("command", "config", "out", "seed")}
        assert params == expected
        for name, value in LIST_FLAGS.get(command, {}).items():
            assert params[name] == value

    def test_defaults_per_command(self):
        # the parsed defaults are the sidecar's params, so each one is written out
        prediction = {"gamma": 0.5, "u": 0.8, "alpha": 0.001, "k": 10}
        synthetic = {"s": 10, "s0": 45, "base": 45, "step": 5, "width": 5}
        expected = {
            "synth": {"snapshots": 20, **synthetic, "seed": 0},
            "predict": {"input": "IN", "granularity": "ticks:1", "horizon": 1,
                        "train_window": 0, **prediction},
            "eval-synth": {"experiment": 1, "runs": 10, "T": 15, "horizons": [1, 2, 3, 4, 5],
                           "seed": 0, **synthetic, **prediction},
            "eval-real": {"input": "IN", "granularity": "daily",
                          "Ts": [15, 16, 17, 18, 19, 20, 21, 22, 23, 24],
                          "horizons": [1, 2, 3, 4, 5], "window": 15, "dataset": "",
                          **prediction},
            "sweep": {"input": "IN", "granularity": "ticks:1", "horizon": 1,
                      "gammas": [0.2, 0.5, 0.8], "us": [0.5, 0.8, 0.95], "alpha": 0.001,
                      "k": 10, "train_window": 0},
        }
        parser = _build_parser()[0]
        for command, defaults in expected.items():
            argv = [command, "--out", "OUT"] + (["--input", "IN"] if "input" in defaults else [])
            parsed = vars(parser.parse_args(argv))
            assert parsed == {"config": None, "command": command, "out": "OUT", **defaults}


class TestStartup:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats costs about half of the start-up time; the normal quantile
        # is the standard library's statistics.NormalDist
        probe = "import sys, graphforecast.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True, text=True
        )
        assert out.stdout.strip() == "False"

    @staticmethod
    def probe(code, *args):
        """The standard output of ``code`` run in a fresh interpreter."""
        return subprocess.run(
            [sys.executable, "-c", code, *args], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout.strip()

    def test_cli_import_leaves_out_scipy_packages(self):
        # their __init__s import nearly all of scipy; the two extensions the
        # pipeline calls load on their own
        code = (
            "import sys, graphforecast.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "ext = ('scipy.linalg._fblas', 'scipy.optimize._highspy._core')\n"
            "print(sorted(set(ext) - set(loaded)), [m for m in loaded if not m.startswith(ext)])"
        )
        assert self.probe(code) == "[] []"  # scipy, scipy.optimize, scipy.sparse, ... unloaded

    @pytest.mark.parametrize("first", ["scipy.optimize", "graphforecast.solver"])
    def test_scipy_and_graphforecast_share_the_extensions(self, first):
        # a second copy of the pybind11 HiGHS binding would register its types twice
        code = (
            f"import sys, {first}\n"
            "print('scipy.optimize._highspy._core' in sys.modules)\n"
            "import numpy as np, scipy.linalg.blas, scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "from graphforecast import solver, timeseries\n"
            "print(solver._core is _core, timeseries.dtrsm is scipy.linalg.blas.dtrsm)\n"
            "res = scipy.optimize.milp([-1, -1], integrality=[1, 1], bounds=(0, 1),\n"
            "    constraints=scipy.optimize.LinearConstraint([[1, 1]], -np.inf, 1))\n"
            "print(res.status, res.fun)"
        )
        assert self.probe(code).splitlines() == ["True", "True True", "0 -1.0"]

    def test_cli_calls_import_no_numpy_or_scipy_module(self, small_edgelist, tmp_path):
        # an import first made inside main is timed with the command; numpy's
        # unique and setdiff1d, for one, load numpy.ma on their first call
        code = (
            "import sys\n"
            "from graphforecast.cli import main\n"
            "inp, out = sys.argv[1:]\n"
            "new = set()\n"
            "for argv in (\n"
            "    ['predict', '--input', inp, '--out', out + '.txt'],\n"
            "    ['sweep', '--input', inp, '--out', out + '.csv', '--gammas', '0.5', '--us', '0.8'],\n"
            "    ['eval-synth', '--out', out + '-eval.csv', '--experiment', '2', '--runs', '1',\n"
            "     '--T', '6', '--horizons', '1', '--s', '3', '--s0', '8', '--base', '8',\n"
            "     '--step', '3', '--width', '1'],\n"
            "):\n"
            "    before = set(sys.modules)\n"
            "    assert main(argv) == 0\n"
            "    new |= set(sys.modules) - before\n"
            "print(sorted(m for m in new if m.split('.')[0] in ('numpy', 'scipy')))"
        )
        out = self.probe(code, str(small_edgelist), str(tmp_path / "out"))
        assert out.splitlines()[-1] == "[]"
