"""End-to-end tests of the command-line front end."""

import csv
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from smap import cli, filters, sim
from smap.cli import (
    TRACE_HEADER,
    main,
    verify_update_against_kkt,
    write_mc_outputs,
    write_run_outputs,
)
from smap.constraints import ConstraintStrategy
from smap.errors import InvalidInputError
from smap.filters import FilterState
from smap.robustness import CONTRACT, EXPAND, NO_UPDATE, PRESERVE
from smap.sim import (
    AP,
    SMAP,
    MonteCarloSummary,
    ScenarioConfig,
    generate_signals,
    run_monte_carlo,
    run_rng,
    run_single,
)


# scenarios whose warm-stretch variance overflows though the reference power is a float
_WARM_OVERFLOW = (
    ["run", "--snr-db", "3070", "--iters", "200"],
    ["mc", "--noise-var", "1e307", "--snr-db", "0", "--iters", "200", "--runs", "3",
     "--algos", "smap:fixed"],
)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        rc = main(["run", "--iters", "120", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "trace.csv")
        assert rows[0] == TRACE_HEADER
        assert len(rows) == 121
        kinds = {row[5] for row in rows[1:]}
        assert kinds <= {CONTRACT, PRESERVE, EXPAND, NO_UPDATE}
        for row in rows[1:]:
            if row[2] == "0":
                assert row[5] == NO_UPDATE
        summary = (tmp_path / "summary.txt").read_text()
        assert "command: run" in summary
        assert "cv-strategy: fixed" in summary
        assert "global-energy-ratio: " in summary
        assert "steady-state-mse-db: " in summary
        out = capsys.readouterr().out
        assert "updates: " in out
        assert "wrote " in out and str(tmp_path) in out

    def test_prints_relaxation_count(self, tmp_path, capsys):
        argv = ["run", "--iters", "2000", "--cv", "noise", "--noise-scale", "2", "--seed", "5"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        count = re.search(r"^cv-relaxations: (\d+)$", (tmp_path / "summary.txt").read_text(), re.M)
        assert int(count[1]) > 0
        assert f"\nconstraint relaxations: {count[1]}\n" in capsys.readouterr().out

    def test_zero_iterations_gives_header_only(self, tmp_path):
        rc = main(["run", "--iters", "0", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert _read_csv(tmp_path / "trace.csv") == [TRACE_HEADER]

    def test_outputs_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--iters", "80", "--seed", "3",
                         "--cv", "sccv", "--out-dir", str(out)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()

    def test_line_endings_are_lf(self, tmp_path):
        main(["run", "--iters", "30", "--out-dir", str(tmp_path)])
        assert b"\r" not in (tmp_path / "trace.csv").read_bytes()
        assert b"\r" not in (tmp_path / "summary.txt").read_bytes()

    def test_baseline_via_mu_flag(self, tmp_path):
        rc = main(["run", "--iters", "50", "--mu", "0.5", "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "algorithm: ap" in summary
        assert "mu: 0.5" in summary
        assert "cv-strategy" not in summary
        rows = _read_csv(tmp_path / "trace.csv")
        assert all(row[2] == "1" for row in rows[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--cv", "bogus"],
            ["run", "--gamma-bar", "0"],
            ["run", "--iters", "-3"],
            ["mc", "--algos", "smap:bogus"],
            ["mc", "--algos", "ap:1.5"],
            ["mc", "--algos", "ap:fast"],
            ["mc", "--algos", "smap:fixed,smap:fixed"],
            ["mc", "--runs", "0"],
            ["verify", "--taps", "2", "--max-reuse", "5"],
            [],
            ["run", "--mu", "1.5"],
            ["run", "--mu", "0"],
            ["run", "--taps", "2", "--reuse", "5"],
            ["mc", "--algos", "smap:custom"],
            ["verify", "--max-reuse", "-1"],
            ["mc", "--iters", "50", "--runs", "2", "--algos", "smap:fixed,ap:1.5"],
            ["run", "--snr-db", "4000"],
            ["run", "--snr-db", "-4000"],
            ["run", "--seed", "-1"],
            ["mc", "--seed", "-3", "--algos", "smap:fixed"],
            ["verify", "--seed", "-1"],
            ["run", "--cv", "noise", "--noise-scale", "inf"],
            ["mc", "--algos", "smap:noise", "--noise-scale", "inf"],
            ["run", "--run-index", "-1"],
            ["mc", "--algos", "foo:1"],
            ["mc", "--algos", ","],
            ["verify", "--instances", "-1"],
            ["run", "--noise-scale", "nan"],
            ["mc", "--noise-scale", "inf", "--algos", "smap:fixed,smap:noise"],
            *_WARM_OVERFLOW,
        ],
    )
    def test_usage_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""  # rejected before anything runs
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "mc", "verify"])
    def test_negative_seed_names_the_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--seed", "-1"])
        assert "error: argument --seed: seed must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            *(
                ([command, *args], args[-2][2:])
                for command in ("run", "mc")
                for args in (
                    ["--taps", "0"],
                    ["--reuse", "20"],
                    ["--gamma-bar", "0"],
                    ["--delta", "-1"],
                    ["--noise-var", "0"],
                    ["--ar", "1"],
                    ["--snr-db", "4000"],
                    ["--iters", "-3"],
                    ["--seed", "-1"],
                    ["--cv", "noise", "--noise-scale", "nan"],
                )
            ),
            (["run", "--mu", "1.5"], "mu"),
            (["run", "--run-index", "-1"], "run-index"),
            (["mc", "--runs", "0"], "runs"),
            (["mc", "--algos", "ap:1.5"], "algos"),
            (["mc", "--algos", "ap:fast"], "algos"),
            (["mc", "--algos", "smap:bogus"], "algos"),
            (["verify", "--taps", "0"], "taps"),
            (["verify", "--max-reuse", "20"], "max-reuse"),
            (["verify", "--instances", "-1"], "instances"),
            (["verify", "--seed", "-1"], "seed"),
            (["run", "--noise-scale", "nan"], "noise-scale"),
            (["mc", "--noise-scale", "inf", "--algos", "smap:fixed,smap:noise"], "noise-scale"),
            *((argv, "snr-db") for argv in _WARM_OVERFLOW),
            # sizes whose series no numpy array can hold
            *(([command, f"--{flag}", str(10**30)], flag)
              for command in ("run", "mc") for flag in ("iters", "taps")),
            # counts no numpy array can hold
            (["mc", "--iters", "10", "--runs", str(10**30)], "runs"),
            (["verify", "--taps", str(10**30)], "taps"),
            (["verify", "--instances", str(10**30)], "instances"),
        ],
    )
    def test_rejected_value_names_its_flag(self, argv, flag, tmp_path, monkeypatch, capsys):
        # the library rejects the value; the usage error names the flag as typed
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"smap {argv[0]}: error: argument --{flag}: ")
        assert list(tmp_path.iterdir()) == []

    def test_library_usage_error_shows_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gamma-bar", "inf"])
        assert exc.value.code == 2
        assert "usage: smap run" in capsys.readouterr().err
        # the message names the flag as typed, then the library's reason
        with pytest.raises(SystemExit) as exc:
            main(["run", "--noise-var", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --noise-var: noise variance must be positive" in err


class TestOutDir:
    @pytest.mark.parametrize("under", ["", "sub"])
    @pytest.mark.parametrize("link", [False, True])
    @pytest.mark.parametrize(
        "argv", [["run", "--iters", "10"], ["mc", "--iters", "10", "--runs", "1"]]
    )
    def test_a_path_no_directory_can_take_fails_before_the_run(
        self, argv, link, under, tmp_path, monkeypatch, capsys
    ):
        # a file, a dangling link, or a path under one, once failed with a
        # traceback after the whole run
        def never(*args):
            pytest.fail("ran with an --out-dir that cannot be written into")

        monkeypatch.setattr(cli, "run_single", never)
        monkeypatch.setattr(cli, "run_monte_carlo", never)
        taken = tmp_path / "taken"
        if link:
            taken.symlink_to(tmp_path / "nowhere")
        else:
            taken.write_text("a file")
        out_dir = taken / under
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"smap {argv[0]}: error: argument --out-dir: "
            f"cannot write into {str(out_dir)!r}: {str(taken)!r} is not a directory"
        )
        assert list(tmp_path.iterdir()) == [taken]

    def test_missing_directories_are_created(self, tmp_path, capsys):
        out_dir = tmp_path / "a" / "b"
        assert main(["run", "--iters", "10", "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["summary.txt", "trace.csv"]


def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("old contents\n")

    def chunks():
        yield "k,e\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]  # no .trace.csv.* left
    assert path.read_text() == "old contents\n"


class TestConfigFile:
    def test_file_supplies_defaults_but_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# benchmark scenario\niters = 40\ncv = sccv\nseed = 9\n")
        rc = main(["run", "--config", str(cfg), "--seed", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "iters: 40" in summary
        assert "cv-strategy: sccv" in summary
        assert "seed: 5" in summary  # explicit flag beats the file value
        assert main(["run", "--config", str(cfg), "--se", "6",
                     "--out-dir", str(tmp_path)]) == 0
        assert "seed: 6" in (tmp_path / "summary.txt").read_text()  # abbreviated too

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stepsize = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "stepsize" in err
        assert str(cfg) in err
        assert "usage: smap run" in err

    def test_summary_echo_replays_as_config(self, tmp_path, capsys):
        # the scenario echo uses the flag names, so fed back as a config
        # file it must reproduce the summary byte for byte
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--iters", "40", "--seed", "7", "--cv", "noise",
                     "--noise-scale", "0.5", "--gamma-bar", "0.3", "--snr-db", "15",
                     "--out-dir", str(first)]) == 0
        summary = (first / "summary.txt").read_text()
        head, _, _ = summary.partition("updates:")
        echo = head.splitlines()[3:]  # after command, algorithm and cv-strategy
        assert echo[0] == "taps: 10" and echo[-1] == "noise-scale: 0.5"
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("cv = noise\n" + "".join(
            line.replace(": ", " = ", 1) + "\n" for line in echo))
        assert main(["run", "--config", str(cfg), "--out-dir", str(second)]) == 0
        assert (second / "summary.txt").read_bytes() == summary.encode()

    def test_missing_file_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert exc.value.code == 2

    def test_nested_config_rejected(self, tmp_path, capsys):
        # the command line's own --config would win the re-parse and the
        # named file would never be read
        (tmp_path / "b.txt").write_text("iters = 40\n")
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seed = 3\nconfig = b.txt\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"{cfg}:2: configuration files do not nest" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("iters 40\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg)])
        assert exc.value.code == 2


class TestMcCommand:
    def test_writes_mse_matrix_and_blocks(self, tmp_path, capsys):
        rc = main(["mc", "--iters", "60", "--runs", "2",
                   "--algos", "smap:sccv,ap:0.5", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "mse.csv")
        assert rows[0] == ["k", "smap:sccv", "ap:0.5"]
        assert len(rows) == 61
        summary = (tmp_path / "summary.txt").read_text()
        assert "command: mc" in summary
        assert "runs: 2" in summary
        assert "[smap:sccv]" in summary and "[ap:0.5]" in summary
        assert "mu: 0.5" in summary
        out = capsys.readouterr().out
        assert "smap:sccv: update-rate" in out

    def test_bare_smap_token_takes_cv(self, tmp_path, capsys):
        rc = main(["mc", "--iters", "40", "--runs", "2", "--cv", "sccv",
                   "--algos", "smap,ap:0.5", "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "[smap]\nalgorithm: smap\ncv-strategy: sccv\n" in summary

    @pytest.mark.parametrize(
        "argv",
        [
            ["--algos", "smap,smap:fixed"],
            ["--algos", "ap:0.5,ap:.5"],
            ["--cv", "noise", "--algos", "smap,smap:noise"],
            ["--cv", "sccv", "--noise-scale", "2", "--algos", "smap:sccv,smap"],
        ],
    )
    def test_one_configuration_under_two_spellings_is_a_usage_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # each once ran the same ensemble twice and wrote two equal columns
        monkeypatch.setattr(cli, "run_monte_carlo", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--iters", "10", "--runs", "1", *argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "smap mc: error: argument --algos: lists a configuration twice"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["custom", "bogus"])
    def test_a_smap_token_offers_the_strategies_cv_offers(self, kind, tmp_path, capsys):
        # smap:custom once asked for a Python callable, which no command line can pass
        with pytest.raises(SystemExit):
            main(["mc", "--cv", kind])
        cv_error = capsys.readouterr().err.splitlines()[-1]
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--algos", f"smap:{kind}", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        algos_error = capsys.readouterr().err.splitlines()[-1]
        assert f"argument --algos: 'smap:{kind}': invalid choice: '{kind}'" in algos_error
        # argparse quotes the choices differently across Python versions; the names agree
        for error in (cv_error, algos_error):
            offered = error.partition("choose from")[2]
            assert re.findall(r"\w+", offered) == ["fixed", "sccv", "noise", "zero"]
        assert list(tmp_path.iterdir()) == []

    def test_single_run_column_equals_trace(self, tmp_path, capsys):
        rc = main(["mc", "--iters", "50", "--runs", "1",
                   "--algos", "smap:fixed", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "mse.csv")
        column = np.array([float(row[1]) for row in rows[1:]])
        trace = run_single(ScenarioConfig(iterations=50), SMAP, run_rng(0, 0))
        npt.assert_array_equal(column, trace.errors**2)

    def test_singular_leading_block_fails_with_run_and_seed(self, tmp_path, capsys):
        # at delta = 0 run 2's Gram system is numerically singular at step 5
        argv = ["mc", "--delta", "0", "--taps", "16", "--reuse", "9", "--iters", "130",
                "--runs", "3", "--seed", "25", "--algos", "smap:sccv", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: run 2 (seed 25): iteration 5: Gram system is not positive definite (delta=0)\n"
        )

    @pytest.mark.parametrize("sizes", [[], [100, 50]])
    def test_writer_rejects_empty_or_unequal_results(self, tmp_path, sizes):
        # curves of 100 and 50 steps once gave a 51-line mse.csv, and no
        # results a bare IndexError
        results = []
        for k in sizes:
            config = ScenarioConfig(iterations=k)
            results.append((f"k{k}", config, SMAP, run_monte_carlo(config, SMAP, 1)))
        with pytest.raises(InvalidInputError, match="curves of one length"):
            write_mc_outputs(results, 1, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestReplay:
    def test_run_index_draws_that_run_of_the_ensemble(self, tmp_path, capsys):
        assert main(["run", "--iters", "50", "--seed", "4", "--run-index", "2",
                     "--out-dir", str(tmp_path)]) == 0
        rows = _read_csv(tmp_path / "trace.csv")
        trace = run_single(ScenarioConfig(iterations=50, seed=4), SMAP, run_rng(4, 2))
        assert [row[1] for row in rows[1:]] == [repr(e) for e in trace.errors.tolist()]
        assert "\nrun-index: 2\n" in (tmp_path / "summary.txt").read_text()

    def test_mc_failure_replays_from_the_command_line(self, monkeypatch, tmp_path, capsys):
        # a fault in one later run of the ensemble: its input dies at step
        # 60, so from step 69 on the ten taps hold no input and the
        # unregularized Gram matrix is singular.  The failure names the
        # run, the seed and the iteration, and `run --run-index` replays it.
        def faulty(config, w0, rng):
            x, d, n = generate_signals(config, w0, rng)
            if rng.bit_generator.seed_seq.spawn_key == (3,):
                x[60:], d[60:] = 0.0, 1.0
            return x, d, n

        monkeypatch.setattr(sim, "generate_signals", faulty)
        scenario = ["--iters", "100", "--delta", "0", "--cv", "sccv", "--out-dir", str(tmp_path)]
        assert main(["mc", *scenario, "--seed", "5", "--runs", "6", "--algos", "smap"]) == 1
        err = capsys.readouterr().err
        run, seed, tail = re.fullmatch(r"error: run (\d+) \(seed (\d+)\): (.*)\n", err).groups()
        assert (run, seed) == ("3", "5")
        assert tail.startswith("iteration 69: Gram system is not positive definite")
        assert main(["run", *scenario, "--seed", seed, "--run-index", run]) == 1
        assert capsys.readouterr().err == f"error: {tail}\n"


class TestVerifyCommand:
    def test_passes_on_real_implementation(self, capsys):
        rc = main(["verify", "--instances", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instances: 40" in out
        assert "verification passed" in out

    def test_zero_instances(self, capsys):
        # nothing checked is no pass: a usage error naming the flag
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "smap verify: error: argument --instances: instances must be an integer >= 1, got 0"
        )

    def test_detects_a_broken_update(self, monkeypatch, capsys):
        # flip the correction direction; the coefficient route must no
        # longer agree with the stacked solver and the sweep must say so
        real = filters.smap_update

        def flipped(state, window, cv, gamma_bar, delta=0.0, *, enforce_cv_bound=True):
            new_state, outcome = real(
                state, window, cv, gamma_bar, delta, enforce_cv_bound=enforce_cv_bound
            )
            return FilterState(2.0 * state.w - new_state.w), outcome

        monkeypatch.setattr(filters, "smap_update", flipped)
        rc = main(["verify", "--instances", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "verification FAILED" in err

    def test_library_entry_point_counts(self):
        result = verify_update_against_kkt(12, num_taps=6, max_reuse=1, seed=4)
        assert result.instances == 12
        assert result.ok
        assert 0 <= result.worst_index < 12

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_library_entry_point_rejects_bad_seeds(self, seed):
        with pytest.raises(InvalidInputError) as exc:
            verify_update_against_kkt(3, num_taps=4, max_reuse=1, seed=seed)
        assert exc.value.field == "seed"

    @pytest.mark.parametrize(
        "field, counts",
        [
            ("instances", (2.5, 10, 2)),
            ("num_taps", (3, 2.5, 1)),
            ("max_reuse", (3, 4, 1.0)),
        ],
    )
    def test_library_entry_point_rejects_non_integer_counts(self, field, counts):
        with pytest.raises(InvalidInputError) as exc:
            verify_update_against_kkt(*counts, seed=0)
        assert exc.value.field == field

    @pytest.mark.parametrize("num_taps", [10**30, 2**60])
    def test_library_entry_point_rejects_windows_no_numpy_array_holds(self, num_taps):
        # 2**60 taps overflow the window's byte count, 10**30 its length
        with pytest.raises(InvalidInputError, match="largest array numpy can hold") as exc:
            verify_update_against_kkt(1, num_taps, 0, 0)
        assert exc.value.field == "num_taps"

    @pytest.mark.parametrize("instances", [10**30, 2**59])
    def test_library_entry_point_rejects_instance_counts_no_numpy_array_holds(self, instances):
        # the sweep holds three float64 gaps an instance: 2**59 instances fit only without the 3
        with pytest.raises(InvalidInputError, match="largest array numpy can hold") as exc:
            verify_update_against_kkt(instances, 10, 2, 0)
        assert exc.value.field == "instances"


# (algorithm, ScenarioConfig fields) of the runs whose tables are written a block at a time
_BLOCK_CASES = {
    "smap:fixed": (SMAP, {"seed": 4}),
    "smap:sccv": (SMAP, {"cv_strategy": ConstraintStrategy("sccv"), "seed": 3}),
    "smap:noise": (SMAP, {"cv_strategy": ConstraintStrategy("noise", 0.5), "seed": 5}),
    "ap:0.5": (AP, {"ap_step": 0.5}),
    "reuse 0": (SMAP, {"reuse": 0, "num_taps": 4, "seed": 6}),
}


def _bytes_at_block_sizes(write, tmp_path, monkeypatch, sizes=(1, 7)) -> list[dict]:
    """The files ``write(out_dir)`` makes at the default block size, then at each of ``sizes``."""
    outputs = []
    for rows in (cli._BLOCK_ROWS, *sizes):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        out_dir = tmp_path / str(rows)
        write(out_dir)
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    return outputs


class TestBlocks:
    """Tables are formatted and written a block of rows at a time; no byte depends on the
    block size, across block edges too, where every row reads its misalignment from the
    trace's column and a block may open on quiet rows."""

    @pytest.mark.parametrize("iterations", [0, 1, 7, 8, 2 * cli._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("case", list(_BLOCK_CASES))
    def test_trace_bytes_do_not_depend_on_the_block_size(
        self, case, iterations, tmp_path, monkeypatch
    ):
        algorithm, fields = _BLOCK_CASES[case]
        config = ScenarioConfig(iterations=iterations, **fields)
        trace = run_single(config, algorithm, run_rng(config.seed, 0))
        default, *small = _bytes_at_block_sizes(
            lambda out_dir: write_run_outputs(trace, config, algorithm, out_dir),
            tmp_path, monkeypatch,
        )
        assert sorted(default) == ["summary.txt", "trace.csv"]
        assert default["trace.csv"].count(b"\n") == iterations + 1
        assert small == [default, default]

    def test_a_block_may_open_on_the_first_update(self, tmp_path, monkeypatch):
        # quiet rows fill the first block; the second opens on the first update
        config = ScenarioConfig(iterations=300, gamma_bar=1.0, seed=5)
        trace = run_single(config, SMAP, run_rng(config.seed, 0))
        first = int(np.flatnonzero(trace.update_flags)[0])
        assert 1 < first < 150
        default, at_first = _bytes_at_block_sizes(
            lambda out_dir: write_run_outputs(trace, config, SMAP, out_dir),
            tmp_path, monkeypatch, sizes=(first,),
        )
        assert at_first == default

    @pytest.mark.parametrize("iterations", [0, 1, 7, 8, 2 * cli._BLOCK_ROWS + 1])
    def test_mse_bytes_do_not_depend_on_the_block_size(self, iterations, tmp_path, monkeypatch):
        config = ScenarioConfig(iterations=iterations, seed=3)
        results = [
            (label, c, algorithm, run_monte_carlo(c, algorithm, 2))
            for label, algorithm, c in (
                ("smap:fixed", SMAP, config), ("ap:0.9", AP, replace(config, ap_step=0.9))
            )
        ]
        default, *small = _bytes_at_block_sizes(
            lambda out_dir: write_mc_outputs(results, 2, out_dir), tmp_path, monkeypatch
        )
        assert default["mse.csv"].count(b"\n") == iterations + 1
        assert small == [default, default]


def _write_peak(write) -> int:
    """Peak bytes that tracemalloc sees while ``write()`` runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """A writer holds one block's text at a time, so its peak does not grow with the table."""

    GROWTH = 250_000  # bytes; formatting whole columns first adds ≈ 4 MB from 4k to 16k rows

    def test_run_writer(self, tmp_path):
        peaks = []
        for iterations in (50, 4000, 16000):  # the first only warms the writer up
            config = ScenarioConfig(iterations=iterations, seed=1)
            trace = run_single(config, SMAP, run_rng(config.seed, 0))  # before tracing starts
            peaks.append(_write_peak(lambda: write_run_outputs(trace, config, SMAP, tmp_path)))
        assert peaks[2] - peaks[1] < self.GROWTH

    def test_mc_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        peaks = []
        for iterations in (50, 4000, 16000):
            config = ScenarioConfig(iterations=iterations)
            summary = MonteCarloSummary(rng.random(iterations), *np.zeros((3, 1)))
            results = [(label, config, SMAP, summary) for label in ("a", "b")]
            peaks.append(_write_peak(lambda: write_mc_outputs(results, 1, tmp_path)))
        assert peaks[2] - peaks[1] < self.GROWTH
