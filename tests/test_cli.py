"""End-to-end tests of the command-line front end."""

import csv

import numpy as np
import numpy.testing as npt
import pytest

from smap import filters
from smap.cli import TRACE_HEADER, main, verify_update_against_kkt
from smap.filters import CONTRACT, EXPAND, NO_UPDATE, PRESERVE, FilterState
from smap.sim import SMAP, ScenarioConfig, run_rng, run_single


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
        ],
    )
    def test_usage_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""  # rejected before anything runs
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

    def test_single_run_column_equals_trace(self, tmp_path, capsys):
        rc = main(["mc", "--iters", "50", "--runs", "1",
                   "--algos", "smap:fixed", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "mse.csv")
        column = np.array([float(row[1]) for row in rows[1:]])
        trace = run_single(ScenarioConfig(iterations=50), SMAP, run_rng(0, 0))
        npt.assert_array_equal(column, trace.squared_error)


class TestVerifyCommand:
    def test_passes_on_real_implementation(self, capsys):
        rc = main(["verify", "--instances", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instances: 40" in out
        assert "verification passed" in out

    def test_zero_instances(self, capsys):
        rc = main(["verify", "--instances", "0"])
        assert rc == 0
        assert "instances: 0" in capsys.readouterr().out

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
