"""Tests for the command-line interface."""

import warnings

import pytest

from repro.cli import PREDICTOR_REGISTRY, build_parser, main


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for argv in (
            ["suite"],
            ["generate", "X", "--out", "y"],
            ["stats", "t"],
            ["simulate"],
            ["budgets"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_registry_covers_main_predictors(self):
        for name in ("BTB", "VPC", "ITTAGE", "BLBP", "SNIP", "COTTAGE"):
            assert name in PREDICTOR_REGISTRY


class TestCommands:
    def test_suite_lists_88(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "88 workloads" in out

    def test_generate_stats_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        assert main(["generate", "SHORT-SERVER-1", "--out", path,
                     "--scale", "0.3"]) == 0
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "SHORT-SERVER-1" in out
        assert "polymorphic share" in out

    def test_generate_unknown_name_fails(self, tmp_path):
        path = str(tmp_path / "x.bin")
        assert main(["generate", "NOPE", "--out", path]) == 1

    def test_simulate_on_file(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB,ITTAGE",
                     "--traces", path]) == 0
        out = capsys.readouterr().out
        assert "MEAN" in out
        assert "ITTAGE" in out

    def test_simulate_unknown_predictor(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--predictors", "MAGIC"])

    def test_simulate_parallel_jobs(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB,2bit-BTB",
                     "--traces", path, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "MEAN" in out

    def test_simulate_resume_skips_journaled_cells(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        journal = str(tmp_path / "campaign.jsonl")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB", "--traces", path,
                     "--resume", journal]) == 0
        first = capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB", "--traces", path,
                     "--resume", journal]) == 0
        second = capsys.readouterr()
        assert "(resumed)" in second.err
        assert first.out == second.out

    def test_budgets(self, capsys):
        assert main(["budgets"]) == 0
        out = capsys.readouterr().out
        assert "BLBP" in out and "paper KB" in out


class TestBackendFlag:
    @pytest.mark.parametrize("command", ["simulate", "search"])
    def test_env_default_is_checked_at_parsing(self, monkeypatch, capsys,
                                               command):
        monkeypatch.setenv("REPRO_BACKEND", "columnar-strict")
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([command])
        assert exited.value.code == 2
        assert "invalid choice: 'columnar-strict'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--no-fuse"],
        ["--resume", "{journal}"],
        ["--jobs", "2", "--resume", "{journal}"],
    ], ids=["serial", "pool", "pool-jobs2"])
    def test_fallback_as_error_exits_2_with_the_reason(self, tmp_path,
                                                        capsys, extra):
        """Under ``-W error::RuntimeWarning`` a columnar fallback ends the
        run with ``error: <reason>`` and exit code 2, on the first attempt
        (the pool does not retry it)."""
        path = str(tmp_path / "trace.bin")
        journal = str(tmp_path / "campaign.jsonl")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        argv = ["simulate", "--predictors", "BTB,ITTAGE", "--traces", path,
                "--backend", "columnar"]
        argv += [arg.format(journal=journal) for arg in extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("error: columnar backend falling back to the fused scalar "
                "loop for some predictors: BranchTargetBuffer") in err
        assert "attempt" not in err


class TestProfileFlag:
    def test_simulate_profile_prints_counters(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BLBP", "--traces", path,
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile [BLBP]" in out
        assert "fold updates" in out
        assert "records/s" in out

    def test_simulate_profile_parallel_path(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB", "--traces", path,
                     "--jobs", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile [BTB]" in out

    def test_simulate_without_profile_is_silent(self, tmp_path, capsys):
        path = str(tmp_path / "trace.bin")
        main(["generate", "SHORT-SERVER-2", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB",
                     "--traces", path]) == 0
        assert "profile [" not in capsys.readouterr().out
