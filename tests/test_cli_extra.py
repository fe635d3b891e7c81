"""Tests for the validate and CSV paths of the CLI."""

from repro.cli import main


class TestValidateCommand:
    def test_validate_suite_sample(self, capsys):
        assert main(["validate", "--stride", "44", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "MI" in out

    def test_validate_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.csv")
        main(["generate", "SHORT-MOBILE-2", "--out", path, "--scale", "0.3"])
        capsys.readouterr()
        assert main(["validate", "--traces", path]) == 0

    def test_validate_flags_bad_trace(self, tmp_path, capsys):
        # A hand-written contract violation: indirect-only trace.
        path = tmp_path / "bad.csv"
        lines = ["# name: bad"]
        for i in range(300):
            lines.append(f"0x50,indirect_jump,1,{hex(0x100 + (i % 3) * 0x44)},5")
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--traces", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PROBLEMS" in out


class TestCsvGenerate:
    def test_csv_extension_writes_text_format(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["generate", "SHORT-SERVER-3", "--out", str(path),
                     "--scale", "0.2"]) == 0
        first_line = path.read_text().splitlines()[0]
        assert first_line.startswith("# name:")

    def test_simulate_accepts_csv(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        main(["generate", "SHORT-SERVER-3", "--out", path, "--scale", "0.2"])
        capsys.readouterr()
        assert main(["simulate", "--predictors", "BTB",
                     "--traces", path]) == 0
        assert "MEAN" in capsys.readouterr().out


class TestRegistryCommand:
    def test_lists_every_registered_predictor(self, capsys):
        from repro.registry import conditional_names, indirect_names

        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        for name in indirect_names() + conditional_names():
            assert name in out
        # The footer ties the listing to the serve session configs.
        assert "repro serve" in out

    def test_json_rows_carry_fingerprints(self, capsys):
        import json as json_module

        from repro.registry import config_fingerprint

        assert main(["registry", "--json"]) == 0
        rows = json_module.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows if row["kind"] == "indirect"}
        assert by_name["BLBP"]["fingerprint"] == config_fingerprint("BLBP")
        assert by_name["BLBP"]["class"] == "BLBP"
        # Fingerprints separate configs that behave differently from a
        # cold start.
        assert by_name["BTB"]["fingerprint"] != by_name["2bit-BTB"]["fingerprint"]


class TestImportCommand:
    FIXTURE = "tests/fixtures/ingest/mini.champsim.txt"

    def test_import_writes_rptrace2(self, tmp_path, capsys):
        out = str(tmp_path / "mini.trace")
        assert main(["import", self.FIXTURE, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "champsim-mini" in text and "80 records" in text
        from repro.trace.stream import read_trace

        assert len(read_trace(out)) == 80

    def test_reimport_skips_identical_spill(self, tmp_path, capsys):
        out = str(tmp_path / "mini.trace")
        assert main(["import", self.FIXTURE, "--out", out]) == 0
        assert main(["import", self.FIXTURE, "--out", out]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_rename_on_import(self, tmp_path, capsys):
        out = str(tmp_path / "mini.trace")
        assert main(["import", self.FIXTURE, "--out", out,
                     "--name", "renamed"]) == 0
        from repro.trace.stream import read_trace

        assert read_trace(out).name == "renamed"

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["import", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o.trace")]) == 1
        assert "import error" in capsys.readouterr().err


class TestTraceInfoCommand:
    def test_info_on_ingested_formats(self, capsys):
        assert main(["trace", "info",
                     "tests/fixtures/ingest/mini.champsim.txt",
                     "tests/fixtures/ingest/mini.gem5.txt"]) == 0
        out = capsys.readouterr().out
        assert "champsim-mini" in out and "gem5-mini" in out
        assert "content hash" in out
        assert "distinct indirect PCs" in out

    def test_info_error_sets_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.trace")
        assert main(["trace", "info", missing]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulateExternalAndSampled:
    def test_unreadable_trace_is_one_error_line(self, tmp_path, capsys):
        """An unrecognized trace file gets ``trace info``'s one-line
        error and exit status, not a traceback."""
        junk = tmp_path / "junk.txt"
        junk.write_text("garbage line\n")
        assert main(["trace", "info", str(junk)]) == 1
        info = capsys.readouterr().err
        assert main(["simulate", "--traces", str(junk),
                     "--predictors", "BTB"]) == 1
        captured = capsys.readouterr()
        assert captured.err == info
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{junk}: error: ")
        assert "unrecognized trace format" in captured.err
        assert "Traceback" not in captured.err

    def test_simulate_champsim_file_directly(self, capsys):
        assert main(["simulate", "--traces",
                     "tests/fixtures/ingest/mini.champsim.txt",
                     "--predictors", "BTB"]) == 0
        assert "champsim-mini" in capsys.readouterr().out

    def test_sample_flag_prints_estimates(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        assert main(["generate", "SHORT-SERVER-1", "--out", path,
                     "--scale", "0.3"]) == 0
        assert main(["simulate", "--traces", path, "--predictors", "BTB",
                     "--sample", "2", "--sample-interval", "500"]) == 0
        out = capsys.readouterr().out
        assert "est MPKI" in out
        assert "reduction" in out

    def test_sample_checkpoint_dir(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        assert main(["generate", "SHORT-SERVER-1", "--out", path,
                     "--scale", "0.3"]) == 0
        capsys.readouterr()  # drop the generate output
        ckpt = tmp_path / "warm"
        argv = ["simulate", "--traces", path, "--predictors", "BTB",
                "--sample", "2", "--sample-interval", "500",
                "--sample-checkpoints", str(ckpt)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(ckpt.glob("*.ckpt.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # warm run, same numbers
