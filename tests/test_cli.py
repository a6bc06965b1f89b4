"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.chaos import _grid_args
from repro.cli import ARTIFACTS, COMMANDS, build_parser, main
from repro.cliutil import int_list, str_list
from repro.core.campaign import Campaign

FAST = ["--scale", "0.04", "--ids", "24,30", "--iterations", "2"]


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestParser:
    def test_artifact_choices(self):
        p = build_parser()
        args = p.parse_args(["run", "fig5"])
        assert args.command == "run"
        assert args.artifact == "fig5"
        with pytest.raises(SystemExit):
            p.parse_args(["run", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == 0.25
        assert args.iterations == 16
        assert args.ids == ""

    def test_all_commands_are_subparsers(self):
        p = build_parser()
        for cmd in COMMANDS:
            # every first-class command parses its own --help
            with pytest.raises(SystemExit) as exc:
                p.parse_args([cmd, "--help"])
            assert exc.value.code == 0


class TestBareArtifact:
    """Artifacts run only as `repro run <artifact>`."""

    def test_bare_artifact_exits_with_run_hint(self, capsys):
        for artifact in ("table1", "fig5", "all", "validate"):
            code, text = run_cli(artifact, *FAST)
            assert code == 2
            assert text == ""
            assert f"repro run {artifact}" in capsys.readouterr().err


class TestUnknownCommand:
    def test_unknown_command_exits_nonzero_with_hint(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        assert "run" in err and "lint" in err and "trace" in err

    def test_no_arguments_exits_nonzero(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().err


class TestValidation:
    def test_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scale", "0"])
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scale", "2"])

    def test_bad_iterations(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--iterations", "0"])

    def test_bad_ids(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--ids", "a,b"])

    def test_empty_selection(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--ids", "99"])

    def test_trailing_comma_in_ids(self):
        code, text = run_cli(
            "run", "table1", "--scale", "0.04", "--ids", "24,30,", "--iterations", "2"
        )
        assert code == 0
        assert "rajat09" in text and "Na5" in text


class TestCommaLists:
    def test_items_are_stripped_and_empty_items_dropped(self):
        assert str_list(" conf0, conf1,,") == ["conf0", "conf1"]
        assert int_list("2, 7,", "--ids") == [2, 7]
        assert int_list("", "--ids") == [] and str_list(" , ") == []

    def test_non_integer_names_the_flag(self):
        with pytest.raises(SystemExit, match="--cores must be comma-separated integers"):
            int_list("1,x", "--cores")

    def test_chaos_grid_keys_have_no_spaces(self):
        args = build_parser().parse_args(
            ["chaos", "--ids", "24", "--cores", "1", "--configs", "conf0, conf1"]
        )
        ids, cores, configs = _grid_args(args)
        keys = [pt.key() for pt in Campaign.grid(ids, cores, configs=configs)]
        assert keys == ["24:1:conf0:distance_reduction:csr", "24:1:conf1:distance_reduction:csr"]

    def test_chaos_empty_selection_exits(self):
        args = build_parser().parse_args(["chaos", "--ids", ",", "--cores", "1"])
        with pytest.raises(SystemExit, match="--ids selected nothing"):
            _grid_args(args)


class TestArtifacts:
    def test_table1(self):
        code, text = run_cli("run", "table1", *FAST)
        assert code == 0
        assert "Table I" in text
        assert "rajat09" in text and "Na5" in text

    def test_fig3(self):
        code, text = run_cli("run", "fig3", *FAST)
        assert code == 0
        assert "hops" in text and "degradation %" in text

    def test_fig5(self):
        code, text = run_cli("run", "fig5", *FAST)
        assert code == 0
        assert "speedup" in text

    def test_fig6(self):
        code, text = run_cli("run", "fig6", *FAST)
        assert code == 0
        assert "wsKB/core@24" in text

    def test_fig7(self):
        code, text = run_cli("run", "fig7", *FAST)
        assert code == 0
        assert "without L2" in text

    def test_fig8(self):
        code, text = run_cli("run", "fig8", *FAST)
        assert code == 0
        assert "speedup@48" in text

    def test_fig9(self):
        code, text = run_cli("run", "fig9", *FAST)
        assert code == 0
        assert "conf1 MFLOPS/s" in text
        assert "MFLOPS/W" in text

    def test_fig10(self):
        code, text = run_cli("run", "fig10", *FAST)
        assert code == 0
        assert "Tesla M2050" in text
        assert "SCC conf0" in text

    def test_all_renders_everything(self):
        code, text = run_cli("run", "all", *FAST)
        assert code == 0
        for marker in ("Table I", "Fig. 3", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10"):
            assert marker in text

    def test_artifact_list_is_complete(self):
        assert ARTIFACTS == ("table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")

    def test_validate_subcommand(self):
        code, text = run_cli("run", "validate")
        assert code == 0
        assert "all checks passed" in text
        assert "FAIL" not in text

    def test_output_flag_writes_file(self, tmp_path):
        path = tmp_path / "artifact.txt"
        code = main(["run", "table1", *FAST, "--output", str(path)])
        assert code == 0
        assert "Table I" in path.read_text()


class TestValidateExact:
    def test_parser_accepts_flag_without_artifact(self):
        args = build_parser().parse_args(["run", "--validate-exact"])
        assert args.validate_exact
        assert args.artifact is None

    def test_bare_run_without_artifact_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_exact_validation_table(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli("run", "--validate-exact", *FAST)
        assert code == 0
        assert "Exact-replay validation" in text
        assert "model miss %" in text and "exact miss %" in text
        assert "mean |delta|" in text

    def test_artifact_still_renders_with_run(self):
        code, text = run_cli("run", "table1", *FAST)
        assert code == 0
        assert "Table I" in text


class TestRepair:
    """``repro run --repair``: quarantine a campaign file's corrupt lines."""

    @staticmethod
    def _damaged(tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            '{"status": "ok", "matrix": "a"}\n'
            "not json at all\n"
            '["a", "list"]\n'
            '{"status": "ok", "matrix": "b"}\n'
        )
        return path

    def test_text_reports_kept_and_quarantined(self, tmp_path):
        path = self._damaged(tmp_path)
        code, out = run_cli("run", "--repair", str(path))
        assert code == 0
        assert out.strip() == (
            f"{path}: kept 2 record(s), quarantined 2 corrupt line(s) "
            f"to {tmp_path / 'sweep.quarantine.jsonl'}"
        )
        assert len(Campaign("sweep", tmp_path).load()) == 2

    def test_clean_file_text_names_no_quarantine(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        path.write_text('{"status": "ok"}\n')
        code, out = run_cli("run", "--repair", str(path))
        assert code == 0
        assert out.strip() == f"{path}: kept 1 record(s), quarantined 0 corrupt line(s)"

    def test_json_output(self, tmp_path):
        path = self._damaged(tmp_path)
        code, out = run_cli("run", "--repair", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"file": str(path), "kept": 2, "quarantined": 2}

    def test_missing_file_exits(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(SystemExit, match="no such campaign file"):
            run_cli("run", "--repair", str(missing))

    def test_non_jsonl_path_exits(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{}\n")
        with pytest.raises(SystemExit, match="expects a .jsonl file"):
            run_cli("run", "--repair", str(path))

    def test_json_without_repair_exits(self):
        with pytest.raises(SystemExit, match="only to --repair"):
            run_cli("run", "table1", "--json", *FAST)

    def test_faults_command_is_gone(self, capsys):
        assert main(["faults", "--repair", "x.jsonl"]) == 2
        assert "unknown command 'faults'" in capsys.readouterr().err


class TestTrace:
    def test_summary_export(self):
        code, text = run_cli("trace", "--export", "summary", "--scale", "0.02")
        assert code == 0
        summary = json.loads(text)
        assert set(summary) == {"run", "events", "metrics"}
        assert summary["run"]["n_cores"] == 4 and summary["run"]["matrix"] == "rajat09"
        assert summary["events"] > 0
        assert summary["metrics"]

    def test_zero_cores_exits(self):
        with pytest.raises(SystemExit, match="--cores must be >= 1"):
            main(["trace", "--cores", "0", "--scale", "0.02"])

    def test_json_flag_is_gone(self):
        for cmd in ("trace", "bench"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--json"] + (["gate"] if cmd == "bench" else []))
            assert exc.value.code == 2
