import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchcast
import matchcast.predictors as predictors
import matchcast.selftest as selftest
from matchcast.cli import main, parse_config_file
from matchcast.data import serialize_matches
from matchcast.predictors import KNOWN_MODELS
from matchcast.reports import SCORES_CSV_HEADER
from matchcast.selftest import simulate_played_season


def count_scenario_csv():
    """A partial season where the matchday-20 fixture meets known tallies.

    Through matchday 19 the home side has a (6,2,1) home record and the
    visitor a (2,3,4) away record, the inputs of the equal-mixture worked
    example.
    """
    rows = ["season,matchday,home,away,home_goals,away_goals"]
    home_results = [(2, 0)] * 6 + [(1, 1)] * 2 + [(0, 1)]        # 6W 2D 1L at home
    away_results = [(0, 1)] * 2 + [(1, 1)] * 3 + [(2, 0)] * 4    # 2W 3D 4L away
    for k, (hg, ag) in enumerate(home_results, start=1):
        rows.append(f"2014,{k},Redbrook,Filler{k},{hg},{ag}")
    for k, (hg, ag) in enumerate(away_results, start=1):
        rows.append(f"2014,{k},Other{k},Port Vale,{hg},{ag}")
    rows.append("2014,20,Redbrook,Port Vale,,")
    return "\n".join(rows) + "\n"


@pytest.fixture
def matches_file(tmp_path, two_seasons):
    path = tmp_path / "matches.csv"
    records = [m for s in two_seasons for m in s.matches]
    path.write_text(serialize_matches(records), encoding="utf-8")
    return path


class TestValidate:
    def test_reports_seasons(self, matches_file, capsys):
        assert main(["validate", "--matches", str(matches_file)]) == 0
        out = capsys.readouterr().out
        assert "season 2013" in out
        assert "season 2014" in out

    def test_full_championship_reported_complete(self, tmp_path, capsys, rng):
        teams = [f"team{k:02d}" for k in range(20)]
        season = simulate_played_season(teams, 2014, rng)
        path = tmp_path / "full.csv"
        path.write_text(serialize_matches(season.matches), encoding="utf-8")
        assert main(["validate", "--matches", str(path)]) == 0
        assert "complete season" in capsys.readouterr().out

    def test_duplicate_fixture_reports_both_lines(self, tmp_path, capsys):
        text = (
            "season,matchday,home,away,home_goals,away_goals\n"
            "2014,1,A,B,1,0\n"
            "2014,2,B,A,0,0\n"
            "2014,1,A,B,2,2\n"
        )
        path = tmp_path / "dup.csv"
        path.write_text(text)
        assert main(["validate", "--matches", str(path)]) == 2
        err = capsys.readouterr().err
        assert "lines 2, 4" in err

    def test_scheduled_matches_listed(self, tmp_path, capsys):
        path = tmp_path / "sched.csv"
        path.write_text(count_scenario_csv())
        assert main(["validate", "--matches", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheduled: matchday 20, redbrook vs port vale" in out

    def test_malformed_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("season,matchday,home,away,home_goals,away_goals\n2014,1,A,A,1,0\n")
        assert main(["validate", "--matches", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestPredict:
    def test_worked_example_row(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        assert (
            main(
                [
                    "predict",
                    "--matches",
                    str(path),
                    "--matchday",
                    "20",
                    "--models",
                    "mn-dir1,trivial",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("mn-dir1")]
        assert len(lines) == 1
        fields = lines[0].split(",")
        assert fields[3:5] == ["redbrook", "port vale"]
        p = tuple(float(x) for x in fields[5:8])
        assert p[0] == pytest.approx(0.5, abs=1e-9)
        assert p[1] == pytest.approx(0.291667, abs=5e-7)
        assert p[2] == pytest.approx(0.208333, abs=5e-7)

    def test_trivial_rows_uniform(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        main(["predict", "--matches", str(path), "--matchday", "20", "--models", "trivial"])
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if l.startswith("trivial")][0]
        probs = [float(x) for x in row.split(",")[5:8]]
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_failed_model_reported_others_emitted(self, tmp_path, capsys):
        # mn-dir2 cannot tune on an incomplete first half at matchday 2;
        # the run still emits the trivial rows and exits 0.
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        code = main(
            [
                "predict",
                "--matches",
                str(path),
                "--matchday",
                "2",
                "--models",
                "mn-dir2,trivial",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "mn-dir2 failed" in captured.err
        assert any(l.startswith("trivial") for l in captured.out.splitlines())

    def test_external_predictor_missing_fixture_flagged(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        ext = tmp_path / "ext.csv"
        ext.write_text("season,matchday,home,away,p1,p2,p3\n")
        code = main(
            [
                "predict",
                "--matches",
                str(path),
                "--matchday",
                "20",
                "--models",
                f"external:{ext}",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no prediction for redbrook vs port vale" in err
        assert "error: no usable models" in err

    def test_multi_season_requires_season_flag(self, matches_file, capsys):
        assert main(["predict", "--matches", str(matches_file), "--matchday", "6"]) == 2
        assert "--season" in capsys.readouterr().err

    def test_writes_csv_when_out_given(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        out_dir = tmp_path / "out"
        main(
            [
                "predict",
                "--matches",
                str(path),
                "--matchday",
                "20",
                "--models",
                "trivial",
                "--out",
                str(out_dir),
            ]
        )
        written = out_dir / "predictions_matchday20.csv"
        assert written.exists()
        assert written.read_text().startswith("model,season,matchday")

    def test_out_config_key_writes_csv_as_the_flag_does(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={path}\nmodels=trivial\nout={tmp_path / 'cfg-out'}\n")
        assert main(["predict", "--config", str(cfg), "--matchday", "20"]) == 0
        written = tmp_path / "cfg-out" / "predictions_matchday20.csv"
        assert capsys.readouterr().out == f"wrote {written}\n"
        assert written.read_text().startswith("model,season,matchday")

        # Without out, predict prints the same CSV and writes nothing.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg.write_text(f"matches={path}\nmodels=trivial\n")
        assert main(["predict", "--config", str(cfg), "--matchday", "20"]) == 0
        assert capsys.readouterr().out == written.read_text()
        assert not any(work.iterdir())

    def test_dump_params_exports_fitted_values(self, tmp_path, capsys):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        out_dir = tmp_path / "out"
        main(
            [
                "predict",
                "--matches",
                str(path),
                "--matchday",
                "20",
                "--models",
                "bt,poisson-lee",
                "--dump-params",
                "--out",
                str(out_dir),
            ]
        )
        bt_text = (out_dir / "params_bt_matchday20.csv").read_text()
        assert bt_text.startswith("team,worth")
        assert "gamma," in bt_text and "nu," in bt_text
        poisson_text = (out_dir / "params_poisson-lee_matchday20.csv").read_text()
        assert poisson_text.startswith("team,att,def")
        assert "lambda3," in poisson_text

    def test_csv_outputs_round_trip_names_with_a_comma_and_a_quote(self, tmp_path, capsys):
        teams = ["comma, united", 'say "hi" fc', "t2", "t3", "t4", "t5"]
        season = simulate_played_season(teams, 2014, np.random.default_rng(5))
        path = tmp_path / "m.csv"
        path.write_text(serialize_matches(season.matches), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["predict", "--matches", str(path), "--matchday", "8", "--out", str(out_dir)]
        assert main([*argv, "--models", "trivial,bt,poisson-lee", "--dump-params"]) == 0
        assert capsys.readouterr().err == ""

        def read(name):
            with (out_dir / name).open(newline="", encoding="utf-8") as f:
                return list(csv.reader(f))

        header, *rows = read("predictions_matchday8.csv")
        assert header == ["model", "season", "matchday", "home", "away", "p1", "p2", "p3"]
        assert len(rows) == 3 * 3
        assert all(len(row) == 8 for row in rows)
        fixtures = {(m.home, m.away) for m in season.matches_of(8)}
        assert {(row[3], row[4]) for row in rows} == fixtures
        bt = read("params_bt_matchday8.csv")
        assert bt[0] == ["team", "worth"] and [r[0] for r in bt[-2:]] == ["gamma", "nu"]
        assert sorted(r[0] for r in bt[1:-2]) == sorted(teams)
        lee = read("params_poisson-lee_matchday8.csv")
        assert lee[0] == ["team", "att", "def"] and all(len(r) == 3 for r in lee)
        assert sorted(r[0] for r in lee[1:-3]) == sorted(teams)


class TestEvaluate:
    def test_trivial_summary_and_reports(self, matches_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--matches",
                str(matches_file),
                "--models",
                "trivial",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.6667" in out
        payload = json.loads((out_dir / "report.json").read_text())
        assert set(payload) == {"trivial"}
        assert payload["trivial"]["aggregates"]["n_scored"] == 30
        assert len(payload["trivial"]["per_year"]) == 2
        # Per-match rows live in scores.csv alone.
        assert not any("per_match" in report for report in payload.values())
        scores = (out_dir / "scores.csv").read_text().splitlines()
        assert scores[0] == ",".join(SCORES_CSV_HEADER)
        assert len(scores) == 1 + 30

    def test_byte_identical_reruns(self, matches_file, tmp_path):
        args = [
            "evaluate",
            "--matches",
            str(matches_file),
            "--models",
            "trivial,mn-dir1",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("report.json", "scores.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_predict_matches_evaluate_for_every_model(self, matches_file, tmp_path, capsys):
        models = ",".join(KNOWN_MODELS)
        out_dir = tmp_path / "report"
        args = ["--matches", str(matches_file), "--models", models]
        assert main(["evaluate", *args, "--out", str(out_dir)]) == 0
        scores = (out_dir / "scores.csv").read_text().splitlines()
        evaluated = {tuple(row[:5]): row[5:8] for row in csv.reader(scores[1:])}
        capsys.readouterr()
        predicted = 0
        for season, matchday in ((2013, 6), (2014, 6), (2014, 10)):
            when = ["--season", str(season), "--matchday", str(matchday)]
            assert main(["predict", *args, *when]) == 0
            rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
            assert {row[0] for row in rows} == set(KNOWN_MODELS)
            for row in rows:
                assert row[5:8] == evaluated[tuple(row[:5])]
                predicted += 1
        assert predicted == len(KNOWN_MODELS) * 3 * 3

    def test_bad_model_spec_continues(self, matches_file, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--matches",
                str(matches_file),
                "--models",
                "bogus,trivial",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "failed models" in captured.out

    def test_model_without_predictions_reported_others_kept(
        self, matches_file, tmp_path, capsys
    ):
        # The forecast file covers another season only, so the external
        # model predicts no fixture of the archive.
        ext = tmp_path / "ext.csv"
        ext.write_text("season,matchday,home,away,p1,p2,p3\n1999,6,t0,t1,0.5,0.3,0.2\n")
        out_dir = tmp_path / "r"
        code = main(
            [
                "evaluate",
                "--matches",
                str(matches_file),
                "--models",
                f"trivial,external:{ext}",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"model external:{ext} produced no predictions" in captured.err
        assert "failed models" in captured.out
        assert set(json.loads((out_dir / "report.json").read_text())) == {"trivial"}

    def test_summary_columns_align_past_long_model_names(self, matches_file, tmp_path, capsys):
        ext_dir = tmp_path / "published-forecasts-from-a-long-directory-name"
        ext_dir.mkdir()
        ext = ext_dir / "ext.csv"
        rows = ["season,matchday,home,away,p1,p2,p3"]
        for row in list(csv.reader(matches_file.read_text().splitlines()))[1:]:
            rows.append(",".join(row[:4]) + ",0.5,0.3,0.2")
        ext.write_text("\n".join(rows) + "\n")
        args = ["evaluate", "--matches", str(matches_file), "--out", str(tmp_path / "r")]
        assert main(args + ["--models", f"trivial,external:{ext}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index(next(line for line in lines if line.startswith("model ")))
        table = [lines[header]] + lines[header + 2 : header + 4]
        ends = [re.match(r"\S+\s+(\S+)", line).end(1) for line in table]
        assert table[2].startswith(f"external:{ext} ")
        assert len(set(ends)) == 1

    def test_unplayed_first_half_match_refused_as_predict_does(self, tmp_path, capsys, rng):
        season = simulate_played_season([f"t{k}" for k in range(6)], 2014, rng)
        records = list(season.matches)
        records[0] = records[0].scheduled_copy()  # a matchday-1 match
        path = tmp_path / "matches.csv"
        path.write_text(serialize_matches(records), encoding="utf-8")
        capsys.readouterr()
        errors = []
        for argv in (["evaluate", "--out", str(tmp_path / "r")], ["predict", "--matchday", "6"]):
            code = main(argv + ["--matches", str(path), "--models", "trivial"])
            assert code == 2
            errors.append(capsys.readouterr().err)
        m = records[0]
        where = f"({m.home} vs {m.away} on matchday 1)"
        assert errors == [f"error: season 2014: unplayed matches before matchday 6 {where}\n"] * 2
        assert not (tmp_path / "r").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a cold start.
    src = str(Path(matchcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, matchcast.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_the_process_pool_unloaded():
    # evaluate imports the pool only where it starts one.
    src = str(Path(matchcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, matchcast.cli\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_loads_no_scipy():
    # Every command, `selftest` included, runs on numpy alone.
    src = str(Path(matchcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, matchcast, matchcast.cli, matchcast.selftest\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestConfig:
    def test_config_file_supplies_defaults(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# reproducible run\nmatches={matches_file}\nmodels=trivial\n"
            f"out={tmp_path / 'cfg-out'}\nseed=7\n"
        )
        assert main(["evaluate", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg-out" / "report.json").exists()

    def test_evaluate_writes_to_default_dir_without_out(
        self, matches_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--matches", str(matches_file), "--models", "trivial"]) == 0
        assert (tmp_path / "matchcast-report" / "report.json").exists()

    def test_env_var_fallback(self, matches_file, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=trivial\nout={tmp_path / 'env-out'}\n")
        monkeypatch.setenv("MATCHCAST_CONFIG", str(cfg))
        assert main(["evaluate"]) == 0
        assert (tmp_path / "env-out" / "report.json").exists()

    def test_flags_override_config(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=mn-dir1\nout={tmp_path / 'x'}\n")
        main(["evaluate", "--config", str(cfg), "--models", "trivial", "--out", str(tmp_path / "y")])
        payload = json.loads((tmp_path / "y" / "report.json").read_text())
        assert set(payload) == {"trivial"}

    def test_engine_settings_parsed(self, tmp_path):
        from matchcast.cli import RunConfig

        cfg = RunConfig(
            raw={
                "bt.tol": "1e-6",
                "bt.max_iter": "100",
                "poisson.window": "last_n_rounds:4",
                "poisson.correlated": "false",
                "mn_dir2.w_grid": "0.2,0.8",
                "mn_dir2.alpha_grid": "1.0,2.0",
            }
        )
        bt, biv, grid = cfg.build("bt"), cfg.build("poisson-biv"), cfg.build("mn-dir2").grid
        assert bt.settings.tol == 1e-6
        assert bt.settings.max_iter == 100
        assert biv.window.n_rounds == 4
        assert biv.correlated is False
        assert grid.w_points == (0.2, 0.8)
        assert grid.alpha_points == (1.0, 2.0)

    def test_invalid_solver_setting_fails_the_build(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=bt\nout={tmp_path / 'r'}\nbt.tol=0\n")
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "model bt failed to build: invalid optimizer settings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, setting, message",
        [
            ("bt", "bt.tol=nan", "invalid optimizer settings"),
            ("bt", "bt.tol=inf", "invalid optimizer settings"),
            ("poisson-lee", "poisson.tail_tol=0.5", "tail_tol must lie in (0, 1e-06]"),
            ("poisson-biv", "poisson.tail_tol=nan", "tail_tol must lie in (0, 1e-06]"),
            # A grid may miss this much mass, but outcome_probs would refuse it.
            ("poisson-lee", "poisson.tail_tol=1e-4", "tail_tol must lie in (0, 1e-06]"),
            ("poisson-biv", "poisson.tail_tol=1e-4", "tail_tol must lie in (0, 1e-06]"),
            ("mn-dir2", "mn_dir2.alpha_grid=nan,1.0", "alpha_points must be strictly"),
            ("mn-dir2", "mn_dir2.w_grid=", "w_points must be non-empty"),
            ("mn-dir2", "mn_dir2.alpha_grid=", "alpha_points must be non-empty"),
        ],
    )
    def test_out_of_range_setting_fails_the_build(
        self, model, setting, message, matches_file, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "r"
        cfg.write_text(f"matches={matches_file}\nmodels={model}\nout={out}\n{setting}\n")
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert f"model {model} failed to build: {message}" in capsys.readouterr().err

    def test_largest_tail_tol_predicts(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"matches={matches_file}\nmodels=poisson-lee,poisson-biv\npoisson.tail_tol=1e-6\n"
        )
        assert main(["predict", "--config", str(cfg), "--season", "2014", "--matchday", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        models = [row[0] for row in csv.reader(captured.out.splitlines()[1:])]
        assert models == ["poisson-lee"] * 3 + ["poisson-biv"] * 3

    @pytest.mark.parametrize(
        "models, setting",
        [("poisson-lee,poisson-biv", "poisson.tail_tol=1e-4"), ("mn-dir2", "mn_dir2.w_grid=")],
    )
    def test_predict_without_a_usable_model_fails_as_evaluate_does(
        self, models, setting, matches_file, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "r"
        cfg.write_text(f"matches={matches_file}\nmodels={models}\nout={out}\n{setting}\n")
        assert main(["predict", "--config", str(cfg), "--season", "2014", "--matchday", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: no usable models\n")
        assert captured.out == ""
        assert not out.exists()

    def test_nan_setting_leaves_the_other_models_reported(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("mn_dir2.alpha_grid=nan,1.0\n")
        out = tmp_path / "r"
        argv = [
            "evaluate", "--config", str(cfg), "--matches", str(matches_file),
            "--models", "trivial,mn-dir2,poisson-lee,bt", "--out", str(out),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "model mn-dir2 failed to build" in captured.err
        assert "failed models (excluded from report): mn-dir2" in captured.out
        reported = set(json.loads((out / "report.json").read_text()))
        assert reported == {"trivial", "poisson-lee", "bt"}

    def test_bad_setting_fails_only_its_own_model(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nbt.tol=0\n")
        out = tmp_path / "r"
        argv = ["evaluate", "--config", str(cfg), "--models", "trivial,bt", "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "model bt failed to build: invalid optimizer settings" in captured.err
        assert "trivial" not in captured.err
        assert "failed models (excluded from report): bt" in captured.out
        assert set(json.loads((out / "report.json").read_text())) == {"trivial"}

    def test_predict_words_a_build_failure_as_evaluate_does(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=trivial,bt\nbt.tol=0\n")
        errors = []
        predict = ["predict", "--season", "2014", "--matchday", "8"]
        for argv in (["evaluate", "--out", str(tmp_path / "r")], predict):
            assert main(argv + ["--config", str(cfg)]) == 0
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("model bt failed to build: invalid optimizer settings")
        assert errors[0].count("\n") == 1

    def test_other_models_ignore_poisson_keys(self, matches_file, tmp_path, capsys):
        runs = {}
        for name, extra in (("plain", ""), ("bogus", "poisson.window=bogus\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"matches={matches_file}\nmodels=trivial,mn-dir1\n{extra}")
            out = tmp_path / name
            assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs[name] = (out / "report.json").read_bytes(), (out / "scores.csv").read_bytes()
        assert runs["bogus"] == runs["plain"]

    def test_each_model_parses_only_its_own_keys(self):
        from matchcast.cli import RunConfig

        owners = {
            "mn_dir2.w_grid": {"mn-dir2"},
            "bt.tol": {"bt"},
            "poisson.tail_tol": {"poisson-lee", "poisson-biv"},
            "poisson.window": {"poisson-biv"},
            "poisson.correlated": {"poisson-biv"},
        }
        for spec in KNOWN_MODELS:
            for key, owned_by in owners.items():
                cfg = RunConfig(raw={key: "x"})
                if spec in owned_by:
                    with pytest.raises(ValueError):
                        cfg.build(spec)
                else:
                    assert cfg.build(spec).name == spec

    @pytest.mark.parametrize("key", ["bt.tols", "poisson.windw", "window"])
    def test_misspelled_key_refused(self, key, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=bt\n{key}=0\n")
        out = tmp_path / "r"
        for command in (
            ["validate"],
            ["predict", "--season", "2014", "--matchday", "6"],
            ["evaluate", "--out", str(out)],
            ["selftest"],
        ):
            assert main([*command, "--config", str(cfg)]) == 2
            assert f"unknown config key {key}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_accepted_keys_follow_build_predictor(self, matches_file, tmp_path, monkeypatch):
        real = predictors.build_predictor

        def reading_one_more(spec, settings=None):
            if spec == "bt" and settings is not None:
                settings.get("bt.extra")
            return real(spec, settings)

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=trivial\nbt.extra=1\n")
        argv = ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        monkeypatch.setattr(predictors, "build_predictor", reading_one_more)
        assert main(argv) == 0

    def test_repeated_model_refused(self, matches_file, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["evaluate", "--matches", str(matches_file), "--out", str(out)]
        assert main(argv + ["--models", "trivial,mn-dir1,trivial"]) == 2
        assert "error: model trivial listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_refused_with_both_lines(self, matches_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bt.tol=1e-6\nmatches={matches_file}\n\n# again\n bt.tol = 0\n")
        with pytest.raises(ValueError, match=r"run.cfg:5: key bt.tol given twice \(first on line 1\)"):
            parse_config_file(cfg)
        out = tmp_path / "r"
        argv = ["evaluate", "--config", str(cfg), "--models", "trivial", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}:5: key bt.tol given twice (first on line 1)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("line", ["=5", " = 5", "bt.tol"])
    def test_line_without_a_key_refused_with_its_number(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"models=trivial\n{line}\n")
        with pytest.raises(ValueError, match=rf"run.cfg:2: expected key=value, got {line!r}"):
            parse_config_file(cfg)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "run.cfg:2: expected key=value" in capsys.readouterr().err

    def test_empty_value_is_kept(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mn_dir2.w_grid=\nout = a=b\n")
        assert parse_config_file(cfg) == {"mn_dir2.w_grid": "", "out": "a=b"}

    def test_poisson_correlated_key_reaches_model(self):
        from matchcast.cli import RunConfig

        cfg = RunConfig(raw={"poisson.correlated": "false"})
        predictor = cfg.build("poisson-biv")
        assert predictor.correlated is False


class TestSeed:
    @pytest.fixture
    def seeds(self, monkeypatch):
        seen = []
        monkeypatch.setattr(selftest, "run_all", lambda seed: seen.append(seed) or [])
        return seen

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["predict", "--season", "2014", "--matchday", "6"], ["evaluate"]],
        ids=lambda command: command[0],
    )
    def test_only_selftest_takes_a_seed(self, command, matches_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--matches", str(matches_file), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_selftest_seed_flag_and_config_key(self, tmp_path, seeds):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        assert main(["selftest"]) == 0
        assert main(["selftest", "--seed", "11"]) == 0
        assert main(["selftest", "--config", str(cfg)]) == 0
        assert main(["selftest", "--config", str(cfg), "--seed", "11"]) == 0
        assert seeds == [selftest.DEFAULT_SEED, 11, 7, 11]

    def test_negative_seed_refused_before_any_check(self, tmp_path, seeds, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        for argv in (["selftest", "--seed", "-1"], ["selftest", "--config", str(cfg)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: seed must be a non-negative integer, got -1\n"
            assert captured.out == ""
        assert seeds == []

    @pytest.mark.parametrize("flag", ["--matches", "--models", "--out"])
    def test_selftest_takes_only_config_and_seed(self, flag, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err
        assert seeds == []


class TestSelftestNames:
    def test_every_check_is_named_after_its_function(self):
        assert [selftest.check_name(check) for check in selftest.ALL_CHECKS] == [
            "worked-example", "golden-scores", "propriety-grid", "dirichlet-conjugacy",
            "davidson-recovery", "davidson-gradient", "bivariate-poisson", "poisson-recovery",
            "chi-square-gof", "calibration-band", "leakage-guard", "cv-select-brute-force",
            "determinism",
        ]

    @pytest.mark.parametrize(
        "dependency, name",
        [
            ("_simplex_grid", "propriety-grid"),
            ("posterior", "dirichlet-conjugacy"),
            ("chi_square_gof", "chi-square-gof"),
            ("calibration_curve", "calibration-band"),
            ("cv_select", "cv-select-brute-force"),
        ],
    )
    def test_crashed_check_fails_under_its_pass_name(self, dependency, name, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        check = getattr(selftest, "check_" + name.replace("-", "_"))
        monkeypatch.setattr(selftest, "ALL_CHECKS", (check,))
        monkeypatch.setattr(selftest, dependency, boom)
        assert selftest.run_all() == [selftest.CheckResult(name, False, "RuntimeError: boom")]


@pytest.mark.parametrize("flag", ["--models", "--out"])
def test_validate_refuses_flags_it_would_ignore(flag, matches_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--matches", str(matches_file), flag, "x"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err
