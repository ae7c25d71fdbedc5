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
import matchcast.selftest as selftest
from matchcast.cli import RunConfig, build_parser, load_config, main
from matchcast.data import parse_matches, second_half_matchdays, serialize_matches
from matchcast.davidson import bt_fit
from matchcast.evaluation import context_for
from matchcast.poisson import poisson_fit
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
        assert err == "error: line 4: duplicate fixture (2014, 1, 'a', 'b'), first on line 2\n"

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

    def test_missing_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        assert main(["validate", "--matches", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


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

    def test_first_half_matchday_fails_every_refit_model(self, matches_file, capsys):
        # Ten rounds: matchday 3 is in the first half, which only the count
        # models forecast.
        argv = ["predict", "--matches", str(matches_file), "--season", "2014", "--matchday", "3"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "".join(
            f"model {name} failed: ValueError: matchday 3 is not in the second half\n"
            for name in ("mn-dir2", "bt", "poisson-lee", "poisson-biv")
        )
        third = "0.3333333333333333"
        assert out == (
            "model,season,matchday,home,away,p1,p2,p3\n"
            f"trivial,2014,3,t0,t2,{third},{third},{third}\n"
            f"trivial,2014,3,t3,t1,{third},{third},{third}\n"
            f"trivial,2014,3,t4,t5,{third},{third},{third}\n"
            "mn-dir1,2014,3,t0,t2,0.375,0.375,0.25\n"
            f"mn-dir1,2014,3,t3,t1,{third},{third},{third}\n"
            "mn-dir1,2014,3,t4,t5,0.25,0.5,0.25\n"
        )

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

    def test_out_writes_the_csv_predict_prints_without_it(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t1.csv"
        path.write_text(count_scenario_csv())
        argv = ["predict", "--matches", str(path), "--models", "trivial", "--matchday", "20"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        written = tmp_path / "out" / "predictions_matchday20.csv"
        assert capsys.readouterr().out == f"wrote {written}\n"
        assert written.read_text().startswith("model,season,matchday")

        # Without out, or with an empty one, predict prints the same CSV and writes nothing.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for extra in ([], ["--out", ""]):
            assert main([*argv, *extra]) == 0
            assert capsys.readouterr().out == written.read_text()
        assert not any(work.iterdir())

    def test_dump_params_exports_fitted_values(self, matches_file, two_seasons, tmp_path, capsys):
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

        # Without --out, every refit model prints its last fit once.
        capsys.readouterr()
        argv = ["predict", "--matches", str(matches_file), "--season", "2014", "--matchday", "6"]
        assert main([*argv, "--dump-params"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        blocks = [line for line in out.splitlines() if line.startswith("# fitted parameters for ")]
        refit = ("bt", "poisson-lee", "poisson-biv")
        assert blocks == [f"# fitted parameters for {model}" for model in refit]
        # Each block is the fit behind the forecasts, byte for byte.
        ctx = context_for(two_seasons, two_seasons[1], 6)
        direct = [
            bt_fit(ctx.training()),
            poisson_fit(ctx.training()),
            poisson_fit(ctx.training(all_seasons=True), correlated=True),
        ]
        dumped = out.split("# fitted parameters for ")[1:]
        assert dumped == [f"{m}\n{fit.params.to_csv()}" for m, fit in zip(refit, direct)]

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
        assert capsys.readouterr().err == ""
        # Per-match rows live in scores.csv alone, one per scored match.
        payload = json.loads((out_dir / "report.json").read_text())
        assert not [model for model, report in payload.items() if "per_match" in report]
        scores = (out_dir / "scores.csv").read_text().splitlines()
        assert len(scores) == 1 + sum(r["aggregates"]["n_scored"] for r in payload.values())
        evaluated = {tuple(row[:5]): row[5:8] for row in csv.reader(scores[1:])}
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

    def test_zero_probability_forecasts_leave_stderr_empty(
        self, two_seasons, matches_file, tmp_path, capsys
    ):
        # t0 is never given a home win and t1 never an away win.
        rows = ["season,matchday,home,away,p1,p2,p3"]
        for m in (m for s in two_seasons for m in s.matches):
            weights = (0.0 if m.home == "t0" else 1.0, 1.0, 0.0 if m.away == "t1" else 1.0)
            probs = ",".join(repr(w / sum(weights)) for w in weights)
            rows.append(f"{m.season},{m.matchday},{m.home},{m.away},{probs}")
        ext = tmp_path / "ext.csv"
        ext.write_text("\n".join(rows) + "\n")
        out = tmp_path / "r"
        argv = ["evaluate", "--matches", str(matches_file), "--out", str(out)]
        assert main(argv + ["--models", f"trivial,external:{ext}"]) == 0
        assert capsys.readouterr().err == ""
        by_hand = []
        for season in two_seasons:
            second_half = [m for md in second_half_matchdays(season) for m in season.matches_of(md)]
            zero = {(m.home, "home") for m in second_half if m.home == "t0"}
            zero |= {(m.away, "away") for m in second_half if m.away == "t1"}
            by_hand.append(len(zero))
        assert by_hand == [2, 2]
        gof = json.loads((out / "report.json").read_text())[f"external:{ext}"]
        assert [year["gof"]["excluded_terms"] for year in gof["per_year"]] == by_hand
        assert gof["gof"]["excluded_terms"] == sum(by_hand)

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
        assert errors == [f"error: season 2014 matchday 1: unplayed match {m.home} vs {m.away}\n"] * 2
        assert not (tmp_path / "r").exists()

    def test_unplayed_earlier_year_match_refused_by_predict_and_evaluate(
        self, tmp_path, capsys, two_seasons
    ):
        # A forecast for 2014 reads every 2013 match; training without the
        # blanked one would be a different model, so both commands refuse.
        records = [m for s in two_seasons for m in s.matches]
        victim = records.index(two_seasons[0].matches_of(7)[1])
        records[victim] = records[victim].scheduled_copy()
        path = tmp_path / "matches.csv"
        path.write_text(serialize_matches(records), encoding="utf-8")
        capsys.readouterr()
        errors = []
        for argv in (
            ["evaluate", "--out", str(tmp_path / "r")],
            ["predict", "--season", "2014", "--matchday", "6"],
            ["predict", "--season", "2014", "--matchday", "1"],
        ):
            code = main(argv + ["--matches", str(path), "--models", "trivial,bt,poisson-biv"])
            assert code == 2
            errors.append(capsys.readouterr())
        m = records[victim]
        line = f"error: season 2013 matchday 7: unplayed match {m.home} vs {m.away}\n"
        assert [(e.out, e.err) for e in errors] == [("", line)] * 3
        assert not (tmp_path / "r").exists()

    def test_unplayed_match_of_a_one_round_earlier_season_refused(
        self, tmp_path, capsys, mid_season, rng
    ):
        # The one-round 2013 season has no second half, so none of it is
        # scored, yet every 2014 refit reads it.
        earlier = list(simulate_played_season(["a", "b", "c", "d"], 2013, rng).matches_of(1))
        earlier[1] = earlier[1].scheduled_copy()
        path = tmp_path / "matches.csv"
        path.write_text(serialize_matches(earlier + list(mid_season.matches)), encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--matches", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        m = earlier[1]
        assert capsys.readouterr().err == (
            f"error: season 2013 matchday 1: unplayed match {m.home} vs {m.away}\n"
        )
        assert not (tmp_path / "r").exists()


def test_cli_import_loads_no_scipy():
    # evaluate imports the pool only where it starts one, and every command,
    # `selftest` included, runs on numpy alone (scipy.stats costs most of a cold start).
    src = str(Path(matchcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, matchcast.cli\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import matchcast, matchcast.selftest\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_scipy_is_a_dev_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert not [r for r in project["dependencies"] if r.startswith("scipy")]
    assert [r for r in project["optional-dependencies"]["dev"] if r.startswith("scipy")]
    assert project["scripts"]["matchcast"] == "matchcast.cli:main"


class TestConfig:
    def test_empty_flag_counts_as_not_given(self, capsys):
        args = build_parser().parse_args(["evaluate", "--matches", "", "--models", "", "--out", ""])
        cfg = load_config(args)
        assert cfg == RunConfig()
        assert [cfg.build(spec).name for spec in cfg.models] == list(KNOWN_MODELS)
        assert main(["validate", "--matches", ""]) == 2
        assert capsys.readouterr().err == "error: no matches file given (use --matches)\n"

    def test_evaluate_writes_to_default_dir_without_out(
        self, matches_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--matches", str(matches_file), "--models", "trivial"]) == 0
        assert (tmp_path / "matchcast-report" / "report.json").exists()

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["predict", "--season", "2014", "--matchday", "6"], ["evaluate"]],
        ids=lambda command: command[0],
    )
    def test_config_flag_is_unrecognized(self, command, matches_file, tmp_path, capsys):
        # selftest's case is TestSeed::test_selftest_takes_only_seed.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=trivial\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err

    def test_config_env_var_refused_by_every_command(
        self, matches_file, tmp_path, capsys, monkeypatch
    ):
        # A run that silently ignored the file its user named would run on other values.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches={matches_file}\nmodels=trivial\n")
        monkeypatch.setenv("MATCHCAST_CONFIG", str(cfg))
        monkeypatch.setattr(selftest, "run_all", lambda seed: pytest.fail("a check ran"))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r"
        flags = ["--matches", str(matches_file)]
        for command in (
            ["validate", *flags],
            ["predict", *flags, "--models", "trivial", "--season", "2014", "--matchday", "6"],
            ["evaluate", *flags, "--models", "trivial", "--out", str(out)],
            ["evaluate", *flags],
            ["selftest", "--seed", "7"],
        ):
            assert main(command) == 2
            assert capsys.readouterr() == (
                "",
                "error: MATCHCAST_CONFIG is not read: give the run as flags "
                "(--matches, --models, --out, --seed)\n",
            )
        assert not out.exists()
        assert not (tmp_path / "matchcast-report").exists()

    def test_lone_model_failing_to_build_exits_2(self, matches_file, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        argv = ["evaluate", "--matches", str(matches_file), "--out", str(tmp_path / "r")]
        assert main([*argv, "--models", f"external:{missing}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"model external:{missing} failed to build: "
            f"[Errno 2] No such file or directory: '{missing}'\n"
            "error: no usable models\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("rows", [None, ""], ids=["missing-file", "no-rows"])
    def test_predict_without_a_usable_model_fails_as_evaluate_does(
        self, rows, matches_file, tmp_path, capsys
    ):
        forecasts = tmp_path / "forecasts.csv"
        if rows is not None:
            forecasts.write_text("season,matchday,home,away,p1,p2,p3\n" + rows)
        out = tmp_path / "r"
        argv = [
            "predict", "--matches", str(matches_file), "--models", f"external:{forecasts}",
            "--out", str(out), "--season", "2014", "--matchday", "8",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: no usable models\n")
        assert captured.out == ""
        assert not out.exists()

    def test_build_failure_leaves_the_other_models_reported(self, matches_file, tmp_path, capsys):
        missing = f"external:{tmp_path / 'missing.csv'}"
        out = tmp_path / "r"
        argv = [
            "evaluate", "--matches", str(matches_file),
            "--models", f"trivial,{missing},poisson-lee,bt", "--out", str(out),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"model {missing} failed to build: ")
        assert captured.err.count("\n") == 1
        assert f"failed models (excluded from report): {missing}" in captured.out
        reported = set(json.loads((out / "report.json").read_text()))
        assert reported == {"trivial", "poisson-lee", "bt"}

    def test_nan_setting_leaves_the_other_models_reported(self, matches_file, tmp_path, capsys):
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("season,matchday,home,away,p1,p2,p3\n2014,8,A,B,nan,0.5,0.5\n")
        out = tmp_path / "r"
        argv = [
            "evaluate", "--models", f"trivial,external:{forecasts},poisson-lee,bt",
            "--matches", str(matches_file), "--out", str(out),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"model external:{forecasts} failed to build: line 2: " in captured.err
        assert f"failed models (excluded from report): external:{forecasts}" in captured.out
        reported = set(json.loads((out / "report.json").read_text()))
        assert reported == {"trivial", "poisson-lee", "bt"}

    def test_predict_words_a_build_failure_as_evaluate_does(self, matches_file, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        flags = ["--matches", str(matches_file), "--models", f"trivial,external:{missing}"]
        errors = []
        predict = ["predict", "--season", "2014", "--matchday", "8"]
        for argv in (["evaluate", "--out", str(tmp_path / "r")], predict):
            assert main(argv + flags) == 0
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"model external:{missing} failed to build: ")
        assert errors[0].count("\n") == 1

    def test_repeated_model_refused(self, matches_file, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["evaluate", "--matches", str(matches_file), "--out", str(out)]
        assert main(argv + ["--models", "trivial,mn-dir1,trivial"]) == 2
        assert "error: model trivial listed twice" in capsys.readouterr().err
        assert not out.exists()


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

    def test_selftest_seed_flag(self, seeds):
        assert main(["selftest"]) == 0
        assert main(["selftest", "--seed", "11"]) == 0
        assert main(["selftest", "--seed", "0"]) == 0
        assert seeds == [selftest.DEFAULT_SEED, 11, 0]

    def test_negative_seed_refused_before_any_check(self, seeds, capsys):
        assert main(["selftest", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""
        assert seeds == []

    def test_non_integer_seed_refused_with_its_value(self, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --seed: invalid int value: 'x'" in captured.err
        assert captured.out == ""
        assert seeds == []

    @pytest.mark.parametrize("flag", ["--matches", "--models", "--out", "--config"])
    def test_selftest_takes_only_seed(self, flag, seeds, capsys):
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


@pytest.mark.parametrize("command", ["validate", "predict", "evaluate"])
def test_byte_order_mark_is_skipped(command, matches_file, tmp_path, capsys):
    # A spreadsheet's "CSV UTF-8" export starts with one, in either input file.
    forecasts = tmp_path / "forecasts.csv"
    rows = [
        f"{m.season},{m.matchday},{m.home},{m.away},0.5,0.3,0.2"
        for m in parse_matches(matches_file.read_text())
    ]
    forecasts.write_text("\n".join(["season,matchday,home,away,p1,p2,p3", *rows]) + "\n")
    out_dir = tmp_path / "out"
    argv = [command, "--matches", str(matches_file)]
    if command != "validate":
        argv += ["--models", f"trivial,external:{forecasts}", "--out", str(out_dir)]
    if command == "predict":
        argv += ["--season", "2014", "--matchday", "6"]
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):
        for path in (matches_file, forecasts):
            path.write_text(path.read_text(encoding="utf-8-sig"), encoding=encoding)
        assert main(argv) == 0
        written = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
        runs.append((capsys.readouterr(), written))
    assert matches_file.read_bytes().startswith(b"\xef\xbb\xbf")
    assert runs[0] == runs[1]
    assert runs[0][0].err == ""
    if command != "validate":
        assert f"external:{forecasts}".encode() in b"".join(runs[0][1].values())


class TestRefusals:
    """A refusal is one ``error: ...`` line on stderr and exit 2, printed by ``main`` alone."""

    HEADER = "season,matchday,home,away,home_goals,away_goals\n"
    # One quoted field past the csv module's default field_size_limit().
    HUGE = '"' + "x" * 131073 + '"'
    OVER_LIMIT = "field larger than field limit (131072)"
    TWO_LINE_ROW = '2001,1,"a\nb",c,1,0\n'

    @staticmethod
    def refused(argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input"),
            # A header and no rows, blank lines aside: refused before any model is built.
            (HEADER, "no matches in {path}"),
            (HEADER + "\n\n", "no matches in {path}"),
            (HEADER + "  \n,,,,,\n\n", "no matches in {path}"),
            (
                "season,round,home,away,hg,ag\n",
                "line 1: bad header ['season', 'round', 'home', 'away', 'hg', 'ag'], "
                "expected season,matchday,home,away,home_goals,away_goals",
            ),
            (HEADER + "2001,1,a,b,1,0\n2001,1,c,d,1\n", "line 3: expected 6 fields, got 5"),
            (
                HEADER + "2001,1,a,b,1,0\n\n2001,1,c,d,x,0\n",
                "line 4: home_goals is not an integer: 'x'",
            ),
            (HEADER + "2001,1,a,b,1,0\n2001,1,c,d,1,-2\n", "line 3: away_goals is negative: -2"),
            (
                HEADER + "2001,1,a,b,1,0\n2001,1,c,d,1,\n",
                "line 3: c vs d: goals must be both present or both absent",
            ),
            (HEADER + "2001,1,C, c ,1,0\n", "line 2: home and away team are both 'c'"),
            (HEADER + "2001,1,  ,d,1,0\n", "line 2: empty team name"),
            (HEADER + "20x1,1,a,b,1,0\n", "line 2: season/matchday must be integers: '20x1', '1'"),
            (HEADER + "2001,0,a,b,1,0\n", "line 2: matchday must be >= 1, got 0"),
            (HEADER + f"2001,1,a,b,1,0\n2001,1,{HUGE},d,1,0\n", f"line 3: {OVER_LIMIT}"),
            # A quoted two-line team name: each later row is named by the line it starts on.
            (
                HEADER + TWO_LINE_ROW + "2001,1,d,e,x,0\n",
                "line 4: home_goals is not an integer: 'x'",
            ),
            (
                HEADER + TWO_LINE_ROW + "2001,1,d,e,1,0\n2001,1,D,E,0,0\n",
                "line 5: duplicate fixture (2001, 1, 'd', 'e'), first on line 4",
            ),
            (
                HEADER + TWO_LINE_ROW + f'2001,1,"\n{HUGE[1:]},d,1,0\n',
                f"line 4: {OVER_LIMIT}",
            ),
        ],
        ids=[
            "empty", "header-only", "header-and-blank-lines", "header-and-blank-rows",
            "header", "fields", "non-integer", "negative", "one-blank", "self",
            "empty-team", "season", "matchday", "over-limit", "after-two-lines",
            "duplicate-after-two-lines", "over-limit-after-two-lines",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "predict", "evaluate"])
    def test_malformed_match_csv(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "matches.csv"
        path.write_text(text)
        argv = [command, "--matches", str(path)]
        if command == "predict":
            argv += ["--matchday", "1"]
        if command == "evaluate":
            argv += ["--out", str(tmp_path / "r")]
        assert self.refused(argv, capsys) == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                "2014,8,A,B,0.5,0.3,0.3\n",
                "line 2: probabilities [0.5, 0.3, 0.3] are not a distribution",
            ),
            (
                "2014,8,A,B,0.5,0.3,0.2\n2014,8, a ,b,0.5,0.3,0.2\n",
                "line 3: duplicate fixture (2014, 8, 'a', 'b'), first on line 2",
            ),
            ("2014,8, ,B,0.5,0.3,0.2\n", "line 2: empty team name"),
            ("2014,8,A,B,0.5,0.5\n", "line 2: expected 7 fields, got 6"),
            ("2014,8,A,B,0.5,x,0.5\n", "line 2: could not convert string to float: 'x'"),
            (f"2014,8,{HUGE},B,0.5,0.3,0.2\n", f"line 2: {OVER_LIMIT}"),
            (
                "2014.5,8,A,B,0.5,0.3,0.2\n",
                "line 2: season/matchday must be integers: '2014.5', '8'",
            ),
            (
                '2014,8,"A\nB",C,0.5,0.3,0.2\n2014,8,D,E,0.5,x,0.5\n',
                "line 4: could not convert string to float: 'x'",
            ),
            (
                '2014,8,"A\nB",C,0.5,0.3,0.2\n2014,8,D,E,0.5,0.3,0.2\n2014,8,d,e,0.5,0.3,0.2\n',
                "line 5: duplicate fixture (2014, 8, 'd', 'e'), first on line 4",
            ),
        ],
        ids=[
            "off-simplex", "duplicate", "empty-team", "fields", "non-float", "over-limit",
            "non-integer-season", "after-two-lines", "duplicate-after-two-lines",
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_malformed_external_csv(self, command, rows, message, matches_file, tmp_path, capsys):
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("season,matchday,home,away,p1,p2,p3\n" + rows)
        spec = f"external:{forecasts}"
        argv = [command, "--matches", str(matches_file), "--models", spec]
        if command == "predict":
            argv += ["--season", "2014", "--matchday", "8"]
        else:
            argv += ["--out", str(tmp_path / "r")]
        err = self.refused(argv, capsys)
        assert err == f"model {spec} failed to build: {message}\nerror: no usable models\n"

    def test_duplicate_fixture(self, matches_file, tmp_path, capsys):
        first = matches_file.read_text().splitlines()[1]
        matches_file.write_text(matches_file.read_text() + first + "\n")
        season, matchday, home, away = first.split(",")[:4]
        key = (int(season), int(matchday), home, away)
        for argv in (
            ["validate"],
            ["predict", "--season", "2014", "--matchday", "6"],
            ["evaluate", "--out", str(tmp_path / "r")],
        ):
            err = self.refused([*argv, "--matches", str(matches_file)], capsys)
            assert err == f"error: line 62: duplicate fixture {key}, first on line 2\n"

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        # validate's case is TestValidate.test_missing_file_exits_2_with_one_error_line.
        for argv in (["predict", "--matchday", "6"], ["evaluate"]):
            err = self.refused([*argv, "--matches", str(path)], capsys)
            assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--season", "1999", "--matchday", "6"], "season 1999 not in {path}"),
            (["--matchday", "6"], "multiple seasons in file; pick one with --season"),
            (["--season", "2014", "--matchday", "99"], "no fixtures for matchday 99"),
        ],
        ids=["season-not-in-file", "several-seasons", "no-fixtures"],
    )
    def test_predict_target(self, flags, message, matches_file, capsys):
        err = self.refused(["predict", "--matches", str(matches_file), *flags], capsys)
        assert err == f"error: {message.format(path=matches_file)}\n"

    @pytest.mark.parametrize(
        "rows", ["2001,1,a,b,1,0\n2001,1,c,d,,\n", "2001,1,a,b,1,0\n2001,1,c,d,0,2\n"],
        ids=["one-round", "one-round-played"],
    )
    def test_evaluate_without_a_second_half_matchday(self, rows, tmp_path, capsys):
        # Refused before any model is built, so no model is named.
        path = tmp_path / "matches.csv"
        path.write_text(self.HEADER + rows)
        argv = ["evaluate", "--matches", str(path), "--out", str(tmp_path / "r")]
        assert self.refused(argv, capsys) == "error: no second-half matchday to score\n"
        assert not (tmp_path / "r").exists()

    def test_evaluate_without_a_model_that_predicts(self, matches_file, tmp_path, capsys):
        forecasts = tmp_path / "forecasts.csv"
        forecasts.write_text("season,matchday,home,away,p1,p2,p3\n1999,6,x,y,0.5,0.3,0.2\n")
        spec = f"external:{forecasts}"
        argv = ["evaluate", "--matches", str(matches_file), "--models", spec]
        err = self.refused([*argv, "--out", str(tmp_path / "r")], capsys)
        assert err == f"model {spec} produced no predictions\nerror: no usable models\n"
        assert not (tmp_path / "r").exists()
