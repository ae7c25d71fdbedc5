"""The README's library example, config block and scores.csv columns match the package."""

import re
from pathlib import Path

import matchcast
from matchcast.cli import RUN_KEYS, build_parser, load_config
from matchcast.predictors import KNOWN_MODELS
from matchcast.reports import SCORES_CSV_HEADER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _library_example():
    return re.search(r"```python\n(from matchcast import \((.*?)\)\n.*?)```", README, re.S)


def test_imported_names_are_exported():
    names = {n.strip() for n in _library_example().group(2).split(",") if n.strip()}
    assert names and names <= set(matchcast.__all__)


def test_worked_example_gives_stated_probabilities():
    code = _library_example().group(1)
    namespace = {}
    exec(code, namespace)
    stated = re.search(r"p_home=([\d.]+), p_draw=([\d.]+), p_away=([\d.]+)", code).groups()
    got = tuple(round(p, 4) for p in namespace["p"].as_tuple())
    assert got == tuple(float(x) for x in stated) == (0.5, 0.2917, 0.2083)


def _config_block():
    section = README.split("### Config file", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_config_block_lists_the_run_keys():
    listed = [
        line.split("=", 1)[0]
        for line in _config_block().splitlines()
        if line and not line.startswith("#")
    ]
    assert sorted(listed) == sorted(RUN_KEYS)


def test_config_block_builds_every_model_with_the_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(_config_block(), encoding="utf-8")
    cfg = load_config(build_parser().parse_args(["evaluate", "--config", str(path)]))
    assert cfg.models == KNOWN_MODELS
    assert [cfg.build(spec).name for spec in cfg.models] == list(KNOWN_MODELS)


def test_scores_csv_columns_are_the_writer_header():
    section = README.split("## Report files", 1)[1]
    listed = re.search(r"^`(model,[a-z_0-9,]+)`$", section, re.M).group(1)
    assert tuple(listed.split(",")) == SCORES_CSV_HEADER
