"""The README's library example, CLI block and scores.csv columns match the package."""

import re
import shlex
from pathlib import Path

import matchcast
from matchcast.cli import build_parser, load_config
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


def test_cli_block_parses_and_names_no_config_file():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert {line[0] for line in lines} == {"matchcast"}
    assert {line[1] for line in lines} == {"validate", "predict", "evaluate", "selftest"}
    for line in lines:
        load_config(build_parser().parse_args(line[1:]))
    # The one sentence naming a config file is the one refusing it.
    sentences = re.split(r"(?<=\.)\s+", README)
    named = [s for s in sentences if "--config" in s or "MATCHCAST_CONFIG" in s]
    assert len(named) == 1 and "refused" in named[0], named


def test_scores_csv_columns_are_the_writer_header():
    section = README.split("## Report files", 1)[1]
    listed = re.search(r"^`(model,[a-z_0-9,]+)`$", section, re.M).group(1)
    assert tuple(listed.split(",")) == SCORES_CSV_HEADER
