"""The README's library example runs against the package as documented."""

import re
from pathlib import Path

import matchcast

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
