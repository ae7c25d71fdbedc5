"""Output checks: every expected prediction is present and correct.

A prediction counts as failed when it is missing, off the simplex, or more
than ``TOL`` (the ROADMAP tolerance, 1e-8) from its expected value:

* ``trivial``: exactly (1/3, 1/3, 1/3);
* ``external``: the interchange file's rounded triple, renormalised;
* ``mn-dir1`` / ``mn-dir2``: the closed-form Dirichlet mixture recomputed
  here from the match CSV (for ``mn-dir2`` at the (w, alpha) the program
  reports; the selection itself is compared with the stored reference);
* ``bt``, ``poisson-lee``, ``poisson-biv``: the stored reference for the
  seed, recorded from ``paper-evaluate`` at the commit that added it.

Without a stored reference the fitted models are checked for presence and
simplex validity only, and the run says so.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

TOL = 1e-8
REF_MODELS = ("bt", "poisson-lee", "poisson-biv")
THIRD = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

Key = tuple[int, int, str, str]  # (season, matchday, home, away)


def read_matches(path: Path) -> list[tuple[int, int, str, str, int, int]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(int(s), int(d), h, a, int(hg), int(ag)) for s, d, h, a, hg, ag in rows]


def read_external(path: Path) -> dict[Key, tuple[float, float, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    out = {}
    for s, d, h, a, *ps in rows:
        probs = [float(p) for p in ps]
        total = sum(probs)
        out[(int(s), int(d), h, a)] = tuple(p / total for p in probs)
    return out


def second_half_keys(matches) -> list[Key]:
    """Every second-half fixture, sorted: the order references are stored in."""
    rounds: dict[int, int] = {}
    for s, d, *_ in matches:
        rounds[s] = max(rounds.get(s, 0), d)
    return sorted(
        (s, d, h, a) for s, d, h, a, _, _ in matches if d > math.ceil(rounds[s] / 2)
    )


def dirichlet_mixture(matches, alpha: float, w: float, seasons=None) -> dict[Key, tuple]:
    """Pooled Dirichlet predictive for every second-half fixture.

    Home observer: the home team's earlier home results this season; away
    observer: the away team's earlier away results, from its own side.
    Both take a symmetric D(alpha) prior; the pool weights them w : 1-w.
    """
    by_season: dict[int, list] = {}
    for m in matches:
        if seasons is None or m[0] in seasons:
            by_season.setdefault(m[0], []).append(m)
    out = {}
    v = 1.0 - w
    for season, rows in by_season.items():
        half = math.ceil(max(r[1] for r in rows) / 2)
        home_wdl: dict[str, list[int]] = {}
        away_wdl: dict[str, list[int]] = {}
        by_day: dict[int, list] = {}
        for r in rows:
            by_day.setdefault(r[1], []).append(r)
        for day in sorted(by_day):
            for s, d, h, a, hg, ag in by_day[day]:
                if d <= half:
                    continue
                hw, hd, hl = home_wdl.get(h, (0, 0, 0))
                aw, ad, al = away_wdl.get(a, (0, 0, 0))
                ht = 3 * alpha + hw + hd + hl
                at = 3 * alpha + aw + ad + al
                out[(s, d, h, a)] = (
                    w * (alpha + hw) / ht + v * (alpha + al) / at,
                    w * (alpha + hd) / ht + v * (alpha + ad) / at,
                    w * (alpha + hl) / ht + v * (alpha + aw) / at,
                )
            for s, d, h, a, hg, ag in by_day[day]:
                result = (hg > ag, hg == ag, hg < ag)
                home_wdl[h] = [c + r for c, r in zip(home_wdl.get(h, (0, 0, 0)), result)]
                away_wdl[a] = [c + r for c, r in zip(away_wdl.get(a, (0, 0, 0)), result[::-1])]
    return out


def default_grid() -> tuple[list[float], list[float]]:
    """The CLI's default (w, alpha) candidates (``GridSpec.default``)."""
    return [k / 19.0 for k in range(20)], [0.001 + k * (19.999 / 19.0) for k in range(20)]


def grid_value(text: str, points: list[float]) -> float | None:
    """The grid point a 6-decimal report string stands for, if any."""
    found = [p for p in points if f"{p:.6f}" == text]
    return found[0] if len(found) == 1 else None


def ref_path(ref_dir: Path, archive: str) -> Path:
    return ref_dir / f"{archive}.json.gz"


def load_ref(ref_dirs: list[Path], archive: str) -> dict | None:
    for ref_dir in ref_dirs:
        path = ref_path(ref_dir, archive)
        if path.is_file():
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                return json.load(fh)
    return None


def write_ref(path: Path, keys: list[Key], predictions: dict, mn_dir2: dict) -> None:
    """Store fitted-model predictions (12 decimals) in ``keys`` order."""
    payload = {
        "predictions": {
            m: [[round(p, 12) for p in predictions[(m, *k)]] for k in keys]
            for m in REF_MODELS
        },
        "mn-dir2": mn_dir2,
    }
    text = json.dumps(payload, separators=(",", ":"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


class Checker:
    """Accumulates attempted and failed items over a run."""

    def __init__(self, matches, external: dict, ref: dict | None):
        self.matches = matches
        self.external = external
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._mn_dir1 = dirichlet_mixture(matches, 1.0, 0.5)
        self._expected_ref: dict[tuple, tuple] = {}
        if ref is not None:
            keys = second_half_keys(matches)
            for model, rows in ref["predictions"].items():
                if len(rows) != len(keys):
                    raise ValueError(f"reference for {model} does not fit this archive")
                for key, probs in zip(keys, rows):
                    self._expected_ref[(model, *key)] = tuple(probs)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def _expected(self, model: str, key: Key, mn_dir2: dict) -> tuple | None:
        if model == "trivial":
            return THIRD
        if model == "external":
            return self.external[key]
        if model == "mn-dir1":
            return self._mn_dir1[key]
        if model == "mn-dir2":
            return mn_dir2.get(key)
        return self._expected_ref.get((model, *key))

    def predictions(self, got: dict[tuple, tuple], models, keys: list[Key], mn_dir2=None) -> None:
        """Check ``got[(model, *key)]`` for every model and key."""
        for model in models:
            for key in keys:
                self.attempted += 1
                probs = got.get((model, *key))
                if probs is None:
                    self.fail(f"{model} {key}: no prediction")
                    continue
                if not all(0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > TOL:
                    self.fail(f"{model} {key}: {probs} is not a distribution")
                    continue
                want = self._expected(model, key, mn_dir2 or {})
                if want is not None and max(abs(p - q) for p, q in zip(probs, want)) > TOL:
                    self.fail(f"{model} {key}: {probs} differs from {want}")

    def mn_dir2_settings(self, settings: dict) -> dict[Key, tuple]:
        """Check the per-season (w, alpha) selection; return the implied predictions."""
        w_points, alpha_points = default_grid()
        out: dict[Key, tuple] = {}
        seasons = sorted({m[0] for m in self.matches})
        for season in seasons:
            self.attempted += 1
            chosen = settings.get(season)
            if chosen is None:
                self.fail(f"mn-dir2 {season}: no (w, alpha) reported")
                continue
            chosen = {"w": chosen["w"], "alpha": chosen["alpha"]}
            if self.ref is not None and self.ref["mn-dir2"].get(str(season)) != chosen:
                self.fail(f"mn-dir2 {season}: {chosen} differs from the reference")
            w = grid_value(chosen["w"], w_points)
            alpha = grid_value(chosen["alpha"], alpha_points)
            if w is None or alpha is None:
                self.fail(f"mn-dir2 {season}: {chosen} is not a grid point")
                continue
            out.update(dirichlet_mixture(self.matches, alpha, w, seasons={season}))
        return out
