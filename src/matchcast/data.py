"""Match-result data model, CSV ingestion and the venue tally.

Every predictor in this package consumes the same primitives defined here:
normalized team identifiers, immutable match records keyed by matchday,
win/draw/loss count vectors and points on the 2-simplex.  The count
models read one input, :func:`tally_records`: every team's record at home
and away, taken in one pass over the played matches.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Sequence

MATCH_CSV_HEADER = ("season", "matchday", "home", "away", "home_goals", "away_goals")

_WS = re.compile(r"\s+")

SIMPLEX_TOL = 1e-9


class MatchDataError(ValueError):
    """Malformed or inconsistent match data. Carries the CSV line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def normalize_team(name: str) -> str:
    """Canonical team identifier: trim, case-fold, collapse internal spaces.

    Fixture files in the wild are inconsistently cased and padded; two
    spellings that differ only in whitespace or case must compare equal.
    """
    collapsed = _WS.sub(" ", name.strip())
    if not collapsed:
        raise MatchDataError("empty team name")
    return collapsed.casefold()


class Outcome(IntEnum):
    """Final result of a match, coded from the home team's point of view."""

    HOME_WIN = 1
    DRAW = 2
    AWAY_WIN = 3


@dataclass(frozen=True)
class MatchRecord:
    """One played or scheduled fixture.

    Goals are either both present (played) or both ``None`` (scheduled).
    Team names are stored normalized; ``home != away`` always holds.
    """

    season: int
    matchday: int
    home: str
    away: str
    home_goals: int | None = None
    away_goals: int | None = None

    def __post_init__(self) -> None:
        if self.matchday < 1:
            raise MatchDataError(f"matchday must be >= 1, got {self.matchday}")
        if self.home == self.away:
            raise MatchDataError(f"home and away team are both {self.home!r}")
        if (self.home_goals is None) != (self.away_goals is None):
            raise MatchDataError(
                f"{self.home} vs {self.away}: goals must be both present or both absent"
            )
        for g in (self.home_goals, self.away_goals):
            if g is not None and g < 0:
                raise MatchDataError(f"{self.home} vs {self.away}: negative goals")

    @property
    def played(self) -> bool:
        return self.home_goals is not None

    def scheduled_copy(self) -> "MatchRecord":
        """The same fixture with goals stripped (what a predictor may see)."""
        return replace(self, home_goals=None, away_goals=None)


def outcome_of(match: MatchRecord) -> Outcome:
    """Home win / draw / away win by goal comparison. Errors on scheduled matches."""
    if not match.played:
        raise MatchDataError(f"{match.home} vs {match.away}: no result")
    if match.home_goals > match.away_goals:
        return Outcome.HOME_WIN
    if match.home_goals == match.away_goals:
        return Outcome.DRAW
    return Outcome.AWAY_WIN


@dataclass(frozen=True)
class CountVector:
    """(wins, draws, losses) tally for one team in one venue role."""

    wins: int = 0
    draws: int = 0
    losses: int = 0

    def __post_init__(self) -> None:
        if min(self.wins, self.draws, self.losses) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.wins + self.draws + self.losses

    def __add__(self, other: "CountVector") -> "CountVector":
        return CountVector(
            self.wins + other.wins,
            self.draws + other.draws,
            self.losses + other.losses,
        )


@dataclass(frozen=True)
class Prediction:
    """A point on the 2-simplex: P(home win), P(draw), P(away win)."""

    p_home: float
    p_draw: float
    p_away: float

    def __post_init__(self) -> None:
        ps = (self.p_home, self.p_draw, self.p_away)
        # Each check states what must hold, so a NaN fails it.
        if not all(0.0 <= p <= 1.0 for p in ps):
            raise ValueError(f"probabilities outside [0, 1]: {ps}")
        if not abs(sum(ps) - 1.0) <= SIMPLEX_TOL:
            raise ValueError(f"probabilities sum to {sum(ps)!r}, not 1")

    def prob_of(self, outcome: Outcome) -> float:
        return (self.p_home, self.p_draw, self.p_away)[outcome - 1]

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_home, self.p_draw, self.p_away)


TRIVIAL_PREDICTION = Prediction(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class Season:
    """One championship: matches ordered by matchday, teams derived.

    ``rounds`` is the number of scheduled rounds (the largest matchday).
    A season is *regular* when it looks like a 20-team double round robin
    (380 matches over 38 rounds); anything else carries ``irregular=True``
    so that desk-scale synthetic leagues remain usable.
    """

    year: int
    matches: tuple[MatchRecord, ...]
    teams: frozenset[str]
    rounds: int
    irregular: bool

    def matches_of(self, matchday: int) -> tuple[MatchRecord, ...]:
        return tuple(m for m in self.matches if m.matchday == matchday)

    @cached_property
    def played(self) -> tuple[MatchRecord, ...]:
        """The played matches, in matchday order; computed on first read."""
        return tuple(m for m in self.matches if m.played)

    def played_before(self, matchday: int) -> tuple[MatchRecord, ...]:
        return tuple(m for m in self.played if m.matchday < matchday)


def first_half_rounds(rounds: int) -> int:
    """Rounds belonging to the first half of a season: ceil(rounds / 2)."""
    return math.ceil(rounds / 2)


def build_season(records: Sequence[MatchRecord], *, strict: bool = False) -> Season:
    """Assemble one season from records, rejecting duplicate fixtures.

    A fixture key is (season, matchday, home, away); abandoned/replayed
    matches are not modeled, so a repeated key is an error.  With
    ``strict=True`` an irregular season (not a 20-team, 380-match,
    38-round double round robin) is rejected too.
    """
    if not records:
        raise MatchDataError("season has no matches")
    years = {m.season for m in records}
    if len(years) != 1:
        raise MatchDataError(f"records span multiple seasons: {sorted(years)}")
    seen: set[tuple[int, int, str, str]] = set()
    for m in records:
        key = (m.season, m.matchday, m.home, m.away)
        if key in seen:
            raise MatchDataError(f"duplicate fixture {key}")
        seen.add(key)
    ordered = tuple(sorted(records, key=lambda m: m.matchday))
    teams = frozenset(t for m in ordered for t in (m.home, m.away))
    rounds = max(m.matchday for m in ordered)
    irregular = not (len(teams) == 20 and len(ordered) == 380 and rounds == 38)
    if strict and irregular:
        raise MatchDataError(
            f"irregular season {next(iter(years))}: "
            f"{len(teams)} teams, {len(ordered)} matches, {rounds} rounds"
        )
    return Season(
        year=next(iter(years)),
        matches=ordered,
        teams=teams,
        rounds=rounds,
        irregular=irregular,
    )


def build_seasons(records: Sequence[MatchRecord], *, strict: bool = False) -> list[Season]:
    """Split records by season year and build each, ordered by year."""
    by_year: dict[int, list[MatchRecord]] = {}
    for m in records:
        by_year.setdefault(m.season, []).append(m)
    return [build_season(by_year[y], strict=strict) for y in sorted(by_year)]


def second_half_matchdays(season: Season) -> list[int]:
    """Matchdays strictly past the first half (rounds 20..38 for 38 rounds)."""
    half = first_half_rounds(season.rounds)
    return sorted({m.matchday for m in season.matches if m.matchday > half})


def tally_records(
    records: Iterable[MatchRecord],
) -> tuple[dict[str, CountVector], dict[str, CountVector]]:
    """Every team's (home, away) record over the played ``records``.

    One pass; order is irrelevant and scheduled records are skipped.  The
    first dict holds each team's home record, the second its away record,
    both from that team's side; a team absent from a dict played no match
    in that role.  The rule is :func:`outcome_of`'s.
    """
    home: dict[str, list[int]] = {}
    away: dict[str, list[int]] = {}
    for m in records:
        home_goals = m.home_goals
        if home_goals is None:
            continue
        h = home.setdefault(m.home, [0, 0, 0])
        a = away.setdefault(m.away, [0, 0, 0])
        if home_goals > m.away_goals:
            h[0] += 1
            a[2] += 1
        elif home_goals == m.away_goals:
            h[1] += 1
            a[1] += 1
        else:
            h[2] += 1
            a[0] += 1
    return (
        {team: CountVector(*c) for team, c in home.items()},
        {team: CountVector(*c) for team, c in away.items()},
    )


def _parse_goals(text: str, line: int, field: str) -> int | None:
    text = text.strip()
    if text == "":
        return None
    try:
        goals = int(text)
    except ValueError:
        raise MatchDataError(f"{field} is not an integer: {text!r}", line) from None
    if goals < 0:
        raise MatchDataError(f"{field} is negative: {goals}", line)
    return goals


def parse_matches_with_lines(csv_text: str) -> list[tuple[int, MatchRecord]]:
    """Like :func:`parse_matches`, but pairs each record with its CSV line number."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise MatchDataError("empty input") from None
    if tuple(h.strip().lower() for h in header) != MATCH_CSV_HEADER:
        raise MatchDataError(
            f"bad header {header!r}, expected {','.join(MATCH_CSV_HEADER)}", line=1
        )
    records: list[tuple[int, MatchRecord]] = []
    for line, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 6:
            raise MatchDataError(f"expected 6 fields, got {len(row)}", line)
        season_s, matchday_s, home_s, away_s, hg_s, ag_s = row
        try:
            season = int(season_s.strip())
            matchday = int(matchday_s.strip())
        except ValueError:
            raise MatchDataError(
                f"season/matchday must be integers: {season_s!r}, {matchday_s!r}", line
            ) from None
        hg = _parse_goals(hg_s, line, "home_goals")
        ag = _parse_goals(ag_s, line, "away_goals")
        try:
            record = MatchRecord(
                season=season,
                matchday=matchday,
                home=normalize_team(home_s),
                away=normalize_team(away_s),
                home_goals=hg,
                away_goals=ag,
            )
        except MatchDataError as exc:
            raise MatchDataError(str(exc), line) from None
        records.append((line, record))
    return records


def parse_matches(csv_text: str) -> list[MatchRecord]:
    """Parse match CSV into records, preserving input order.

    Expected header: ``season,matchday,home,away,home_goals,away_goals``.
    Blank goal fields mark a scheduled match.  All structural problems
    raise :class:`MatchDataError` with the offending line number.
    """
    return [record for _, record in parse_matches_with_lines(csv_text)]


def format_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A header and rows as CSV with ``\\n`` line ends, quoted where a field needs it.

    The csv module writes a float as its repr: inf, -inf and nan included.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def serialize_matches(records: Sequence[MatchRecord]) -> str:
    """Canonical CSV for records; inverse of :func:`parse_matches`."""
    return format_csv(
        MATCH_CSV_HEADER,
        (
            [
                m.season,
                m.matchday,
                m.home,
                m.away,
                "" if m.home_goals is None else m.home_goals,
                "" if m.away_goals is None else m.away_goals,
            ]
            for m in records
        ),
    )
