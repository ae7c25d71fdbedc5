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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, TypeVar

MATCH_CSV_HEADER = ("season", "matchday", "home", "away", "home_goals", "away_goals")

_WS = re.compile(r"\s+")

SIMPLEX_TOL = 1e-9
MAX_GOALS = 999  # past any football score; the Poisson log(n!) table covers it

T = TypeVar("T")


def normalize_team(name: str) -> str:
    """Canonical team identifier: trim, case-fold, collapse internal spaces.

    Fixture files in the wild are inconsistently cased and padded; two
    spellings that differ only in whitespace or case must compare equal.
    The name is interned, so a long archive holds each team's name once.
    """
    collapsed = _WS.sub(" ", name.strip())
    if not collapsed:
        raise ValueError("empty team name")
    return sys.intern(collapsed.casefold())


class Outcome(IntEnum):
    """Final result of a match, coded from the home team's point of view."""

    HOME_WIN = 1
    DRAW = 2
    AWAY_WIN = 3


@dataclass(frozen=True, slots=True)
class MatchRecord:
    """One played or scheduled fixture.

    Goals are either both present, 0 to ``MAX_GOALS`` (played), or both
    ``None`` (scheduled).  Team names are normalized; ``home != away`` holds.
    """

    season: int
    matchday: int
    home: str
    away: str
    home_goals: int | None = None
    away_goals: int | None = None

    def __post_init__(self) -> None:
        for name, goals in (("home_goals", self.home_goals), ("away_goals", self.away_goals)):
            if goals is not None and not 0 <= goals <= MAX_GOALS:
                bound = "negative" if goals < 0 else f"above {MAX_GOALS}"
                raise ValueError(f"{name} is {bound}: {goals}")
        if self.matchday < 1:
            raise ValueError(f"matchday must be >= 1, got {self.matchday}")
        if self.home == self.away:
            raise ValueError(f"home and away team are both {self.home!r}")
        if (self.home_goals is None) != (self.away_goals is None):
            raise ValueError(
                f"{self.home} vs {self.away}: goals must be both present or both absent"
            )

    @property
    def played(self) -> bool:
        return self.home_goals is not None

    def scheduled_copy(self) -> "MatchRecord":
        """The same fixture with goals stripped (what a predictor may see)."""
        return MatchRecord(self.season, self.matchday, self.home, self.away)


def unplayed_match(m: MatchRecord) -> ValueError:
    """The one refusal of an unplayed match that a forecast, fit or tally would read."""
    return ValueError(
        f"season {m.season} matchday {m.matchday}: unplayed match {m.home} vs {m.away}"
    )


def outcome_of(match: MatchRecord) -> Outcome:
    """Home win / draw / away win by goal comparison; an unplayed match is refused."""
    if not match.played:
        raise unplayed_match(match)
    if match.home_goals > match.away_goals:
        return Outcome.HOME_WIN
    if match.home_goals == match.away_goals:
        return Outcome.DRAW
    return Outcome.AWAY_WIN


@dataclass(frozen=True, slots=True)
class CountVector:
    """(wins, draws, losses) tally for one team in one venue role."""

    wins: int = 0
    draws: int = 0
    losses: int = 0

    def __post_init__(self) -> None:
        if min(self.wins, self.draws, self.losses) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "CountVector") -> "CountVector":
        return CountVector(
            self.wins + other.wins,
            self.draws + other.draws,
            self.losses + other.losses,
        )


@dataclass(frozen=True, slots=True)
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
        return self.matches[self._start(matchday) : self._start(matchday + 1)]

    def matches_before(self, matchday: int) -> tuple[MatchRecord, ...]:
        """The matches of every earlier matchday, played or not, in matchday order."""
        return self.matches[: self._start(matchday)]

    def _start(self, matchday: int) -> int:
        """Where ``matchday``'s matches start: the matches are in matchday order."""
        return bisect_left(self.matches, matchday, key=lambda m: m.matchday)

    @cached_property
    def first_unplayed(self) -> MatchRecord | None:
        """The season's first match without a result, found once per season."""
        return next((m for m in self.matches if not m.played), None)


def fixture_key(m: MatchRecord) -> tuple[int, int, str, str]:
    """(season, matchday, home, away): what names one fixture in either CSV file."""
    return (m.season, m.matchday, m.home, m.away)


def first_half_rounds(rounds: int) -> int:
    """Rounds belonging to the first half of a season: ceil(rounds / 2)."""
    return math.ceil(rounds / 2)


def build_season(records: Sequence[MatchRecord], *, strict: bool = False) -> Season:
    """Assemble one season from records, rejecting duplicate fixtures.

    Abandoned/replayed matches are not modeled, so a repeated
    :func:`fixture_key` is an error.  With ``strict=True`` an irregular
    season (not a 20-team, 380-match, 38-round double round robin) is
    rejected too.
    """
    if not records:
        raise ValueError("season has no matches")
    years = {m.season for m in records}
    if len(years) != 1:
        raise ValueError(f"records span multiple seasons: {sorted(years)}")
    seen: set[tuple[int, int, str, str]] = set()
    for m in records:
        key = fixture_key(m)
        if key in seen:
            raise ValueError(f"duplicate fixture {key}")
        seen.add(key)
    ordered = tuple(sorted(records, key=lambda m: m.matchday))
    teams = frozenset(t for m in ordered for t in (m.home, m.away))
    rounds = max(m.matchday for m in ordered)
    irregular = not (len(teams) == 20 and len(ordered) == 380 and rounds == 38)
    if strict and irregular:
        raise ValueError(
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

    One pass; order is irrelevant and an unplayed record is refused.  The
    first dict holds each team's home record, the second its away record,
    both from that team's side; a team absent from a dict played no match
    in that role.  The rule is :func:`outcome_of`'s.
    """
    home: dict[str, list[int]] = {}
    away: dict[str, list[int]] = {}
    for m in records:
        home_goals = m.home_goals
        if home_goals is None:
            raise unplayed_match(m)
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


def parse_number(text: str, kind: type[int] | type[float], field: str) -> int | float:
    """``kind(text)`` for plain ASCII: Python alone also reads ``1_0`` and non-ASCII digits."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ValueError(f"{field} is not {'an integer' if kind is int else 'a number'}: {text!r}")


def read_csv_text(path: str | Path) -> str:
    """A CSV file's text; a leading UTF-8 byte-order mark, as spreadsheets write, is skipped."""
    return Path(path).read_text(encoding="utf-8-sig")


def read_rows(
    csv_text: str, header: Sequence[str], parse: Callable[[list[str]], T], key: Callable
) -> list[tuple[int, T]]:
    """``(line, parse(row))`` per non-blank row; ``header`` must come first.

    A row's line is the physical line it starts on.  The header is compared
    trimmed and lower-cased.  A bad header, a row not as wide as ``header``,
    a ``ValueError`` from ``parse``, a ``csv.Error`` from the reader (a field
    past ``csv.field_size_limit()``) or a row whose ``key`` an earlier row has
    raises ``ValueError`` prefixed ``line N: ``: the one place a CSV error gets its line.
    """
    reader = csv.reader(io.StringIO(csv_text))
    parsed: list[tuple[int, T]] = []
    first_lines: dict[object, int] = {}
    line = 1
    try:
        first = next(reader, None)
        if first is not None and tuple(h.strip().lower() for h in first) != tuple(header):
            raise ValueError(f"bad header {first!r}, expected {','.join(header)}")
        line = reader.line_num + 1
        for row in reader:
            if row and any(cell.strip() for cell in row):
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                value = parse(row)
                first_line = first_lines.setdefault(key(value), line)
                if first_line != line:
                    raise ValueError(f"duplicate fixture {key(value)}, first on line {first_line}")
                parsed.append((line, value))
            line = reader.line_num + 1  # a quoted field may have spanned lines
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"line {line}: {exc}") from None
    if first is None:
        raise ValueError("empty input")
    return parsed


def parse_fixture(row: Sequence[str]) -> tuple[int, int, str, str]:
    """A row's first four fields, (season, matchday, home, away), as its :func:`fixture_key`."""
    season_s, matchday_s, home_s, away_s = row[:4]
    try:
        season = parse_number(season_s, int, "season")
        matchday = parse_number(matchday_s, int, "matchday")
    except ValueError:
        raise ValueError(
            f"season/matchday must be integers: {season_s!r}, {matchday_s!r}"
        ) from None
    return season, matchday, normalize_team(home_s), normalize_team(away_s)


def _parse_match(row: list[str]) -> MatchRecord:
    fixture = parse_fixture(row)
    hg, ag = row[4].strip(), row[5].strip()
    return MatchRecord(
        *fixture,
        parse_number(hg, int, "home_goals") if hg else None,
        parse_number(ag, int, "away_goals") if ag else None,
    )


def parse_matches_with_lines(csv_text: str) -> list[tuple[int, MatchRecord]]:
    """Like :func:`parse_matches`, but pairs each record with the line its row starts on."""
    return read_rows(csv_text, MATCH_CSV_HEADER, _parse_match, fixture_key)


def parse_matches(csv_text: str) -> list[MatchRecord]:
    """Parse match CSV into records, preserving input order.

    Expected header: ``season,matchday,home,away,home_goals,away_goals``.
    Blank goal fields mark a scheduled match.  All structural problems
    raise ``ValueError`` with the offending line number.
    """
    return [record for _, record in parse_matches_with_lines(csv_text)]


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A header and rows as CSV with ``\\n`` line ends, quoted where a field needs it.

    Rows are written as they are drawn, so a file opened with ``newline=""``
    never holds the whole text.  The csv module writes a float as its repr:
    inf, -inf and nan included.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def format_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """:func:`write_csv`'s text as one string."""
    out = io.StringIO()
    write_csv(out, header, rows)
    return out.getvalue()


def serialize_matches(records: Sequence[MatchRecord]) -> str:
    """Canonical CSV for records; inverse of :func:`parse_matches`."""
    def row(m: MatchRecord) -> list[object]:
        return [*fixture_key(m), *((m.home_goals, m.away_goals) if m.played else ("", ""))]

    return format_csv(MATCH_CSV_HEADER, map(row, records))
