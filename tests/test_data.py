import pickle
from math import inf, nan

import numpy as np
import pytest

from matchcast.data import (
    MAX_GOALS,
    CountVector,
    MatchRecord,
    Outcome,
    Prediction,
    build_season,
    build_seasons,
    first_half_rounds,
    normalize_team,
    outcome_of,
    parse_matches,
    parse_matches_with_lines,
    second_half_matchdays,
    serialize_matches,
    tally_records,
)
from matchcast.evaluation import score_match

GOOD_CSV = """season,matchday,home,away,home_goals,away_goals
2014,20,Redbrook,Port Vale,1,0
2014,20,Kingsport,Harborview,,
2014,21,Port Vale,Redbrook,2,2
"""


class TestNormalizeTeam:
    def test_trim_casefold_collapse(self):
        assert normalize_team("  Port   Vale ") == "port vale"
        assert normalize_team("REDBROOK") == normalize_team("redbrook")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_team("   ")

    def test_one_string_per_team(self):
        assert normalize_team(" Club  A ") is normalize_team("club a")
        first, _, third = parse_matches(GOOD_CSV)
        assert first.home is third.away and first.away is third.home


_PLAYED = MatchRecord(2014, 20, "redbrook", "port vale", 1, 0)


@pytest.mark.parametrize(
    "record",
    [
        _PLAYED,
        MatchRecord(2014, 21, "port vale", "redbrook"),
        CountVector(3, 1, 2),
        Prediction(0.5, 0.3, 0.2),
        score_match(_PLAYED, Prediction(0.5, 0.3, 0.2)),
        score_match(_PLAYED, Prediction(0.0, 1.0, 0.0)),
    ],
    ids=["played", "scheduled", "counts", "prediction", "scored", "scored-inf-log"],
)
def test_per_match_records_are_slotted_and_pickle(record):
    # A long archive holds one of these per match, without a __dict__ each;
    # the refit pool sends them between processes.
    assert not hasattr(record, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record) and copy == record


class TestParseMatches:
    def test_direct_field_mapping(self):
        records = parse_matches(GOOD_CSV)
        assert records[0] == MatchRecord(2014, 20, "redbrook", "port vale", 1, 0)

    def test_scheduled_row_has_no_goals(self):
        records = parse_matches(GOOD_CSV)
        assert records[1].home_goals is None
        assert not records[1].played

    def test_input_order_preserved(self):
        records = parse_matches(GOOD_CSV)
        assert [r.matchday for r in records] == [20, 20, 21]

    def test_home_equals_away_rejected_with_line(self):
        bad = "season,matchday,home,away,home_goals,away_goals\n2014,20,Redbrook,Redbrook,1,0\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_matches(bad)

    def test_negative_goals_rejected(self):
        bad = "season,matchday,home,away,home_goals,away_goals\n2014,1,A,B,-1,0\n"
        with pytest.raises(ValueError, match="negative"):
            parse_matches(bad)

    @pytest.mark.parametrize(
        "goals, message",
        [
            ((-1, 0), "home_goals is negative: -1"),
            ((0, MAX_GOALS + 1), f"away_goals is above {MAX_GOALS}: {MAX_GOALS + 1}"),
        ],
        ids=["negative", "above-max"],
    )
    def test_record_refuses_goals_out_of_range(self, goals, message):
        # The one goal-range check: where a record is made, parsed or not.
        with pytest.raises(ValueError) as refused:
            MatchRecord(2014, 1, "a", "b", *goals)
        assert str(refused.value) == message
        assert MatchRecord(2014, 1, "a", "b", MAX_GOALS, 0).played

    def test_single_missing_goal_rejected(self):
        bad = "season,matchday,home,away,home_goals,away_goals\n2014,1,A,B,1,\n"
        with pytest.raises(ValueError, match="both present or both absent"):
            parse_matches(bad)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_matches("season,round,home,away,hg,ag\n")

    def test_malformed_row_reports_line(self):
        bad = GOOD_CSV + "2014,twenty,A,B,1,0\n"
        with pytest.raises(ValueError, match="line 5"):
            parse_matches(bad)

    def test_line_numbers_skip_blanks(self):
        text = "season,matchday,home,away,home_goals,away_goals\n\n2014,1,A,B,1,0\n"
        numbered = parse_matches_with_lines(text)
        assert numbered[0][0] == 3

    def test_round_trip_is_identity(self):
        records = parse_matches(GOOD_CSV)
        assert parse_matches(serialize_matches(records)) == records


class TestOutcomeOf:
    @pytest.mark.parametrize(
        "hg,ag,expected",
        [(2, 1, Outcome.HOME_WIN), (0, 0, Outcome.DRAW), (0, 3, Outcome.AWAY_WIN)],
    )
    def test_goal_comparison(self, hg, ag, expected):
        assert outcome_of(MatchRecord(2014, 1, "a", "b", hg, ag)) is expected

    def test_scheduled_match_rejected(self):
        with pytest.raises(ValueError, match="^season 2014 matchday 1: unplayed match a vs b$"):
            outcome_of(MatchRecord(2014, 1, "a", "b"))

    def test_partitions_played_matches(self, small_season):
        played = [m for m in small_season.matches if m.played]
        outcomes = [outcome_of(m) for m in played]
        assert all(o in tuple(Outcome) for o in outcomes)
        assert len(outcomes) == len(played)


class TestCountVector:
    def test_addition(self):
        assert CountVector(1, 2, 3) + CountVector(4, 5, 6) == CountVector(5, 7, 9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountVector(-1, 0, 0)


class TestPrediction:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            Prediction(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Prediction(-0.1, 0.6, 0.5)

    @pytest.mark.parametrize(
        "probs", [(nan, nan, nan), (nan, 0.5, 0.5), (0.5, 0.5, inf), (0.5, 0.5, -inf)]
    )
    def test_non_finite_rejected(self, probs):
        with pytest.raises(ValueError):
            Prediction(*probs)

    def test_prob_of(self):
        p = Prediction(0.5, 0.3, 0.2)
        assert p.prob_of(Outcome.HOME_WIN) == 0.5
        assert p.prob_of(Outcome.AWAY_WIN) == 0.2


def _mini_records():
    # Team h plays home on matchdays 1-3 with results W, W, D.
    return [
        MatchRecord(2014, 1, "h", "x", 2, 0),
        MatchRecord(2014, 2, "h", "y", 1, 0),
        MatchRecord(2014, 3, "h", "z", 1, 1),
        MatchRecord(2014, 4, "x", "h", 0, 0),
    ]


VENUES = ("home", "away")


def _venue_counts(records, team, venue):
    """``team``'s record in ``venue`` from one :func:`tally_records` pass."""
    home, away = tally_records(records)
    return (home if venue == "home" else away).get(team, CountVector())


class TestVenueCounts:
    def test_hand_enumerated_window(self):
        season = build_season(_mini_records())
        assert _venue_counts(season.matches_before(4), "h", "home") == CountVector(2, 1, 0)

    def test_empty_window(self):
        season = build_season(_mini_records())
        assert _venue_counts(season.matches_before(1), "h", "home") == CountVector()
        assert tally_records(season.matches_before(1)) == ({}, {})

    def test_role_without_matches(self):
        season = build_season(_mini_records())
        assert _venue_counts(season.matches_before(2), "x", "home") == CountVector()
        assert "x" not in tally_records(season.matches_before(2))[0]

    def test_monotone_in_matchday(self, small_season):
        for team in sorted(small_season.teams):
            for venue in VENUES:
                prev = CountVector()
                for md in range(small_season.rounds + 1):
                    cur = _venue_counts(small_season.matches_before(md + 1), team, venue)
                    assert cur.wins >= prev.wins
                    assert cur.draws >= prev.draws
                    assert cur.losses >= prev.losses
                    prev = cur

    def test_home_totals_count_each_match_once(self, small_season):
        for md in range(small_season.rounds + 1):
            played = sum(
                1 for m in small_season.matches if m.played and m.matchday <= md
            )
            for tallies in tally_records(small_season.matches_before(md + 1)):
                assert sum(c.wins + c.draws + c.losses for c in tallies.values()) == played


def _brute_force_tally(records, team, venue):
    own = [
        outcome_of(m)
        for m in records
        if m.played and (m.home if venue == "home" else m.away) == team
    ]
    win = Outcome.HOME_WIN if venue == "home" else Outcome.AWAY_WIN
    wins, draws = own.count(win), own.count(Outcome.DRAW)
    return CountVector(wins, draws, len(own) - wins - draws)


@pytest.mark.parametrize("seed", range(5))
def test_tally_records_matches_brute_force(seed):
    # Scheduled matches mixed in are refused; t5 never plays and "nobody" is unknown.
    rng = np.random.default_rng(seed)
    teams = [f"t{k}" for k in range(6)]
    records = []
    for i in range(int(rng.integers(0, 120))):
        home, away = (str(t) for t in rng.choice(teams[:5], 2, replace=False))
        goals = (None, None)
        if rng.random() >= 0.2:
            goals = tuple(int(g) for g in rng.integers(0, 4, 2))
        records.append(MatchRecord(2014, 1 + i % 10, home, away, *goals))
    unplayed = [m for m in records if not m.played]
    if unplayed:
        first = unplayed[0]
        line = f"season 2014 matchday {first.matchday}: unplayed match {first.home} vs {first.away}"
        for given in (records, iter(records)):
            with pytest.raises(ValueError, match=f"^{line}$"):
                tally_records(given)
        records = [m for m in records if m.played]
    from_list = dict(zip(VENUES, tally_records(records)))
    from_iter = dict(zip(VENUES, tally_records(iter(records))))
    for venue in VENUES:
        # A team appears in a venue's dict exactly when it played there.
        assert set(from_list[venue]) == {
            t for t in teams if _brute_force_tally(records, t, venue) != CountVector()
        }
        for team in teams + ["nobody"]:
            expected = _brute_force_tally(records, team, venue)
            assert from_list[venue].get(team, CountVector()) == expected
            assert from_iter[venue].get(team, CountVector()) == expected


class TestSeason:
    def test_duplicate_fixture_rejected(self):
        records = _mini_records() + [MatchRecord(2014, 1, "h", "x", 0, 1)]
        with pytest.raises(ValueError, match="duplicate fixture"):
            build_season(records)

    def test_strict_rejects_irregular(self):
        with pytest.raises(ValueError, match="irregular"):
            build_season(_mini_records(), strict=True)

    def test_irregular_flag(self, small_season):
        assert small_season.irregular  # 4 teams, not a 380-match championship

    def test_build_seasons_splits_by_year(self, two_seasons):
        records = [m for s in two_seasons for m in s.matches]
        rebuilt = build_seasons(records)
        assert [s.year for s in rebuilt] == [2013, 2014]

    def test_matches_before_is_every_earlier_match_in_matchday_order(self, small_season, rng):
        # Input out of matchday order, with a scheduled match before and after a played one.
        records = [m.scheduled_copy() if m.matchday in (2, 5) else m for m in small_season.matches]
        records = [records[k] for k in rng.permutation(len(records))]
        season = build_season(records)
        before = season.matches_before(6)
        assert before == tuple(m for m in season.matches if m.matchday < 6)
        assert [m.matchday for m in before] == sorted(m.matchday for m in before)
        assert {m.matchday for m in before} == {1, 2, 3, 4, 5}
        assert len(before) == 10
        assert sum(not m.played for m in before) == 4
        assert season.matches_before(1) == ()
        assert season.matches_before(season.rounds + 1) == season.matches
        # Both are slices of the season's matches, equal to the filters.
        for md in range(season.rounds + 3):
            assert season.matches_before(md) == tuple(m for m in season.matches if m.matchday < md)
            assert season.matches_of(md) == tuple(m for m in season.matches if m.matchday == md)

    def test_mixed_years_rejected_in_single_build(self, two_seasons):
        records = [m for s in two_seasons for m in s.matches]
        with pytest.raises(ValueError, match="multiple seasons"):
            build_season(records)


class TestSecondHalf:
    def test_standard_38_round_split(self):
        records = [
            MatchRecord(2014, md, f"a{md}", f"b{md}", 1, 0) for md in range(1, 39)
        ]
        season = build_season(records)
        assert second_half_matchdays(season) == list(range(20, 39))

    def test_six_round_season(self, small_season):
        assert small_season.rounds == 6
        assert second_half_matchdays(small_season) == [4, 5, 6]

    def test_odd_round_count_puts_extra_round_in_first_half(self):
        assert first_half_rounds(7) == 4

    def test_first_half_rounds_matches_19_19_split(self):
        assert first_half_rounds(38) == 19
