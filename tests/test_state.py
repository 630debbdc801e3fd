import importlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_maxima, rank_answers_reference
from spotrank.scoring import EXP, LINEAR, LOG10, ScoringConfig, SiKind, VoteTally, spotlight_index
from spotrank.state import (
    AnswerEntry,
    NegativeCountError,
    QuestionState,
    UnknownQuestionError,
    VoteEvent,
    rank_answers,
)


def event(answer_id, up=0, down=0, ts=0, question_id="q"):
    return VoteEvent(question_id, answer_id, up, down, ts)


def build_state(*tallies):
    """State from (answer_id, up, down) triples via bulk events."""
    state = QuestionState("q")
    for answer_id, up, down in tallies:
        if up:
            state.apply_event(event(answer_id, up=up))
        if down:
            state.apply_event(event(answer_id, down=down))
        if not up and not down:
            # answers can exist with zero tallies only via add-then-retract
            state.apply_event(event(answer_id, up=1))
            state.apply_event(event(answer_id, up=-1))
    return state


# --- apply_event -------------------------------------------------------------


def test_first_vote_sets_all_maxima():
    state = QuestionState("q")
    state.apply_event(event("a", up=1))
    assert state.recompute_maxima() == (1, 1, 0)
    assert state.entries() == (AnswerEntry("a", VoteTally(1, 0), 0),)


def test_vote_below_maximum_leaves_maxima_alone():
    state = build_state(("b", 90, 10), ("a", 30, 10))
    state.apply_event(event("a", up=1))
    assert state.recompute_maxima() == (100, 90, 10)


def test_retraction_of_unique_max_holder_rescans():
    state = build_state(("a", 50, 0), ("b", 30, 5), ("c", 10, 2))
    state.apply_event(event("a", up=-1))
    assert state.recompute_maxima() == brute_maxima(state.entries())
    assert state.recompute_maxima()[0] == 49


def test_retraction_of_tied_max_keeps_value():
    state = build_state(("a", 40, 0), ("b", 40, 0))
    state.apply_event(event("a", up=-1))
    assert state.recompute_maxima()[0] == 40  # b still holds 40
    assert state.recompute_maxima()[1] == 40


def test_state_holds_tallies_only():
    state = QuestionState("q")
    assert set(vars(state)) == {"question_id", "_counts", "event_count"}
    state.apply_event(event("a", up=3, down=1))
    assert set(vars(state)) == {"question_id", "_counts", "event_count"}


def test_unknown_answer_is_created():
    state = QuestionState("q")
    state.apply_event(event("fresh", up=2))
    assert state.entries() == (AnswerEntry("fresh", VoteTally(2, 0), 0),)
    assert len(state) == 1


def test_wrong_question_rejected():
    state = QuestionState("q")
    with pytest.raises(UnknownQuestionError):
        state.apply_event(event("a", up=1, question_id="other"))


def test_negative_result_rejected_and_state_unchanged():
    state = build_state(("a", 3, 1))
    before = state.snapshot()
    with pytest.raises(NegativeCountError):
        state.apply_event(event("a", down=-2))
    assert state.snapshot() == before


def test_rejected_event_on_unknown_answer_creates_nothing():
    state = QuestionState("q")
    with pytest.raises(NegativeCountError):
        state.apply_event(event("ghost", up=-1))
    assert len(state) == 0
    assert state.event_count == 0


def test_zero_delta_event_is_unrepresentable():
    with pytest.raises(ValueError):
        VoteEvent("q", "a", 0, 0, 0)


def test_event_count_tracks_accepted_events():
    state = build_state(("a", 2, 1))
    assert state.event_count == 2  # one up batch, one down batch
    with pytest.raises(NegativeCountError):
        state.apply_event(event("a", down=-5))
    assert state.event_count == 2


# --- recompute & cache coherence ----------------------------------------------


def test_recompute_examples():
    state = build_state(("a", 1, 0), ("b", 50, 0), ("c", 100, 0))
    assert state.recompute_maxima() == (100, 100, 0)


def test_u_max_and_d_max_from_different_answers():
    state = build_state(("a", 9, 1), ("b", 2, 8))
    assert state.recompute_maxima() == (10, 9, 8)
    assert state.recompute_maxima()[1] == 9
    assert state.recompute_maxima()[2] == 8


def test_empty_question_maxima_are_zero():
    assert QuestionState("q").recompute_maxima() == (0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-2, 4), st.integers(-2, 4)),
        min_size=1,
        max_size=120,
    )
)
def test_caches_always_match_full_rescan(steps):
    state = QuestionState("q")
    for answer_index, up_delta, down_delta in steps:
        if up_delta == 0 and down_delta == 0:
            continue
        try:
            state.apply_event(event(f"a{answer_index}", up=up_delta, down=down_delta))
        except NegativeCountError:
            pass
        assert state.recompute_maxima() == brute_maxima(state.entries())


@settings(max_examples=30, deadline=None)
@given(
    events_spec=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=60,
    ).filter(lambda items: any(u or d for _, u, d in items)),
    seed=st.integers(0, 2**32),
)
def test_order_insensitive_for_additive_events(events_spec, seed):
    events = [
        event(f"a{i}", up=u, down=d, ts=t)
        for t, (i, u, d) in enumerate(events_spec)
        if u or d
    ]
    shuffled = events[:]
    random.Random(seed).shuffle(shuffled)

    state_a, state_b = QuestionState("q"), QuestionState("q")
    for ev in events:
        state_a.apply_event(ev)
    for ev in shuffled:
        state_b.apply_event(ev)

    tallies_a = {e.answer_id: e.tally for e in state_a.entries()}
    tallies_b = {e.answer_id: e.tally for e in state_b.entries()}
    assert tallies_a == tallies_b
    assert state_a.recompute_maxima() == state_b.recompute_maxima()
    assert state_a.recompute_maxima() == state_b.recompute_maxima()


# --- rank ---------------------------------------------------------------------


def test_single_answer_ranks_first():
    state = build_state(("only", 2, 1))
    ranked = state.rank(ScoringConfig())
    assert ranked.ids() == ("only",)


def test_dominant_answer_ranks_first():
    state = build_state(("a", 100, 0), ("b", 1, 0))
    ranked = state.rank(ScoringConfig(z=2.0, p_weight=0.5))
    assert ranked.ids() == ("a", "b")


def test_controversial_flip_between_weights():
    state = build_state(("a", 500, 500), ("b", 10, 0))
    half = state.rank(ScoringConfig(z=2.0, p_weight=0.5))
    pure = state.rank(ScoringConfig(z=2.0, p_weight=1.0))
    assert half.ids() == ("a", "b")
    assert pure.ids() == ("b", "a")


def test_empty_question_ranks_empty():
    assert QuestionState("q").rank(ScoringConfig()).entries == ()


def test_rank_is_sorted_permutation():
    state = build_state(("a", 5, 3), ("b", 2, 2), ("c", 9, 0), ("d", 0, 4))
    ranked = state.rank(ScoringConfig(z=2.0, p_weight=0.75))
    assert sorted(ranked.ids()) == ["a", "b", "c", "d"]
    scores = [b.combined for _, b in ranked.entries]
    assert scores == sorted(scores, reverse=True)


def test_tie_breaks_by_up_count_then_insertion():
    # P=0 whole/linear makes the score depend on n only: (3,2) and (2,3) tie
    config = ScoringConfig(z=2.0, p_weight=0.0)
    state = build_state(("low_up", 2, 3), ("high_up", 3, 2))
    assert state.rank(config).ids() == ("high_up", "low_up")

    # identical tallies: insertion order decides
    state = build_state(("second", 3, 2), ("first", 3, 2))
    assert state.rank(config).ids() == ("second", "first")


def test_rank_uses_floor_from_config():
    state = build_state(("a", 2, 0))
    ranked = state.rank(ScoringConfig(z=0.0, p_weight=0.0, n_max_floor=10))
    assert ranked.maxima.n_max == 10
    assert ranked.entries[0][1].si == 0.2


def test_rank_answers_computes_maxima_when_omitted():
    entries = [
        AnswerEntry("a", VoteTally(1, 0), 0),
        AnswerEntry("b", VoteTally(25, 25), 1),
        AnswerEntry("c", VoteTally(50, 50), 2),
    ]
    ranked = rank_answers(entries, ScoringConfig(z=2.0, p_weight=0.5))
    assert ranked.maxima.n_max == 100
    si_by_id = {answer_id: b.si for answer_id, b in ranked.entries}
    assert si_by_id == {"a": 0.01, "b": 0.5, "c": 1.0}


def _repeated_tallies(count=400, seed=7):
    """Heavy-tailed tallies: most answers share a few small (up, down) pairs."""
    rng = random.Random(seed)
    entries = [
        AnswerEntry(f"a{i}", VoteTally(rng.choice((0, 0, 1, 1, 2, 3)), rng.choice((0, 0, 1, 2))), i)
        for i in range(count)
    ]
    return entries + [AnswerEntry("big", VoteTally(900, 40), count)]


# distinct tallies that tie on the combined score under some of the configs
# below: on n alone (whole, P = 0), on u alone (positive/upvote, P = 0), and
# on p_hat alone (z = 0, P = 1); some of them tie on the up count too
_TIED_TALLIES = [
    AnswerEntry(answer_id, VoteTally(up, down), seq)
    for seq, (answer_id, up, down) in enumerate([
        ("n5_u3", 3, 2), ("n5_u2", 2, 3), ("n5_u5", 5, 0), ("n5_u0", 0, 5),
        ("u2_n7", 2, 5), ("u2_n11", 2, 9), ("half_1", 1, 1), ("half_5", 5, 5),
        ("again_n5_u3", 3, 2), ("none", 0, 0),
    ])
]


def _shuffled(entries, seed=11):
    """The same entries in an order other than their ``created_seq``."""
    shuffled = list(entries)
    random.Random(seed).shuffle(shuffled)
    return shuffled


_RANK_CONFIGS = [
    ScoringConfig(z=z, p_weight=p_weight, si_kind=kind, si_transform=transform)
    for z, p_weight, kind, transform in itertools.product(
        (0.0, 2.0), (0.0, 0.5, 1.0), SiKind, (LINEAR, LOG10, EXP)
    )
]


@pytest.mark.parametrize("entries", [
    _repeated_tallies(),
    _TIED_TALLIES,
    _shuffled(_repeated_tallies() + [
        AnswerEntry(f"t{e.answer_id}", e.tally, e.created_seq + 1000) for e in _TIED_TALLIES
    ]),
], ids=["repeated", "tied", "shuffled"])
def test_rank_answers_matches_per_answer_reference(entries):
    for config in _RANK_CONFIGS:
        for raw_maxima in (None, (2000, 1500, 700)):
            ranked = rank_answers(entries, config, raw_maxima)
            expected = rank_answers_reference(entries, config, raw_maxima)
            assert ranked.entries == expected.entries, config
            assert ranked.maxima == expected.maxima


def test_rank_answers_scores_each_distinct_tally_once(monkeypatch):
    state_module = importlib.import_module("spotrank.state")
    calls = Counter()
    score = state_module.combined_score

    def counting(tally, maxima, config):
        calls[tally.up, tally.down] += 1
        return score(tally, maxima, config)

    monkeypatch.setattr(state_module, "combined_score", counting)
    entries = _shuffled(_repeated_tallies())
    tallies = {entry.answer_id: (entry.tally.up, entry.tally.down) for entry in entries}
    for _ in range(2):  # the cache lives for one call
        calls.clear()
        ranked = rank_answers(entries, ScoringConfig())
        assert calls == Counter(set(tallies.values()))
    shared = {}
    for answer_id, breakdown in ranked.entries:
        assert shared.setdefault(tallies[answer_id], breakdown) is breakdown


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(-3, 3)),
        max_size=30,
    ),
    config=st.sampled_from(_RANK_CONFIGS),
    raw_maxima=st.one_of(st.none(), st.just((2000, 1500, 700))),
)
def test_rank_answers_matches_reference_when_seqs_are_not_positions(rows, config, raw_maxima):
    # seqs repeat, skip values, go negative and come in any order
    entries = [AnswerEntry(f"a{i}", VoteTally(up, down), seq)
               for i, (up, down, seq) in enumerate(rows)]
    ranked = rank_answers(entries, config, raw_maxima)
    expected = rank_answers_reference(entries, config, raw_maxima)
    assert ranked.entries == expected.entries
    assert ranked.maxima == expected.maxima


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 7), st.integers(-2, 3), st.integers(-2, 3)),
        max_size=80,
    ),
    configs=st.lists(st.sampled_from(_RANK_CONFIGS), min_size=1, max_size=3),
)
def test_state_rank_equals_rank_answers_of_its_entries(steps, configs):
    state = QuestionState("q")
    for answer_index, up_delta, down_delta in steps:
        if up_delta or down_delta:
            try:
                state.apply_event(event(f"a{answer_index}", up=up_delta, down=down_delta))
            except NegativeCountError:
                pass  # a retraction below zero; the state is unchanged
    raw_maxima = brute_maxima(state.entries())
    for config in configs:
        ranked = state.rank(config)
        assert ranked == rank_answers(state.entries(), config, raw_maxima)
        assert ranked == rank_answers_reference(state.entries(), config, raw_maxima)


def test_maxima_unchanged_implies_si_unchanged():
    state = build_state(("a", 60, 10), ("b", 20, 5))
    config = ScoringConfig()
    before = {
        e.answer_id: spotlight_index(
            e.tally, state.rank(config).maxima, config.si_kind, config.si_transform
        )
        for e in state.entries()
    }
    state.apply_event(event("b", up=1))
    after_maxima = state.rank(config).maxima
    for e in state.entries():
        if e.answer_id == "a":
            assert (
                spotlight_index(e.tally, after_maxima, config.si_kind, config.si_transform)
                == before["a"]
            )


# --- snapshot -----------------------------------------------------------------


def test_snapshot_is_isolated_from_later_events():
    state = build_state(("a", 3, 1))
    snap = state.snapshot()
    state.apply_event(event("a", up=5))
    state.apply_event(event("b", down=2))
    assert snap.entries[0].tally == VoteTally(3, 1)
    assert len(snap.entries) == 1
    assert snap.raw_n_max == 4


def test_snapshot_of_empty_question():
    snap = QuestionState("q").snapshot()
    assert snap.entries == ()
    assert (snap.raw_n_max, snap.raw_u_max, snap.raw_d_max) == (0, 0, 0)


def test_answer_retracted_to_zero_keeps_its_creation_order():
    state = build_state(("a", 2, 0), ("b", 1, 1), ("c", 0, 3))
    state.apply_event(event("b", up=-1, down=-1))
    expected = (
        AnswerEntry("a", VoteTally(2, 0), 0),
        AnswerEntry("b", VoteTally(0, 0), 1),
        AnswerEntry("c", VoteTally(0, 3), 2),
    )
    assert state.entries() == expected
    assert state.snapshot().entries == expected
    tallies = {entry.answer_id: entry.tally for entry in state.entries()}
    assert tallies["b"] == VoteTally(0, 0)
    assert "never-seen" not in tallies


def test_snapshot_maxima_match_rescan_of_snapshot_entries():
    state = build_state(("a", 12, 4), ("b", 7, 9), ("c", 1, 1))
    state.apply_event(event("b", up=-1))
    snap = state.snapshot()
    assert (snap.raw_n_max, snap.raw_u_max, snap.raw_d_max) == brute_maxima(snap.entries)
