"""Online per-question state: vote-delta ingestion and ranking.

One ``QuestionState`` is a single-writer unit: callers must serialize
``apply_event``/``apply_delta`` per question (different questions are
independent).  Reads go through :meth:`QuestionState.snapshot`, which is
immutable.  The state holds tallies only, with no event count and no
maxima, so applying a delta is O(1) and writes one tally; the maxima are
read from the tallies in O(answers) when a reader asks for them, as ranking
and snapshots do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .scoring import (
    Maxima,
    ScoreBreakdown,
    ScoringConfig,
    VoteTally,
    _quote,
    combined_score,
    effective_maxima,
)


class UnknownQuestionError(ValueError):
    """Event routed to a state holding a different question."""


class NegativeCountError(ValueError):
    """Event would drive an up/down count below zero; the event is rejected."""


@dataclass(frozen=True)
class AnswerEntry:
    answer_id: str
    tally: VoteTally
    created_seq: int


@dataclass(frozen=True)
class VoteEvent:
    """A vote delta.  Retractions are negative deltas; at least one delta is nonzero."""

    question_id: str
    answer_id: str
    up_delta: int
    down_delta: int
    timestamp: int  # milliseconds

    def __post_init__(self):
        if self.up_delta == 0 and self.down_delta == 0:
            raise ValueError("vote event must change at least one count")


@dataclass(frozen=True)
class QuestionSnapshot:
    """Consistent read-only view of a question; later events never mutate it."""

    question_id: str
    entries: tuple[AnswerEntry, ...]
    raw_n_max: int
    raw_u_max: int
    raw_d_max: int


@dataclass(frozen=True)
class RankedList:
    """Answers in non-increasing combined-score order.

    Ties break by higher up-count, then earlier creation.  ``maxima`` is the
    floored snapshot every breakdown in ``entries`` was scored against.
    """

    entries: tuple[tuple[str, ScoreBreakdown], ...]
    maxima: Maxima

    def ids(self) -> tuple[str, ...]:
        return tuple(answer_id for answer_id, _ in self.entries)


def rank_answers(answers: Iterable[AnswerEntry], config: ScoringConfig) -> RankedList:
    """Score and order a batch of answers under one maxima snapshot.

    The maxima are those of the answers themselves, floored per
    ``config.n_max_floor``.  Answers with equal tallies share one (frozen)
    :class:`ScoreBreakdown`.
    """
    # sorted stably by created_seq, an answer's position breaks ties as its
    # created_seq does, and answers with equal seqs keep their input order
    entries = sorted(answers, key=lambda entry: entry.created_seq)
    counts = [(entry.tally.up, entry.tally.down) for entry in entries]
    order, scored, maxima = _rank_counts(counts, config)
    return RankedList(tuple((entries[i].answer_id, scored[counts[i]]) for i in order), maxima)


def _rank_counts(
    counts: Sequence[tuple[int, int]], config: ScoringConfig
) -> tuple[list[int], dict[tuple[int, int], ScoreBreakdown], Maxima]:
    """The ranking kernel: the positions of ``counts`` in rank order, the
    breakdown of each distinct ``(up, down)`` and the maxima they were
    scored against: those of the counts, floored per config.

    Positions order by :func:`_rank_order`.  Under one maxima snapshot the
    score depends on the tally alone, so each distinct ``(up, down)`` is
    scored once.
    """
    maxima = effective_maxima(*_max_counts(counts), floor=config.n_max_floor)
    scored: dict[tuple[int, int], ScoreBreakdown] = {}
    for key in counts:
        if key not in scored:
            scored[key] = combined_score(VoteTally(*key), maxima, config)
    order = _rank_order(counts, ((key, breakdown.combined) for key, breakdown in scored.items()))
    return order, scored, maxima


def _rank_order(counts: Sequence[tuple[int, int]],
                scores: Iterable[tuple[tuple[int, int], float]]) -> list[int]:
    """The ranking rule: the positions of ``counts`` by higher combined
    score, then higher up-count, then lower position.  ``scores`` pairs each
    distinct ``(up, down)`` with its combined score."""
    # one sort key per distinct tally, so positions share it; the sort is
    # stable, so positions with equal keys stay in position order
    sort_keys = {key: (-combined, -key[0]) for key, combined in scores}
    return sorted(range(len(counts)), key=[sort_keys[key] for key in counts].__getitem__)


def _max_counts(counts: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    n_max = u_max = d_max = 0
    for up, down in counts:
        n = up + down
        if n > n_max:
            n_max = n
        if up > u_max:
            u_max = up
        if down > d_max:
            d_max = down
    return (n_max, u_max, d_max)


class QuestionState:
    """All answers of one question, as their vote tallies.

    Tallies are held as plain ``(up, down)`` tuples keyed by answer id, so
    applying an event allocates no per-answer objects; the dict's insertion
    order is the creation order, which makes an answer's position its
    ``created_seq``.  :meth:`rank` reads the tuples as they are;
    :class:`AnswerEntry` views are built only by :meth:`entries`.  No maxima
    are kept: :meth:`recompute_maxima` scans the tallies.
    """

    def __init__(self, question_id: str):
        self.question_id = question_id
        self._counts: dict[str, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def entries(self) -> tuple[AnswerEntry, ...]:
        return tuple(
            AnswerEntry(answer_id, VoteTally(up, down), seq)
            for seq, (answer_id, (up, down)) in enumerate(self._counts.items())
        )

    def apply_event(self, event: VoteEvent) -> None:
        """Apply one vote event.

        Events for another question raise :class:`UnknownQuestionError`; the
        rest is :meth:`apply_delta`.
        """
        if event.question_id != self.question_id:
            raise UnknownQuestionError(
                f"event for question {event.question_id!r} applied to {self.question_id!r}"
            )
        self.apply_delta(event.answer_id, event.up_delta, event.down_delta)

    def apply_delta(self, answer_id: str, up_delta: int, down_delta: int) -> None:
        """Add one vote delta to an answer.

        Unknown answer ids are created on first sight with a zero tally.  A
        delta that would drive a count negative raises
        :class:`NegativeCountError` and leaves the state untouched.  The
        caller checks that the delta is not zero, as :class:`VoteEvent` does.
        """
        up, down = self._counts.get(answer_id, (0, 0))
        up += up_delta
        down += down_delta
        if up < 0 or down < 0:
            raise NegativeCountError(
                f"event would drive answer {answer_id!r} to ({_quote(up)}, {_quote(down)})")
        self._counts[answer_id] = (up, down)

    def recompute_maxima(self) -> tuple[int, int, int]:
        """Raw ``(n_max, u_max, d_max)`` over the current tallies, in one scan;
        (0, 0, 0) when there are no answers."""
        return _max_counts(self._counts.values())

    def rank(self, config: ScoringConfig) -> RankedList:
        """Rank all answers under the maxima of their tallies, floored per config."""
        ids, counts = list(self._counts), list(self._counts.values())
        order, scored, maxima = _rank_counts(counts, config)
        return RankedList(tuple((ids[i], scored[counts[i]]) for i in order), maxima)

    def snapshot(self) -> QuestionSnapshot:
        return QuestionSnapshot(self.question_id, self.entries(), *self.recompute_maxima())
