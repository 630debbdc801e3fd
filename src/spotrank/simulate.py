"""Deterministic vote-stream simulation and ranking-stability metrics.

The stream generator is fully seeded so a (spec, scorers, cadence) triple
always yields the same trajectory, byte for byte.  Randomness comes from
splitmix64, a tiny portable 64-bit generator; each event draws two uniforms
from a single stream seeded with ``spec.seed``: the first picks the answer by
arrival weight, the second picks the vote direction against the answer's
up-probability.

The stream is drawn as numpy columns, one block of events at a time, and
gives the same events as the scalar :class:`SplitMix64` with a
``bisect_right`` pick: splitmix64 is wrapping 64-bit integer arithmetic,
which ``uint64`` arrays do exactly; the top 53 bits times ``2**-53`` is an
exact float; and ``searchsorted(..., side="right")`` on the running weight
sums is the same search as ``bisect_right``.  Between two snapshots the
votes only add up, so the tallies are two int64 columns indexed by profile,
and each window adds one ``bincount`` to each.

Each snapshot is ranked from those columns (:func:`_rank_columns`): the
Wilson bounds and the blend run on numpy columns, the spotlight index is
the scalar function taken once per distinct count, and the order is
``state._rank_order``.  That is ``rank``'s ranking of the tallies: same
order, same maxima, same bits in every score.  A stream has fewer than 2**53
events, so every vote total converts to float64 exactly.  numpy is imported
by the functions that draw and rank the columns, so importing this module
does not load it.

Stability is quantified with Kendall tau-a over adjacent ranking snapshots
(rankings are strict total orders after tie-breaking, so no tie handling is
needed) plus cross-scorer agreement on the final ranking.  Both need only the
previous snapshot, so the snapshots come as one stream: :func:`simulate`
keeps all of them, and a caller that folds each one into the report as it
comes (the CLI) holds one at a time.  Answers never leave a stream, so
each snapshot ranks every answer of the one before: an adjacent pair's tau
is over the earlier snapshot's answers, and its discordant pairs are the
inversions of the later ranking's positions read in the earlier order.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .grids import _wilson_bounds
from .scoring import (
    _FLOAT_MAX,
    Bound,
    Maxima,
    ScoreBreakdown,
    ScoringConfig,
    WilsonInterval,
    _blend,
    _quote,
    _si_of_count,
    _si_parts,
    effective_maxima,
)
from .state import QuestionState, RankedList, VoteEvent, _rank_order

SIM_QUESTION_ID = "sim"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# events per draw: two uniforms each, so memory stays at a few blocks of
# 2 * _DRAW_BLOCK words whatever the stream length
_DRAW_BLOCK = 1 << 15
# up to this many elements, inversions are counted by insertion into a sorted
# list, whose memmove stays cheap; above it, by merge sort.  On a 2-vCPU
# x86-64 host the insertion is 3x faster at 200 elements and still faster
# at 4096 on reversed input, its worst case (merge sort wins from ~6000)
_BISECT_MAX = 4096


class SplitMix64:
    """splitmix64: one additive step plus a 3-stage mix, all mod 2**64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # top 53 bits -> uniform dyadic rational in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


class RankingMismatchError(ValueError):
    """The two rankings are not permutations of the same id set."""


class TooFewElementsError(ValueError):
    """Kendall tau needs at least two elements."""


class TooFewSnapshotsError(ValueError):
    """Stability needs at least two recorded snapshots."""


@dataclass(frozen=True)
class AnswerProfile:
    """Ground-truth behaviour of one simulated answer."""

    answer_id: str
    up_probability: float
    arrival_weight: float

    def __post_init__(self):
        if not 0.0 <= self.up_probability <= 1.0:
            raise ValueError(f"up_probability must be in [0, 1], got {_quote(self.up_probability)}")
        # from an infinite weight on, every running sum is infinite: no pick lands on it
        if not 0.0 < self.arrival_weight <= _FLOAT_MAX:
            raise ValueError(
                f"arrival_weight must be positive and finite, got {_quote(self.arrival_weight)}")


@dataclass(frozen=True)
class StreamSpec:
    profiles: tuple[AnswerProfile, ...]
    total_events: int
    seed: int

    def __post_init__(self):
        if not self.profiles:
            raise ValueError("at least one answer profile is required")
        ids = [p.answer_id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate answer_id in profiles")
        if self.total_events < 1:
            raise ValueError("total_events must be positive")
        # each event adds one vote, so every vote total converts to float64 exactly
        if self.total_events >= 2**53:
            raise ValueError(f"total_events must be below 2**53, got {_quote(self.total_events)}")


@dataclass(frozen=True)
class TrajectorySnapshot:
    event_index: int  # number of events applied when the snapshot was taken
    rankings: Mapping[str, RankedList]  # scorer label -> ranking


@dataclass(frozen=True, eq=False)
class Trajectory:
    snapshots: tuple[TrajectorySnapshot, ...]
    final_state: QuestionState
    scorer_labels: tuple[str, ...]


@dataclass(frozen=True)
class ScorerStability:
    mean_adjacent_tau: float
    rank_one_changes: int


@dataclass(frozen=True)
class StabilityReport:
    per_scorer: Mapping[str, ScorerStability]
    agreement: Mapping[tuple[str, str], float]  # final-ranking tau per scorer pair


def _splitmix64_floats(state: int, count: int) -> np.ndarray:
    """The next ``count`` :meth:`SplitMix64.next_float` values after ``state``."""
    import numpy as np

    # uint64 operands throughout, so NumPy 1.x value-based casting and NumPy 2
    # promotion both keep every operation in wrapping uint64 arithmetic
    gamma, mix1, mix2 = (np.uint64(k) for k in (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
    s30, s27, s31, s11 = (np.uint64(k) for k in (30, 27, 31, 11))
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= gamma
    z += np.uint64(state)
    z ^= z >> s30
    z *= mix1
    z ^= z >> s27
    z *= mix2
    z ^= z >> s31
    z >>= s11
    return z.astype(np.float64) * 2.0**-53


def _stream_blocks(spec: StreamSpec, cut_every: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The event stream as blocks of (profile index, is-up vote) columns, of
    at most ``_DRAW_BLOCK`` events; a block also ends after every multiple of
    ``cut_every`` events."""
    import numpy as np

    profiles = spec.profiles
    weights = [p.arrival_weight for p in profiles]
    # sum() is not bounds[-1]: from Python 3.12 it adds floats with
    # compensation, and the stream must not depend on which one is used
    total_weight = sum(weights)
    # the first profile whose running weight sum exceeds the pick; the search
    # stops short of the last sum, so a pick at or past it (float rounding)
    # falls to the last profile
    bounds = np.array(list(accumulate(weights))[:-1], dtype=np.float64)
    up_probability = np.array([p.up_probability for p in profiles], dtype=np.float64)
    state = spec.seed & _MASK64
    start = 0
    while start < spec.total_events:
        count = min(_DRAW_BLOCK, cut_every - start % cut_every, spec.total_events - start)
        uniforms = _splitmix64_floats(state, 2 * count)
        state = (state + 2 * count * _GAMMA) & _MASK64
        start += count
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, which sorts last
            picks = np.searchsorted(bounds, uniforms[0::2] * total_weight, side="right")
        yield picks, uniforms[1::2] < up_probability[picks]


def generate_events(spec: StreamSpec) -> list[VoteEvent]:
    """The seeded single-vote event stream; timestamp = event index in ms."""
    ids = [p.answer_id for p in spec.profiles]
    events = []
    for picks, is_up in _stream_blocks(spec, spec.total_events):
        for k, up in zip(picks.tolist(), is_up.tolist()):
            events.append(VoteEvent(SIM_QUESTION_ID, ids[k], int(up), int(not up), len(events)))
    return events


def simulate(
    spec: StreamSpec,
    scorers: Mapping[str, ScoringConfig],
    cadence: int = 100,
) -> Trajectory:
    """Run the stream through a question state, ranking at a fixed cadence.

    Rankings are recorded after every ``cadence``-th event and after the final
    one.  Identical inputs always produce identical trajectories, equal to
    applying :func:`generate_events` one event at a time.  Each scorer is a
    :class:`ScoringConfig`, so it was checked when it was built.
    """
    if not scorers:
        raise ValueError("at least one scorer is required")
    if cadence < 1:
        raise ValueError("cadence must be positive")

    ids = [p.answer_id for p in spec.profiles]
    snapshots = []
    for snap in _snapshot_stream(spec, scorers, cadence):
        names = [ids[k] for k in snap.answers]
        snapshots.append(TrajectorySnapshot(snap.event_index, {
            label: _ranked_list(ranking, names) for label, ranking in snap.rankings.items()}))
    # the last snapshot is taken after the last event
    state = QuestionState(SIM_QUESTION_ID)
    for answer_id, up, down in zip(names, snap.up.tolist(), snap.down.tolist()):
        state.apply_delta(answer_id, up, down)
    return Trajectory(tuple(snapshots), state, tuple(scorers))


class _Ranking(NamedTuple):
    """One scorer's ranking of a snapshot's answers, as columns: ``order``
    holds answer positions, best first; the four score columns hold one
    value per position, as :class:`ScoreBreakdown` names them."""

    order: list[int]
    maxima: Maxima
    lower: list[float]
    upper: list[float]
    si: list[float]
    combined: list[float]


class _Snapshot(NamedTuple):
    """The answers voted on after ``event_index`` events, as profile
    indices in the order of their first vote (an answer's position is its
    creation order), their tallies, and each scorer's ranking of them."""

    event_index: int
    answers: tuple[int, ...]
    up: np.ndarray
    down: np.ndarray
    rankings: dict[str, _Ranking]


def _snapshot_stream(spec: StreamSpec, scorers: Mapping[str, ScoringConfig],
                     cadence: int) -> Iterator[_Snapshot]:
    """Each snapshot of :func:`simulate`, yielded as soon as it is ranked, so
    a caller that drops it holds one snapshot at a time.

    Between two snapshots the votes only add up, so the tallies are two
    int64 columns indexed by profile, each window added as one ``bincount``;
    the answers are listed in the order of their first vote, as applying the
    events one at a time creates them.
    """
    import numpy as np

    m = len(spec.profiles)
    up = np.zeros(m, dtype=np.int64)
    down = np.zeros(m, dtype=np.int64)
    seen = np.zeros(m, dtype=bool)
    answers: list[int] = []
    applied = 0
    for picks, is_up in _stream_blocks(spec, cadence):
        up += np.bincount(picks[is_up], minlength=m)
        down += np.bincount(picks[~is_up], minlength=m)
        fresh = picks[~seen[picks]]
        if len(fresh):
            first_votes = list(dict.fromkeys(fresh.tolist()))
            seen[first_votes] = True
            answers += first_votes
        applied += len(picks)
        if applied % cadence == 0 or applied == spec.total_events:
            columns = np.array(answers)
            u, d = up[columns], down[columns]
            yield _Snapshot(applied, tuple(answers), u, d,
                            {label: _rank_columns(u, d, config) for label, config in scorers.items()})


def _rank_columns(up: np.ndarray, down: np.ndarray, config: ScoringConfig) -> _Ranking:
    """``rank``'s ranking of int64 columns of one or more tallies: the
    order, maxima and score bits of the scalar kernel, from numpy arithmetic.

    The Wilson bounds are ``grids._wilson_bounds``, the spotlight index is
    ``_si_of_count`` once per distinct count, negated as ``_si_parts`` says,
    and the blend is ``_blend`` on the columns.  The Wilson arithmetic
    gives Python's bits because its operands convert to float64 exactly:
    every vote total is below 2**53, as :class:`StreamSpec` bounds the
    stream, and ``config.z`` is a float, as :class:`ScoringConfig` stores it.
    """
    import numpy as np

    counts = list(zip(up.tolist(), down.tolist()))
    maxima = effective_maxima(int((up + down).max()), int(up.max()), int(down.max()),
                              floor=config.n_max_floor)
    lower, upper = _wilson_bounds(up.astype(np.float64), down.astype(np.float64), config.z)
    count, top, negate, variant = _si_parts(up, down, maxima, config.si_kind,
                                            config.si_transform, config.whole_variant)
    table: dict[int, float] = {}
    si_counts = count.tolist()
    for c in si_counts:
        if c not in table:
            table[c] = _si_of_count(c, top, config.si_transform, variant)
    si = np.array([table[c] for c in si_counts], dtype=np.float64)
    np.negative(si, out=si, where=negate)
    combined = _blend(config.p_weight, lower if config.bound is Bound.LOWER else upper,
                      si).tolist()
    # equal tallies have equal scores, so each position's pair is its tally's
    return _Ranking(_rank_order(counts, zip(counts, combined)), maxima, lower.tolist(),
                    upper.tolist(), si.tolist(), combined)


def _ranked_list(ranking: _Ranking, names: Sequence[str]) -> RankedList:
    """``ranking`` as :class:`RankedList` entries, ``names`` the answer ids by position."""
    breakdowns = [ScoreBreakdown(WilsonInterval(lower, upper), si, combined)
                  for lower, upper, si, combined in zip(ranking.lower, ranking.upper, ranking.si,
                                                        ranking.combined)]
    return RankedList(tuple((names[j], breakdowns[j]) for j in ranking.order), ranking.maxima)


def kendall_tau(ranking_a: Sequence[str], ranking_b: Sequence[str]) -> float:
    """Tau-a rank correlation: (concordant - discordant) / (m*(m-1)/2).

    Both rankings must be permutations of the same id set with >= 2 elements:
    m distinct ids and m ids, each of the first found in the second by
    :func:`_grown_tau`, which counts the discordant pairs.
    """
    m = len(ranking_a)
    if len(set(ranking_a)) != m or len(ranking_b) != m:
        raise RankingMismatchError("rankings must be permutations of one id set")
    tau = _grown_tau(ranking_a, ranking_b)
    if m < 2:
        raise TooFewElementsError("kendall tau needs at least 2 elements")
    return tau


def _count_inversions(perm: list[int]) -> int:
    """Pairs i < j with perm[i] > perm[j] in a permutation.  Up to
    ``_BISECT_MAX`` elements, each is counted against the sorted list of
    those before it; above, while merge-sorting perm bottom-up: O(m log m)
    (Knight 1966, JASA 61:436)."""
    m = len(perm)
    inversions = 0
    if m <= _BISECT_MAX:
        before: list[int] = []
        for i, x in enumerate(perm):
            inversions += i - bisect_right(before, x)
            insort(before, x)
        return inversions
    width = 1
    while width < m:
        merged = []
        for lo in range(0, m, 2 * width):
            mid = min(lo + width, m)
            hi = min(lo + 2 * width, m)
            i, j = lo, mid
            while i < mid and j < hi:
                if perm[i] < perm[j]:
                    merged.append(perm[i])
                    i += 1
                else:
                    # perm[j] precedes every element left in perm[i:mid]
                    merged.append(perm[j])
                    j += 1
                    inversions += mid - i
            merged += perm[i:mid]
            merged += perm[j:hi]
        perm = merged
        width *= 2
    return inversions


def _grown_tau(order_a: Sequence[Hashable], order_b: Sequence[Hashable]) -> float:
    """Tau-a of ``order_a`` against ``order_b``'s order of the same ids;
    vacuously 1.0 below 2 ids.  ``order_b`` ranks every id of ``order_a``
    (else :class:`RankingMismatchError`) and no id twice, as a later snapshot
    of one stream does.  The discordant pairs are the inversions of
    ``order_b``'s positions read in ``order_a``'s order.
    """
    position_b = {key: i for i, key in enumerate(order_b)}
    try:
        perm = [position_b[key] for key in order_a]
    except KeyError:
        raise RankingMismatchError("the second ranking lacks an id of the first") from None
    m = len(perm)
    if m < 2:
        return 1.0
    return 1.0 - 2.0 * _count_inversions(perm) / (m * (m - 1) // 2)


class _StabilityFold:
    """:func:`stability_report`, fed one snapshot at a time.  It keeps the
    previous snapshot's order per scorer and each scorer's taus and
    rank-one change count, never the snapshots themselves."""

    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(labels)
        self.snapshots = 0
        self._orders: dict[str, Sequence[Hashable]] = {}
        # a list, not a running total: from Python 3.12 sum() adds floats
        # with compensation, and the mean must not change with the fold
        self._taus: dict[str, list[float]] = {label: [] for label in self.labels}
        self._changes = dict.fromkeys(self.labels, 0)

    def add(self, orders: Mapping[str, Sequence[Hashable]]) -> None:
        """Fold a snapshot given as each scorer's order of answer keys, every
        key of the previous snapshot among them, as :func:`_grown_tau` needs."""
        if self.snapshots:
            for label in self.labels:
                prev, cur = self._orders[label], orders[label]
                self._taus[label].append(_grown_tau(prev, cur))
                if prev and cur and prev[0] != cur[0]:
                    self._changes[label] += 1
        self._orders = orders
        self.snapshots += 1

    def report(self) -> StabilityReport:
        if self.snapshots < 2:
            raise TooFewSnapshotsError("need at least 2 snapshots to measure stability")
        per_scorer = {
            label: ScorerStability(sum(taus) / len(taus), self._changes[label])
            for label, taus in self._taus.items()
        }
        final = self._orders  # every scorer ranks the one set of answers
        agreement = {}
        for i, label_a in enumerate(self.labels):
            for label_b in self.labels[i + 1 :]:
                agreement[(label_a, label_b)] = _grown_tau(final[label_a], final[label_b])
        return StabilityReport(per_scorer, agreement)


def stability_report(trajectory: Trajectory) -> StabilityReport:
    """Aggregate adjacent-snapshot stability and cross-scorer final agreement.

    Each snapshot must rank every answer of the one before, as :func:`simulate`'s
    do, else :class:`RankingMismatchError`.
    """
    fold = _StabilityFold(trajectory.scorer_labels)
    for snapshot in trajectory.snapshots:
        fold.add({label: ranked.ids() for label, ranked in snapshot.rankings.items()})
    return fold.report()
