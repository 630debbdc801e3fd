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
votes only add up, so :func:`simulate` applies each answer's window total as
one delta, in the order the answers first appear.  numpy is imported by the
functions that draw and apply the columns, so importing this module does not
load it.

Stability is quantified with Kendall tau-a over adjacent ranking snapshots
(rankings are strict total orders after tie-breaking, so no tie handling is
needed) plus cross-scorer agreement on the final ranking.  Both need only the
previous snapshot, so the snapshots come as one stream: :func:`simulate`
keeps all of them, and a caller that folds each one into the report as it
comes (the CLI) holds one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .scoring import _FLOAT_MAX, ScoringConfig, _quote
from .state import QuestionState, RankedList, VoteEvent

SIM_QUESTION_ID = "sim"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# events per draw: two uniforms each, so memory stays at a few blocks of
# 2 * _DRAW_BLOCK words whatever the stream length
_DRAW_BLOCK = 1 << 15


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


def _apply_window(state: QuestionState, ids: list[str], picks: np.ndarray,
                  is_up: np.ndarray) -> None:
    """Apply a run of single-vote events as one delta per answer, in the
    order the answers first appear, so new answers are created in stream
    order."""
    import numpy as np

    up = np.bincount(picks[is_up], minlength=len(ids)).tolist()
    down = np.bincount(picks[~is_up], minlength=len(ids)).tolist()
    for k in dict.fromkeys(picks.tolist()):
        state.apply_delta(ids[k], up[k], down[k])


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

    state = QuestionState(SIM_QUESTION_ID)
    snapshots = tuple(_snapshot_stream(spec, scorers, cadence, state))
    return Trajectory(snapshots, state, tuple(scorers))


def _snapshot_stream(spec: StreamSpec, scorers: Mapping[str, ScoringConfig], cadence: int,
                     state: QuestionState) -> Iterator[TrajectorySnapshot]:
    """Each snapshot of :func:`simulate`, yielded as soon as it is ranked, so
    a caller that drops it holds one snapshot at a time.  The stream is
    applied to ``state``, whose ``event_count`` is set once the stream ends."""
    ids = [p.answer_id for p in spec.profiles]
    applied = 0
    for picks, is_up in _stream_blocks(spec, cadence):
        _apply_window(state, ids, picks, is_up)
        applied += len(picks)
        if applied % cadence == 0 or applied == spec.total_events:
            yield TrajectorySnapshot(
                applied, {label: state.rank(config) for label, config in scorers.items()})
    # each delta stood for a block's single-vote events
    state.event_count = spec.total_events


def kendall_tau(ranking_a: Sequence[str], ranking_b: Sequence[str]) -> float:
    """Tau-a rank correlation: (concordant - discordant) / (m*(m-1)/2).

    Both rankings must be permutations of the same id set with >= 2 elements.
    """
    m = len(ranking_a)
    if len(set(ranking_a)) != m or set(ranking_a) != set(ranking_b) or len(ranking_b) != m:
        raise RankingMismatchError("rankings must be permutations of one id set")
    if m < 2:
        raise TooFewElementsError("kendall tau needs at least 2 elements")
    position_b = {answer_id: i for i, answer_id in enumerate(ranking_b)}
    discordant = _count_inversions([position_b[answer_id] for answer_id in ranking_a])
    total = m * (m - 1) // 2
    return 1.0 - 2.0 * discordant / total


def _count_inversions(perm: list[int]) -> int:
    """Pairs i < j with perm[i] > perm[j], counted while merge-sorting perm
    bottom-up: O(m log m) (Knight 1966, JASA 61:436)."""
    m = len(perm)
    inversions = 0
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


def _tau_or_one(ids_a: Sequence[str], ids_b: Sequence[str]) -> float:
    """Adjacent-snapshot tau over the common id set; vacuously 1.0 below 2 ids.

    Answers appear as the stream runs, so consecutive snapshots may not rank
    the same set; the comparison is restricted to ids present in both.
    """
    common = set(ids_a) & set(ids_b)
    if len(common) < 2:
        return 1.0
    return kendall_tau(
        [i for i in ids_a if i in common],
        [i for i in ids_b if i in common],
    )


class _StabilityFold:
    """:func:`stability_report`, fed one snapshot at a time.  It keeps the
    previous snapshot's id order per scorer and each scorer's taus and
    rank-one change count, never the snapshots themselves."""

    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(labels)
        self.snapshots = 0
        self._ids: dict[str, tuple[str, ...]] = {}
        # a list, not a running total: from Python 3.12 sum() adds floats
        # with compensation, and the mean must not change with the fold
        self._taus: dict[str, list[float]] = {label: [] for label in self.labels}
        self._changes = dict.fromkeys(self.labels, 0)

    def add(self, snapshot: TrajectorySnapshot) -> None:
        ids = {label: snapshot.rankings[label].ids() for label in self.labels}
        if self.snapshots:
            for label in self.labels:
                ids_prev, ids_cur = self._ids[label], ids[label]
                self._taus[label].append(_tau_or_one(ids_prev, ids_cur))
                if ids_prev and ids_cur and ids_prev[0] != ids_cur[0]:
                    self._changes[label] += 1
        self._ids = ids
        self.snapshots += 1

    def report(self) -> StabilityReport:
        if self.snapshots < 2:
            raise TooFewSnapshotsError("need at least 2 snapshots to measure stability")
        per_scorer = {
            label: ScorerStability(sum(taus) / len(taus), self._changes[label])
            for label, taus in self._taus.items()
        }
        final = self._ids
        agreement = {}
        for i, label_a in enumerate(self.labels):
            for label_b in self.labels[i + 1 :]:
                agreement[(label_a, label_b)] = _tau_or_one(final[label_a], final[label_b])
        return StabilityReport(per_scorer, agreement)


def stability_report(trajectory: Trajectory) -> StabilityReport:
    """Aggregate adjacent-snapshot stability and cross-scorer final agreement."""
    fold = _StabilityFold(trajectory.scorer_labels)
    for snapshot in trajectory.snapshots:
        fold.add(snapshot)
    return fold.report()
