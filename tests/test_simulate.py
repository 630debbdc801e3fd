import builtins
import importlib
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import generate_events_linear, kendall_tau_pairs
from spotrank.scoring import (EXP, LINEAR, LOG10, Bound, ScoringConfig, SiKind, WholeSiVariant,
                              poly)
from spotrank.simulate import (
    _BISECT_MAX,
    AnswerProfile,
    RankingMismatchError,
    SplitMix64,
    StreamSpec,
    TooFewElementsError,
    TooFewSnapshotsError,
    Trajectory,
    TrajectorySnapshot,
    generate_events,
    _rank_columns,
    _StabilityFold,
    kendall_tau,
    simulate,
    stability_report,
)
from spotrank.state import QuestionState, RankedList, _rank_counts

WILSON = ScoringConfig(z=2.0, p_weight=1.0)
BLEND = ScoringConfig(z=2.0, p_weight=0.5)


def spec_of(*profiles, total_events=100, seed=0):
    return StreamSpec(tuple(AnswerProfile(*p) for p in profiles),
                      total_events=total_events, seed=seed)


# --- PRNG ----------------------------------------------------------------------


def test_generator_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_floats_land_in_unit_interval():
    rng = SplitMix64(7)
    values = [rng.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.45 < sum(values) / len(values) < 0.55


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


# --- event generation ------------------------------------------------------------


def test_stream_is_reproducible():
    spec = spec_of(("a", 0.5, 1.0), ("b", 0.9, 2.0), total_events=500, seed=123)
    assert generate_events(spec) == generate_events(spec)


def test_single_vote_events_with_index_timestamps():
    spec = spec_of(("a", 1.0, 1.0), total_events=10)
    events = generate_events(spec)
    assert len(events) == 10
    assert [e.timestamp for e in events] == list(range(10))
    assert all(e.up_delta + e.down_delta == 1 for e in events)
    assert all(e.up_delta in (0, 1) and e.down_delta in (0, 1) for e in events)


def test_sure_thing_profile_gets_only_up_votes():
    spec = spec_of(("a", 1.0, 1.0), total_events=50, seed=9)
    assert all(e.up_delta == 1 for e in generate_events(spec))


def test_weights_steer_arrivals():
    spec = spec_of(("heavy", 0.5, 99.0), ("light", 0.5, 1.0), total_events=2000, seed=4)
    events = generate_events(spec)
    heavy = sum(1 for e in events if e.answer_id == "heavy")
    assert heavy > 1800


def _pareto_weights(count):
    # the benchmark's simulate profile shape: a Pareto(1.5) tail, shuffled
    quantiles = (np.arange(count) + 0.5) / count
    weights = (1 - quantiles) ** (-1 / 1.5) - 1 + 0.05
    return [round(float(w), 6) for w in weights[np.random.default_rng(0).permutation(count)]]


@pytest.mark.parametrize("weights, seeds", [
    ([1.0], [0, 9]),
    ([2.5] * 7, [0, 1, 2]),
    ([1.0, 1e-12, 1.0, 1e-12], [3, 4]),
    ([1e12, 1.0, 1e-12, 3.0], [5, 6]),
    ([1.0, 1e12], [7]),
    (_pareto_weights(200), [101, 202, 303, 2**63 + 5]),
], ids=["one-profile", "tied", "ratio-1e-12", "ratio-1e12", "heavy-last", "pareto-200"])
def test_generate_events_matches_linear_scan_oracle(weights, seeds):
    profiles = [(f"p{i}", (i % 10 + 0.5) / 10, w) for i, w in enumerate(weights)]
    for seed in seeds:
        spec = spec_of(*profiles, total_events=3000, seed=seed)
        assert generate_events(spec) == generate_events_linear(spec)


def test_picks_past_the_last_weight_sum_fall_to_the_last_profile(monkeypatch):
    # from Python 3.12, sum() of floats is compensated and can exceed the
    # last running sum; an inflated total sends a third of the picks past it,
    # which all go to the last profile
    for module in (importlib.import_module("spotrank.simulate"), helpers):
        monkeypatch.setattr(module, "sum", lambda values: 1.5 * builtins.sum(values),
                            raising=False)
    spec = spec_of(("a", 0.5, 1.0), ("b", 0.5, 2.0), ("last", 0.5, 1.0),
                   total_events=600, seed=11)
    events = generate_events(spec)
    assert events == generate_events_linear(spec)
    assert sum(e.answer_id == "last" for e in events) > 250  # its own share is 100


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of(total_events=10)  # no profiles
    with pytest.raises(ValueError):
        spec_of(("a", 1.5, 1.0))  # probability out of range
    with pytest.raises(ValueError):
        spec_of(("a", 0.5, 0.0))  # non-positive weight
    with pytest.raises(ValueError):
        spec_of(("a", 0.5, float("1e309")))  # infinite weight: no pick could land on it
    with pytest.raises(ValueError):
        spec_of(("a", 0.5, 1.0), ("a", 0.5, 1.0))  # duplicate id
    with pytest.raises(ValueError):
        spec_of(("a", 0.5, 1.0), total_events=0)
    # each event adds one vote, so every vote total of a stream converts to float64 exactly
    assert spec_of(("a", 0.5, 1.0), total_events=2**53 - 1).total_events == 2**53 - 1
    with pytest.raises(ValueError, match=r"^total_events must be below 2\*\*53, got 9007199254740992$"):
        spec_of(("a", 0.5, 1.0), total_events=2**53)


# --- simulate ---------------------------------------------------------------------


def test_single_answer_always_first():
    spec = spec_of(("only", 1.0, 1.0), total_events=10)
    trajectory = simulate(spec, {"wilson": WILSON}, cadence=2)
    assert [entry.tally.up for entry in trajectory.final_state.entries()] == [10]
    assert all(
        snap.rankings["wilson"].ids() == ("only",) for snap in trajectory.snapshots
    )


def test_trajectories_identical_for_identical_inputs():
    spec = spec_of(("a", 0.6, 1.0), ("b", 0.9, 1.0), total_events=300, seed=11)
    scorers = {"wilson": WILSON, "blend": BLEND}
    t1 = simulate(spec, scorers, cadence=50)
    t2 = simulate(spec, scorers, cadence=50)
    assert len(t1.snapshots) == len(t2.snapshots)
    for s1, s2 in zip(t1.snapshots, t2.snapshots):
        assert s1.event_index == s2.event_index
        for label in scorers:
            assert s1.rankings[label].ids() == s2.rankings[label].ids()
            assert [b.combined for _, b in s1.rankings[label].entries] == [
                b.combined for _, b in s2.rankings[label].entries
            ]


def test_snapshot_cadence_and_final_snapshot():
    spec = spec_of(("a", 0.5, 1.0), total_events=10, seed=3)
    trajectory = simulate(spec, {"wilson": WILSON}, cadence=3)
    assert [s.event_index for s in trajectory.snapshots] == [3, 6, 9, 10]
    aligned = simulate(spec_of(("a", 0.5, 1.0), total_events=9, seed=3),
                       {"wilson": WILSON}, cadence=3)
    assert [s.event_index for s in aligned.snapshots] == [3, 6, 9]


def test_vote_conservation():
    spec = spec_of(("a", 0.3, 1.0), ("b", 0.8, 2.5), ("c", 0.5, 0.5),
                   total_events=1234, seed=99)
    trajectory = simulate(spec, {"wilson": WILSON}, cadence=200)
    total = sum(e.tally.n for e in trajectory.final_state.entries())
    assert total == 1234


def test_snapshots_match_independent_prefix_replay():
    spec = spec_of(("a", 0.4, 1.0), ("b", 0.9, 3.0), total_events=200, seed=5)
    trajectory = simulate(spec, {"wilson": WILSON}, cadence=70)
    events = generate_events(spec)
    for snap in trajectory.snapshots:
        fresh = QuestionState("sim")
        for event in events[: snap.event_index]:
            fresh.apply_event(event)
        ranked = snap.rankings["wilson"]
        rebuilt = fresh.rank(WILSON)
        assert rebuilt.ids() == ranked.ids()
        assert [b.combined for _, b in rebuilt.entries] == [
            b.combined for _, b in ranked.entries
        ]
        assert rebuilt.maxima == ranked.maxima


def test_controversial_heavy_answer_splits_the_scorers():
    spec = spec_of(("controversial", 0.5, 10.0), ("unanimous", 1.0, 1.0),
                   total_events=10_000, seed=2024)
    trajectory = simulate(spec, {"wilson": WILSON, "improved": BLEND}, cadence=10_000)
    final = trajectory.snapshots[-1].rankings
    assert final["wilson"].ids()[0] == "unanimous"
    assert final["improved"].ids()[0] == "controversial"


def test_simulate_validates_inputs():
    spec = spec_of(("a", 0.5, 1.0))
    with pytest.raises(ValueError):
        simulate(spec, {}, cadence=10)
    with pytest.raises(ValueError):
        simulate(spec, {"wilson": WILSON}, cadence=0)
    with pytest.raises(ValueError):
        simulate(spec, {"bad": ScoringConfig(p_weight=2.0)}, cadence=10)


# (up_probability, arrival_weight) per profile, and the stream seed
_ORACLE_CASES = {
    "one-profile": ([(0.5, 1.0)], 0),
    "tied": ([((i + 0.5) / 7, 2.5) for i in range(7)], 1),
    "ratio-1e-12": ([(0.2, 1.0), (0.7, 1e-12), (0.5, 1.0), (0.9, 1e-12)], 2),
    "ratio-1e12": ([(0.4, 1e12), (0.6, 1.0), (0.1, 1e-12), (0.8, 3.0)], 3),
    "sum-overflows": ([(0.3, 1.0), (0.6, 1e308), (0.9, 1e308), (0.5, 2.0)], 4),
    "negative-seed": ([(0.3, 1.0), (0.6, 2.0), (0.9, 0.5)], -12345),
    "seed-2**64+k": ([(0.3, 1.0), (0.6, 2.0), (0.9, 0.5)], 2**64 + 7),
    "certain-votes": ([(0.0, 1.0), (1.0, 2.0), (0.0, 0.5), (1.0, 1.0)], 5),
}
_ORACLE_EVENTS = 150


@pytest.mark.parametrize("block", [None, 1, 5], ids=["block-default", "block-1", "block-5"])
@pytest.mark.parametrize("cadence", [1, 7, _ORACLE_EVENTS, _ORACLE_EVENTS + 1000])
@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_simulate_matches_per_event_oracle(monkeypatch, case, cadence, block):
    if block is not None:
        monkeypatch.setattr(importlib.import_module("spotrank.simulate"), "_DRAW_BLOCK", block)
    profiles, seed = _ORACLE_CASES[case]
    spec = spec_of(*((f"p{i}", up, w) for i, (up, w) in enumerate(profiles)),
                   total_events=_ORACLE_EVENTS, seed=seed)
    scorers = {"wilson": WILSON, "blend": BLEND}
    assert generate_events(spec) == generate_events_linear(spec)

    snapshots, state = helpers.simulate_reference(spec, scorers, cadence)
    trajectory = simulate(spec, scorers, cadence)
    assert [(snap.event_index, dict(snap.rankings)) for snap in trajectory.snapshots] == snapshots
    final = trajectory.final_state
    # tallies, creation order, maxima and event count
    assert final.snapshot() == state.snapshot()
    assert final.recompute_maxima() == helpers.brute_maxima(final.entries())


# a vote count: small ones tie often; two near 2**52 stay below 2**53 together
_COUNT = st.one_of(st.integers(0, 6), st.integers(0, 10**6), st.integers(2**52 - 3, 2**52 - 1))
# a tally of 2**53 - 1 votes, the most a stream can give one answer (StreamSpec)
_TOP_TALLY = st.integers(0, 2**53 - 1).map(lambda up: (up, 2**53 - 1 - up))


def _bits(values):
    return [float(v).hex() for v in values]  # -0.0 and 0.0 differ


@pytest.mark.parametrize("kind, transform, variant, bound", list(product(
    SiKind, [LINEAR, LOG10, EXP, poly(2.5)], WholeSiVariant, Bound)))
@settings(max_examples=12, deadline=None)
@given(counts=st.lists(st.one_of(st.tuples(_COUNT, _COUNT), _TOP_TALLY), min_size=1, max_size=25),
       p_weight=st.sampled_from([0.0, 0.5, 1.0]),
       # a config stores an int z as a float, so a large one squares as a float does
       z=st.sampled_from([0.0, 1.0, 2.0, 2, 10**10 + 1]),
       floor=st.integers(1, 12))
@example(counts=[(0, 0), (0, 0)], p_weight=1.0, z=2.0, floor=1)  # unvoted, ties
@example(counts=[(0, 3), (0, 0), (3, 0)], p_weight=0.0, z=2.0, floor=1)  # -0.0 scores
@example(counts=[(2**53 - 1, 0), (0, 1)], p_weight=0.5, z=1.0, floor=1)  # just below 2**53
def test_rank_columns_matches_rank_counts(kind, transform, variant, bound, counts, p_weight, z,
                                          floor):
    config = ScoringConfig(z=z, p_weight=p_weight, si_kind=kind, si_transform=transform,
                           bound=bound, n_max_floor=floor, whole_variant=variant)
    order, scored, maxima = _rank_counts(counts, config)
    breakdowns = [scored[key] for key in counts]
    ranking = _rank_columns(np.array([u for u, _ in counts], dtype=np.int64),
                            np.array([d for _, d in counts], dtype=np.int64), config)
    assert (ranking.order, ranking.maxima) == (order, maxima)
    assert _bits(ranking.lower) == _bits(b.wilson.lower for b in breakdowns)
    assert _bits(ranking.upper) == _bits(b.wilson.upper for b in breakdowns)
    assert _bits(ranking.si) == _bits(b.si for b in breakdowns)
    assert _bits(ranking.combined) == _bits(b.combined for b in breakdowns)


def test_generate_events_across_default_draw_blocks():
    block = importlib.import_module("spotrank.simulate")._DRAW_BLOCK
    spec = spec_of(("a", 0.3, 1.0), ("b", 0.6, 2.0), ("c", 0.9, 0.5),
                   total_events=2 * block + 3, seed=77)
    assert generate_events(spec) == generate_events_linear(spec)


# --- kendall tau -------------------------------------------------------------------


def test_identical_rankings_tau_one():
    assert kendall_tau(list("abcde"), list("abcde")) == 1.0


def test_reversed_rankings_tau_minus_one():
    assert kendall_tau(list("abcde"), list("edcba")) == -1.0


def test_single_swap_tau():
    assert kendall_tau(["1", "2", "3", "4"], ["1", "3", "2", "4"]) == pytest.approx(2 / 3)


def test_tau_rejects_mismatched_sets():
    with pytest.raises(RankingMismatchError):
        kendall_tau(["a", "b"], ["a", "c"])
    with pytest.raises(RankingMismatchError):
        kendall_tau(["a", "a"], ["a", "a"])
    with pytest.raises(RankingMismatchError):
        kendall_tau(["a", "b"], ["a", "b", "c"])


def test_tau_rejects_tiny_rankings():
    with pytest.raises(TooFewElementsError):
        kendall_tau(["a"], ["a"])
    with pytest.raises(TooFewElementsError):
        kendall_tau([], [])


def _shuffled(m, seed):
    return random.Random(seed).sample(range(m), m)


# the inversions are counted by insertion up to _BISECT_MAX ids and by merge
# sort above; the examples straddle that threshold
@settings(max_examples=150, deadline=None)
@given(
    perms=st.integers(2, 300).flatmap(
        lambda m: st.tuples(st.permutations(range(m)), st.permutations(range(m)))
    )
)
@example(perms=(_shuffled(_BISECT_MAX - 1, 1), _shuffled(_BISECT_MAX - 1, 2)))
@example(perms=(_shuffled(_BISECT_MAX, 3), _shuffled(_BISECT_MAX, 4)))
@example(perms=(_shuffled(_BISECT_MAX + 1, 5), _shuffled(_BISECT_MAX + 1, 6)))
@example(perms=(list(range(_BISECT_MAX)), list(reversed(range(_BISECT_MAX)))))
def test_tau_matches_pair_count_oracle(perms):
    ranking_a, ranking_b = ([f"id{i}" for i in perm] for perm in perms)
    assert kendall_tau(ranking_a, ranking_b) == kendall_tau_pairs(ranking_a, ranking_b)


@pytest.mark.parametrize("size", [40, _BISECT_MAX + 40], ids=["insertion", "merge-sort"])
def test_grown_snapshot_tau_matches_pair_count_oracle(size):
    # the earlier snapshot ranks a strict subset of the later one's answers,
    # as in a simulate stream; its tau is over the earlier answers
    later = _shuffled(size, size)
    earlier = random.Random(-size).sample(range(size), size - 20)
    fold = _StabilityFold(["s"])
    fold.add({"s": earlier})
    fold.add({"s": later})
    kept = set(earlier)
    expected = kendall_tau_pairs(earlier, [key for key in later if key in kept])
    assert fold.report().per_scorer["s"].mean_adjacent_tau == expected


@settings(max_examples=200)
@given(perm=st.permutations([f"id{i}" for i in range(6)]))
def test_tau_extremes_for_any_permutation(perm):
    identity = [f"id{i}" for i in range(6)]
    assert kendall_tau(perm, perm) == 1.0
    assert kendall_tau(perm, list(reversed(perm))) == -1.0
    assert -1.0 <= kendall_tau(identity, perm) <= 1.0


@given(a=st.permutations(list("abcdefg")), b=st.permutations(list("abcdefg")))
def test_tau_symmetric(a, b):
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-12)


# --- stability report ----------------------------------------------------------------


def test_static_trajectory_reports_perfect_stability():
    spec = spec_of(("only", 1.0, 1.0), total_events=30)
    trajectory = simulate(spec, {"wilson": WILSON, "improved": BLEND}, cadence=10)
    report = stability_report(trajectory)
    for label in ("wilson", "improved"):
        assert report.per_scorer[label].mean_adjacent_tau == 1.0
        assert report.per_scorer[label].rank_one_changes == 0
    assert report.agreement[("wilson", "improved")] == 1.0


def test_report_requires_two_snapshots():
    spec = spec_of(("a", 0.5, 1.0), total_events=5)
    trajectory = simulate(spec, {"wilson": WILSON}, cadence=10)  # single snapshot at 5
    assert len(trajectory.snapshots) == 1
    with pytest.raises(TooFewSnapshotsError):
        stability_report(trajectory)


def test_report_taus_bounded_across_seeds():
    for seed in range(5):
        spec = spec_of(("a", 0.45, 1.0), ("b", 0.55, 1.0), ("c", 0.8, 0.3),
                       total_events=400, seed=seed)
        trajectory = simulate(spec, {"wilson": WILSON, "improved": BLEND}, cadence=40)
        report = stability_report(trajectory)
        for stats in report.per_scorer.values():
            assert -1.0 <= stats.mean_adjacent_tau <= 1.0
            assert 0 <= stats.rank_one_changes <= len(trajectory.snapshots) - 1
        for tau in report.agreement.values():
            assert -1.0 <= tau <= 1.0


def test_report_refuses_a_snapshot_that_drops_an_answer():
    def snapshot(index, ids):
        return TrajectorySnapshot(index, {"s": RankedList(tuple((i, None) for i in ids), None)})

    trajectory = Trajectory((snapshot(0, "abc"), snapshot(1, "ca")), QuestionState("q"), ("s",))
    with pytest.raises(RankingMismatchError):
        stability_report(trajectory)


def test_rank_one_changes_counted():
    spec = spec_of(("a", 0.5, 1.0), ("b", 0.5, 1.0), total_events=600, seed=17)
    trajectory = simulate(spec, {"blend": BLEND}, cadence=20)
    report = stability_report(trajectory)
    tops = [snap.rankings["blend"].ids()[0] for snap in trajectory.snapshots]
    expected = sum(1 for prev, cur in zip(tops, tops[1:]) if prev != cur)
    assert report.per_scorer["blend"].rank_one_changes == expected


_POOL = [f"id{i}" for i in range(9)]


@st.composite
def _trajectories(draw):
    """One or three scorers over 1 to 40 snapshots; each snapshot ranks the
    answers that have appeared so far, which grow mid-stream, so adjacent
    snapshots may not rank the same set."""
    labels = draw(st.sampled_from([("only",), ("a", "b", "c")]))
    snapshots = []
    size = 0
    for index in range(draw(st.integers(1, 40))):
        size = draw(st.integers(size, len(_POOL)))
        rankings = {label: RankedList(tuple((answer_id, None) for answer_id in
                                            draw(st.permutations(_POOL[:size]))), None)
                    for label in labels}
        snapshots.append(TrajectorySnapshot(index, rankings))
    return Trajectory(tuple(snapshots), QuestionState("q"), labels)


@settings(max_examples=300, deadline=None)
@given(trajectory=_trajectories())
def test_stability_fold_matches_list_oracle(trajectory):
    if len(trajectory.snapshots) < 2:
        for report in (stability_report, helpers.stability_report_reference):
            with pytest.raises(TooFewSnapshotsError):
                report(trajectory)
        return
    # repr spells every float exactly, -0.0 included.  stability_report runs the
    # fold the CLI runs, which the CLI feeds answer positions in place of ids
    expected = repr(helpers.stability_report_reference(trajectory))
    assert repr(stability_report(trajectory)) == expected


_STABILITY_STUDY = Path(__file__).resolve().parent.parent / "scripts" / "stability_study.py"


def test_stability_study_prints_a_row_per_scorer():
    result = subprocess.run([sys.executable, str(_STABILITY_STUDY), "--events", "2000",
                             "--cadence", "200"], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    rows = [line.split("  ")[0] for line in result.stdout.splitlines()
            if line.startswith(("wilson (P=1) ", "blend P="))]
    assert rows == ["wilson (P=1)", "blend P=0.75", "blend P=0.5", "blend P=0.25"]


@pytest.mark.parametrize("flags", [["--events", "300"], ["--events", "200", "--cadence", "200"],
                                   ["--cadence", "0"]])
def test_stability_study_refuses_too_few_snapshots(flags):
    result = subprocess.run([sys.executable, str(_STABILITY_STUDY), *flags],
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("stability_study.py: error: ")
