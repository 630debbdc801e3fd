"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from spotrank.cli import main as cli_main
from spotrank.grids import (
    AverageRatingScorer,
    GridSpec,
    ImprovedScorer,
    WilsonScorer,
    emit_csv,
    grid_scores,
)
from spotrank.scoring import (
    EXP,
    LINEAR,
    LOG10,
    Maxima,
    ScoringConfig,
    SiKind,
    VoteTally,
    combined_range,
    combined_score,
    effective_maxima,
    poly,
    si_range,
    spotlight_index,
    wilson_interval,
)
from spotrank.state import AnswerEntry, QuestionState, VoteEvent, rank_answers

from helpers import wilson_bisect_arrays


def verdict(number, name, ok):
    print(f"[acceptance] criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_spotlight_worked_example():
    maxima = Maxima(100, 100, 100)
    values = [spotlight_index(VoteTally(n, 0), maxima, SiKind.WHOLE) for n in (1, 50, 100)]
    verdict(1, "whole/linear spotlight worked example", values == [0.01, 0.50, 1.00])


def test_criterion_02_logarithmic_decades():
    maxima = Maxima(9999, 9999, 9999)
    expected = {9: 0.25, 99: 0.50, 999: 0.75, 9999: 1.00}
    ok = all(
        abs(spotlight_index(VoteTally(n, 0), maxima, SiKind.WHOLE, LOG10) - want) <= 1e-12
        for n, want in expected.items()
    )
    verdict(2, "log spotlight decade ladder", ok)


def test_criterion_03_wilson_oracle_equivalence():
    started = time.perf_counter()
    grid_u, grid_d = np.meshgrid(np.arange(0, 51), np.arange(0, 51), indexing="ij")
    u = grid_u.ravel().astype(np.float64)
    d = grid_d.ravel().astype(np.float64)
    voted = (u + d) > 0
    worst = 0.0
    for z in (0.5, 1.0, 1.96, 2.0, 5.0):
        oracle_lower, oracle_upper = wilson_bisect_arrays(u[voted], d[voted], z)
        computed = [
            wilson_interval(VoteTally(int(uu), int(dd)), z)
            for uu, dd in zip(u[voted], d[voted])
        ]
        lower = np.array([iv.lower for iv in computed])
        upper = np.array([iv.upper for iv in computed])
        worst = max(
            worst,
            float(np.max(np.abs(lower - oracle_lower))),
            float(np.max(np.abs(upper - oracle_upper))),
        )
        no_vote = wilson_interval(VoteTally(0, 0), z)
        worst = max(worst, abs(no_vote.lower - 0.0), abs(no_vote.upper - 1.0))
    elapsed = time.perf_counter() - started
    print(f"[acceptance]   oracle sweep: worst |delta| = {worst:.3e}, {elapsed:.2f}s")
    verdict(3, "wilson bounds match bisection oracle to 1e-10", worst <= 1e-10 and elapsed < 1.0)


def test_criterion_04_closed_forms():
    worst = 0.0
    for z in (1.0, 2.0, 5.0, 10.0):
        zz = z * z
        for n in range(1, 1001):
            unanimous = wilson_interval(VoteTally(n, 0), z)
            rejected = wilson_interval(VoteTally(0, n), z)
            worst = max(
                worst,
                abs(unanimous.lower - n / (n + zz)),
                abs(rejected.upper - zz / (n + zz)),
            )
    verdict(4, "extreme-proportion closed forms to 1e-12", worst <= 1e-12)


def test_criterion_05_blend_degeneracies():
    maxima = Maxima(2000, 2000, 2000)

    full_weight = grid_scores(
        GridSpec(100, 100, maxima, ImprovedScorer(ScoringConfig(z=2.0, p_weight=1.0)), 1)
    )
    original = grid_scores(GridSpec(100, 100, maxima, WilsonScorer(2.0), 1))
    identical_to_wilson = np.array_equal(full_weight.scores, original.scores)

    zero_weight = grid_scores(
        GridSpec(100, 100, maxima, ImprovedScorer(ScoringConfig(z=2.0, p_weight=0.0)), 1)
    )
    U = zero_weight.u_values.astype(np.float64)[:, None]
    D = zero_weight.d_values.astype(np.float64)[None, :]
    spotlight_plane = np.max(np.abs(zero_weight.scores - (U + D) / 2000)) <= 1e-12

    proportion = grid_scores(
        GridSpec(100, 100, maxima, ImprovedScorer(ScoringConfig(z=0.0, p_weight=1.0)), 1)
    )
    average = grid_scores(GridSpec(100, 100, maxima, AverageRatingScorer(), 1))
    n_positive = (U + D) > 0
    matches_average = np.array_equal(
        proportion.scores[n_positive], average.scores[n_positive]
    )

    verdict(
        5,
        "P=1 / P=0 / z=0 grid degeneracies over 101x101",
        identical_to_wilson and spotlight_plane and matches_average,
    )


def test_criterion_06_range_theorems():
    samples = 100_000
    rng = np.random.default_rng(20240815)
    ups = rng.integers(0, 2000, samples)
    downs = rng.integers(0, 2000, samples)
    extra_n = rng.integers(0, 1000, samples)
    extra_u = rng.integers(0, 1000, samples)
    extra_d = rng.integers(0, 1000, samples)
    floors = rng.integers(1, 20, samples)
    z_values = rng.choice(np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0]), samples)
    p_weights = rng.random(samples)
    poly_exponents = rng.choice(np.array([0.5, 1.0, 2.0, 3.0]), samples)

    cases = list(
        zip(
            ups.tolist(), downs.tolist(), extra_n.tolist(), extra_u.tolist(),
            extra_d.tolist(), floors.tolist(), z_values.tolist(),
            p_weights.tolist(), poly_exponents.tolist(),
        )
    )

    si_violations = 0
    combined_violations = 0
    for kind in SiKind:
        for transform_name in ("linear", "log", "exp", "poly"):
            for up, down, en, eu, ed, floor, z, p_weight, exponent in cases:
                transform = {
                    "linear": LINEAR, "log": LOG10, "exp": EXP, "poly": poly(exponent),
                }[transform_name]
                tally = VoteTally(up, down)
                maxima = effective_maxima(up + down + en, up + eu, down + ed, floor)
                config = ScoringConfig(
                    z=z, p_weight=p_weight, si_kind=kind, si_transform=transform
                )
                b = combined_score(tally, maxima, config)
                si_lo, si_hi = si_range(kind, transform)
                if not si_lo <= b.si <= si_hi:
                    si_violations += 1
                lo, hi = combined_range(kind, p_weight)
                if not lo <= b.combined <= hi:
                    combined_violations += 1
    print(
        f"[acceptance]   range fuzz: {len(cases)} samples x 24 combos, "
        f"{si_violations} SI / {combined_violations} combined violations"
    )
    verdict(6, "SI and combined ranges, zero violations", si_violations == 0 and combined_violations == 0)


def test_criterion_07_scaling_consistency():
    grids = [
        grid_scores(
            GridSpec(
                250 * k,
                250 * k,
                Maxima(500 * k, 500 * k, 500 * k),
                ImprovedScorer(ScoringConfig(z=2.0, p_weight=0.0)),  # pure linear SI
                step=k,
            )
        )
        for k in (2, 3, 4)  # u, d ranges 500 / 750 / 1000 with n_max 1000 / 1500 / 2000
    ]
    ok = np.array_equal(grids[0].scores, grids[1].scores) and np.array_equal(
        grids[1].scores, grids[2].scores
    )
    verdict(7, "linear-SI plane identical under consistent scaling", ok)


def test_criterion_08_online_coherence():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    state = QuestionState("q")
    shadow: dict[str, list[int]] = {}
    mismatches = 0
    for step in range(10_000):
        answer = f"a{rng.integers(0, 100)}"
        counts = shadow.get(answer, [0, 0])
        if rng.random() < 0.25 and (counts[0] > 0 or counts[1] > 0):
            side = 0 if counts[0] > 0 else 1
            up_delta, down_delta = (-1, 0) if side == 0 else (0, -1)
        else:
            up_delta = int(rng.integers(0, 4))
            down_delta = int(rng.integers(0, 4))
            if up_delta == 0 and down_delta == 0:
                up_delta = 1
        event = VoteEvent("q", answer, up_delta, down_delta, step)
        state.apply_event(event)
        counts = shadow.setdefault(answer, [0, 0])
        counts[0] += up_delta
        counts[1] += down_delta
        brute = (
            max((c[0] + c[1] for c in shadow.values()), default=0),
            max((c[0] for c in shadow.values()), default=0),
            max((c[1] for c in shadow.values()), default=0),
        )
        if state.recompute_maxima() != brute:
            mismatches += 1

    # replay/batch equivalence on a non-negative stream
    rng = np.random.default_rng(7)
    online = QuestionState("batch")
    totals: dict[str, list[int]] = {}
    for step in range(3000):
        answer = f"b{rng.integers(0, 50)}"
        up_delta = int(rng.integers(0, 3))
        down_delta = int(rng.integers(0, 3))
        if up_delta == 0 and down_delta == 0:
            down_delta = 1
        online.apply_event(VoteEvent("batch", answer, up_delta, down_delta, step))
        counts = totals.setdefault(answer, [0, 0])
        counts[0] += up_delta
        counts[1] += down_delta
    config = ScoringConfig(z=2.0, p_weight=0.5)
    replayed = online.rank(config)
    batch_entries = [
        AnswerEntry(answer_id, VoteTally(up, down), seq)
        for seq, (answer_id, (up, down)) in enumerate(
            (e.answer_id, tuple(totals[e.answer_id])) for e in online.entries()
        )
    ]
    batched = rank_answers(batch_entries, config)
    equivalent = replayed.ids() == batched.ids() and all(
        a[1].combined == b[1].combined for a, b in zip(replayed.entries, batched.entries)
    )

    elapsed = time.perf_counter() - started
    print(f"[acceptance]   online coherence: {mismatches} cache mismatches, {elapsed:.2f}s")
    verdict(8, "cache coherence + replay/batch equivalence", mismatches == 0 and equivalent and elapsed < 5.0)


def test_criterion_09_controversial_reordering():
    entries = [
        AnswerEntry("controversial", VoteTally(500, 500), 0),
        AnswerEntry("unanimous", VoteTally(10, 0), 1),
    ]
    pure = rank_answers(entries, ScoringConfig(z=2.0, p_weight=1.0))
    blend = rank_answers(entries, ScoringConfig(z=2.0, p_weight=0.5))
    ok = pure.ids() == ("unanimous", "controversial") and blend.ids() == (
        "controversial",
        "unanimous",
    )
    verdict(9, "controversial answer reorders between P=1 and P=0.5", ok)


def test_criterion_10_full_resolution_grid_performance(tmp_path):
    spec = GridSpec(
        1000,
        1000,
        Maxima(2000, 2000, 2000),
        ImprovedScorer(ScoringConfig(z=2.0, p_weight=0.5)),
        1,
    )
    started = time.perf_counter()
    grid = grid_scores(spec)
    emit_csv(grid, tmp_path / "full.csv")
    elapsed = time.perf_counter() - started
    with open(tmp_path / "full.csv", encoding="utf-8") as fh:
        rows = sum(1 for line in fh)
    print(f"[acceptance]   1001x1001 grid + CSV in {elapsed:.2f}s ({rows} lines)")
    verdict(10, "full-resolution grid and CSV under 5s", elapsed < 5.0 and grid.scores.shape == (1001, 1001))


def test_criterion_11_simulation_determinism(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text(
        json.dumps({"answer_id": "controversial", "up_probability": 0.5, "arrival_weight": 10.0})
        + "\n"
        + json.dumps({"answer_id": "unanimous", "up_probability": 1.0, "arrival_weight": 1.0})
        + "\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("first", "second"):
        directory = tmp_path / name
        directory.mkdir()
        rc = cli_main([
            "simulate", str(profiles), "--events", "2000", "--seed", "31337",
            "--cadence", "250",
            "--trajectory-out", str(directory / "trajectory.jsonl"),
            "--report-out", str(directory / "report.json"),
        ])
        assert rc == 0
        outputs.append(
            (
                (directory / "trajectory.jsonl").read_bytes(),
                (directory / "report.json").read_bytes(),
            )
        )
    capsys.readouterr()
    verdict(11, "cmd_simulate byte-identical across runs", outputs[0] == outputs[1])
