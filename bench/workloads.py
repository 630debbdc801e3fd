"""Seeded inputs for the spotrank benchmark, one maker per workload part.

``run.py`` pairs the parts into its workloads.  Each ``make_<part>``
function writes the files one ``spotrank`` run reads into a work directory
and returns a :class:`Workload`: the CLI arguments of the measured run, the
arguments of a minimal run on a one-line input (the set-up probe), the
ground truth the output checker compares against, and the input properties
that are printed with every result.  The same seed always gives
byte-identical inputs.  Sizes are fixed per part; the seed changes only
identities, orderings and values, so the amount of work stays the same from
seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

RANK_TALLIES = 60_000
REPLAY_EVENTS = 240_000
REPLAY_QUESTIONS = 2_000
REPLAY_RETRACTION_SHARE = 0.05
SWEEP_RANGE = 400
SWEEP_TRANSFORMS = ("linear", "log", "exp", "poly")
SWEEP_P_VALUES = 5
SIM_PROFILES = 200
SIM_EVENTS = 100_000
SIM_CADENCE = 1_000


@dataclass
class Workload:
    """Everything one workload run needs, made from one seed."""

    name: str
    argv: list[str]  # spotrank arguments of the measured run
    minimal_argv: list[str]  # same subcommand on a minimal valid input
    unit: str  # what ``units`` counts
    units: int
    truth: dict[str, Any]  # ground truth for the measured run's outputs
    minimal_truth: dict[str, Any]
    props: dict[str, Any]  # input properties, printed with every result


def _write_jsonl(path: Path, rows) -> int:
    text = "".join(json.dumps(row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


# --- rank-flat ---------------------------------------------------------------

RANK_FLAGS = ["--kind", "net", "--transform", "log"]


def make_rank_flat(seed: int, work: Path) -> Workload:
    """One question of heavy-tailed tallies: most answers have a few votes,
    a few have tens of thousands, and up-share varies per answer."""
    rng = np.random.default_rng([seed, 1])
    totals = np.minimum(np.floor(rng.pareto(1.1, RANK_TALLIES) * 4), 200_000).astype(np.int64)
    ups = rng.binomial(totals, rng.beta(4.0, 2.0, RANK_TALLIES))
    tallies = [(f"a{i:06d}", int(u), int(t - u)) for i, (u, t) in enumerate(zip(ups, totals))]
    path = work / "tallies.jsonl"
    size = _write_jsonl(path, ({"answer_id": a, "up": u, "down": d} for a, u, d in tallies))
    minimal = work / "tallies-min.jsonl"
    _write_jsonl(minimal, [{"answer_id": "a0", "up": 3, "down": 1}])
    return Workload(
        name="rank-flat",
        argv=["rank", str(path), *RANK_FLAGS],
        minimal_argv=["rank", str(minimal), *RANK_FLAGS],
        unit="tallies",
        units=len(tallies),
        truth={"tallies": tallies},
        minimal_truth={"tallies": [("a0", 3, 1)]},
        props={
            "lines": len(tallies),
            "questions": 1,
            "answers": len(tallies),
            "largest_question": len(tallies),
            "retraction_share": 0.0,
            "bytes": size,
            "max_votes": int(totals.max()),
        },
    )


# --- replay-churn ------------------------------------------------------------


def make_replay_churn(seed: int, work: Path) -> Workload:
    """A ts-sorted event log over Zipf-skewed questions and answers.

    Question popularity falls off as 1/rank^1.1, so a few hot questions hold
    thousands of answers; within a question, answer popularity is
    log-uniform over its pool.  A fixed 5% of positions are retractions of
    an earlier vote on a popular answer, which is often a maximum holder.
    """
    rng = np.random.default_rng([seed, 2])
    q_weights = 1.0 / np.arange(1, REPLAY_QUESTIONS + 1) ** 1.1
    q_weights /= q_weights.sum()
    pools = np.maximum(2, np.round(q_weights * REPLAY_EVENTS / 12)).astype(np.int64)
    q_names = rng.permutation(REPLAY_QUESTIONS)  # popularity rank -> question number

    q_rank = rng.choice(REPLAY_QUESTIONS, size=REPLAY_EVENTS, p=q_weights)
    pool = pools[q_rank]
    a_rank = np.minimum(np.floor(np.exp(rng.random(REPLAY_EVENTS) * np.log(pool + 1))) - 1, pool - 1)
    a_rank = a_rank.astype(np.int64)
    direction = rng.random(REPLAY_EVENTS)
    n_retract = int(REPLAY_EVENTS * REPLAY_RETRACTION_SHARE)
    retract_at = set(rng.choice(np.arange(REPLAY_EVENTS // 100, REPLAY_EVENTS),
                                size=n_retract, replace=False).tolist())

    tallies: dict[tuple[int, int], list[int]] = {}
    order: dict[int, list[int]] = {}  # question -> answers in creation order
    lines = []
    retractions = 0
    ts = 1_600_000_000_000
    for i, (q, a, v) in enumerate(zip(q_rank.tolist(), a_rank.tolist(), direction.tolist())):
        key = (q, a)
        up_share = 0.15 + 0.8 * ((q * 2654435761 + a * 40503) % 1000) / 1000
        tally = tallies.get(key)
        if i in retract_at and tally is not None and tally[0] + tally[1] > 0:
            retract_up = tally[0] > 0 and (tally[1] == 0 or v < up_share)
            du, dd = (-1, 0) if retract_up else (0, -1)
            retractions += 1
        else:
            du, dd = (1, 0) if v < up_share else (0, 1)
        if tally is None:
            tally = tallies[key] = [0, 0]
            order.setdefault(q, []).append(a)
        tally[0] += du
        tally[1] += dd
        ts += 1 + (i % 7 == 0)
        lines.append(
            f'{{"question_id": "q{q_names[q]}", "answer_id": "q{q_names[q]}-a{a}", '
            f'"up_delta": {du}, "down_delta": {dd}, "ts": {ts}}}\n'
        )
    path = work / "events.jsonl"
    text = "".join(lines)
    path.write_text(text, encoding="utf-8")
    minimal = work / "events-min.jsonl"
    _write_jsonl(minimal, [{"question_id": "q0", "answer_id": "q0-a0",
                            "up_delta": 1, "down_delta": 0, "ts": 0}])
    questions = [
        (f"q{q_names[q]}", [(f"q{q_names[q]}-a{a}", *tallies[(q, a)]) for a in answers])
        for q, answers in order.items()
    ]
    return Workload(
        name="replay-churn",
        argv=["replay", str(path)],
        minimal_argv=["replay", str(minimal)],
        unit="events",
        units=REPLAY_EVENTS,
        truth={"questions": questions},
        minimal_truth={"questions": [("q0", [("q0-a0", 1, 0)])]},
        props={
            "lines": REPLAY_EVENTS,
            "questions": len(questions),
            "answers": len(tallies),
            "largest_question": max(len(answers) for _, answers in questions),
            "retraction_share": retractions / REPLAY_EVENTS,
            "bytes": len(text.encode("utf-8")),
        },
    )


# --- grid-sweep --------------------------------------------------------------


def make_grid_sweep(seed: int, work: Path) -> Workload:
    """Five seeded P values x all four transforms on a 401 x 401 grid."""
    rng = np.random.default_rng([seed, 3])
    p_values = sorted(rng.choice(np.arange(1, 1000), size=SWEEP_P_VALUES, replace=False) / 1000)
    n_max = int(rng.integers(2 * SWEEP_RANGE, 3 * SWEEP_RANGE))
    out_dir = work / "grids"
    minimal_dir = work / "grids-min"
    common = ["--scorer", "improved", "--z-values", "2", "--kinds", "whole", "--poly-a", "2"]
    cells = (SWEEP_RANGE + 1) ** 2
    return Workload(
        name="grid-sweep",
        argv=["sweep", "--u-range", str(SWEEP_RANGE), "--d-range", str(SWEEP_RANGE),
              "--n-max", str(n_max), "--p-values", ",".join(f"{p:g}" for p in p_values),
              "--transforms", ",".join(SWEEP_TRANSFORMS), "--out-dir", str(out_dir), *common],
        minimal_argv=["sweep", "--u-range", "1", "--d-range", "1", "--n-max", "2",
                      "--p-values", "0.5", "--transforms", "linear",
                      "--out-dir", str(minimal_dir), *common],
        unit="cells",
        units=cells * len(p_values) * len(SWEEP_TRANSFORMS),
        truth={"out_dir": str(out_dir), "range": SWEEP_RANGE, "n_max": n_max,
               "p_values": p_values, "transforms": SWEEP_TRANSFORMS},
        minimal_truth={"out_dir": str(minimal_dir), "range": 1, "n_max": 2,
                       "p_values": [0.5], "transforms": ("linear",)},
        props={
            "lines": 0,
            "questions": 0,
            "answers": 0,
            "largest_question": 0,
            "retraction_share": 0.0,
            "bytes": 0,
            "grids": len(p_values) * len(SWEEP_TRANSFORMS),
            "cells_per_grid": cells,
        },
    )


# --- simulate-drift ----------------------------------------------------------


def make_simulate_drift(seed: int, work: Path) -> Workload:
    """200 answer profiles, 100k events, a snapshot every 1000.

    Arrival weights follow a Pareto(1.5) tail and are the same for every seed,
    in one fixed order: the program picks an answer by a linear scan over
    the weights, so their order sets the cost of the stream.  The seed draws
    the up-probabilities and the stream seed.
    """
    rng = np.random.default_rng([seed, 4])
    quantiles = (np.arange(SIM_PROFILES) + 0.5) / SIM_PROFILES
    weights = ((1 - quantiles) ** (-1 / 1.5) - 1 + 0.05)[np.random.default_rng(0).permutation(SIM_PROFILES)]
    profiles = [
        (f"p{i:03d}", round(float(up), 6), round(float(w), 6))
        for i, (up, w) in enumerate(zip(rng.uniform(0.05, 0.95, SIM_PROFILES), weights))
    ]
    stream_seed = int(rng.integers(0, 2**63))
    path = work / "profiles.jsonl"
    size = _write_jsonl(path, ({"answer_id": a, "up_probability": p, "arrival_weight": w}
                               for a, p, w in profiles))
    minimal = work / "profiles-min.jsonl"
    _write_jsonl(minimal, [{"answer_id": "p0", "up_probability": 0.5, "arrival_weight": 1.0}])

    def outputs(tag: str) -> list[str]:
        return ["--trajectory-out", str(work / f"trajectory{tag}.jsonl"),
                "--report-out", str(work / f"report{tag}.json")]

    truth = {"profiles": profiles, "events": SIM_EVENTS, "seed": stream_seed,
             "cadence": SIM_CADENCE, "trajectory": str(work / "trajectory.jsonl"),
             "report": str(work / "report.json")}
    return Workload(
        name="simulate-drift",
        argv=["simulate", str(path), "--events", str(SIM_EVENTS), "--seed", str(stream_seed),
              "--cadence", str(SIM_CADENCE), *outputs("")],
        minimal_argv=["simulate", str(minimal), "--events", "2", "--seed", "0",
                      "--cadence", "1", *outputs("-min")],
        unit="events",
        units=SIM_EVENTS,
        truth=truth,
        minimal_truth={"profiles": [("p0", 0.5, 1.0)], "events": 2, "seed": 0, "cadence": 1,
                       "trajectory": str(work / "trajectory-min.jsonl"),
                       "report": str(work / "report-min.json")},
        props={
            "lines": len(profiles),
            "questions": 1,
            "answers": len(profiles),
            "largest_question": len(profiles),
            "retraction_share": 0.0,
            "bytes": size,
            "snapshots": math.ceil(SIM_EVENTS / SIM_CADENCE),
        },
    )


MAKERS = {
    "rank-flat": make_rank_flat,
    "replay-churn": make_replay_churn,
    "grid-sweep": make_grid_sweep,
    "simulate-drift": make_simulate_drift,
}
