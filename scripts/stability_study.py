#!/usr/bin/env python3
"""Compare ranking behaviour of the pure Wilson bound against blended scores.

Simulates a question where a heavily-voted controversial answer (50/50 votes,
high arrival rate) competes with a small unanimous one, then reports how each
scorer ranks them over time and how stable each ranking trajectory is.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spotrank.scoring import ScoringConfig
from spotrank.simulate import AnswerProfile, StreamSpec, simulate, stability_report


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cadence", type=int, default=1000)
    parser.add_argument("--z", type=float, default=2.0)
    args = parser.parse_args()
    # the stability report needs two snapshots: one every --cadence events, and the last
    if args.cadence < 1:
        parser.error("--cadence must be positive")
    if args.events <= args.cadence:
        parser.error("--events must be above --cadence, for at least two snapshots")
    return args


def main() -> int:
    args = parse_args()
    spec = StreamSpec(
        profiles=(
            AnswerProfile("controversial", up_probability=0.5, arrival_weight=10.0),
            AnswerProfile("unanimous", up_probability=1.0, arrival_weight=1.0),
            AnswerProfile("mediocre", up_probability=0.7, arrival_weight=3.0),
        ),
        total_events=args.events,
        seed=args.seed,
    )
    scorers = {
        "wilson (P=1)": ScoringConfig(z=args.z, p_weight=1.0),
        "blend P=0.75": ScoringConfig(z=args.z, p_weight=0.75),
        "blend P=0.5": ScoringConfig(z=args.z, p_weight=0.5),
        "blend P=0.25": ScoringConfig(z=args.z, p_weight=0.25),
    }
    trajectory = simulate(spec, scorers, cadence=args.cadence)
    report = stability_report(trajectory)

    final = trajectory.snapshots[-1]
    print(f"after {final.event_index} events (seed {spec.seed}):\n")
    print(f"{'scorer':<14} {'final ranking':<42} {'mean adj tau':>12} {'top changes':>12}")
    for label in trajectory.scorer_labels:
        ranking = final.rankings[label]
        order = " > ".join(
            f"{answer_id}({breakdown.combined:.3f})" for answer_id, breakdown in ranking.entries
        )
        stats = report.per_scorer[label]
        print(f"{label:<14} {order:<42} {stats.mean_adjacent_tau:>12.3f} {stats.rank_one_changes:>12}")

    print("\nfinal-ranking agreement (Kendall tau):")
    for (label_a, label_b), tau in report.agreement.items():
        print(f"  {label_a:<14} vs {label_b:<14} {tau:>7.3f}")

    tallies = {e.answer_id: e.tally for e in trajectory.final_state.entries()}
    print("\nfinal tallies:")
    for answer_id, tally in sorted(tallies.items()):
        print(f"  {answer_id:<14} up={tally.up:<6} down={tally.down:<6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
