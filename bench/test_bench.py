"""Tests of the benchmark itself: the checker catches broken outputs, the
tracer leaves the package as it found it, and the inputs are seeded.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def spotrank(*argv: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "spotrank", *argv], cwd=cwd, env=env,
                          check=True, capture_output=True, text=True).stdout


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "RANK_TALLIES", 3000)
    monkeypatch.setattr(workloads, "REPLAY_EVENTS", 6000)
    monkeypatch.setattr(workloads, "REPLAY_QUESTIONS", 50)
    monkeypatch.setattr(workloads, "SWEEP_RANGE", 30)
    monkeypatch.setattr(workloads, "SIM_EVENTS", 3000)
    monkeypatch.setattr(workloads, "SIM_CADENCE", 250)


def run_workload(name: str, tmp_path: Path):
    work = tmp_path / name
    work.mkdir()
    inputs = workloads.MAKERS[name](7, work)
    stdout = work / "stdout.txt"
    stdout.write_text(spotrank(*inputs.argv, cwd=work), encoding="utf-8")
    return inputs, stdout


@pytest.mark.parametrize("name", workloads.MAKERS)
def test_seed_code_passes_the_checker(small, tmp_path, name):
    inputs, stdout = run_workload(name, tmp_path)
    assert checker.check(name, inputs.truth, stdout) == []
    minimal = tmp_path / "minimal.txt"
    minimal.write_text(spotrank(*inputs.minimal_argv, cwd=tmp_path / name), encoding="utf-8")
    assert checker.check(name, inputs.minimal_truth, minimal) == []


def nudge_12th_digit(x: float) -> float:
    return x + 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def swap_rows(lines):
    rows = [json.loads(line) for line in lines]
    i = next(i for i in range(len(rows) - 1) if rows[i]["combined"] - rows[i + 1]["combined"] > 1e-6)
    rows[i], rows[i + 1] = dict(rows[i + 1], rank=rows[i]["rank"]), dict(rows[i], rank=rows[i + 1]["rank"])
    return [json.dumps(row) + "\n" for row in rows]


def perturb_score(lines):
    rows = [json.loads(line) for line in lines]
    row = next(r for r in rows if 0.1 < abs(r["combined"]) < 0.9)
    row["combined"] = nudge_12th_digit(row["combined"])
    return [json.dumps(r) + "\n" for r in rows]


def drop_row(lines):
    rows = [json.loads(line) for line in lines]
    del rows[len(rows) // 2]
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return [json.dumps(row) + "\n" for row in rows]


@pytest.mark.parametrize("name", ["rank-flat", "replay-churn"])
@pytest.mark.parametrize("edit", [swap_rows, perturb_score, drop_row])
def test_checker_catches_broken_rankings(small, tmp_path, name, edit):
    inputs, stdout = run_workload(name, tmp_path)
    rewrite(stdout, edit)
    assert checker.check(name, inputs.truth, stdout)


def test_checker_catches_wrong_tally(small, tmp_path):
    inputs, stdout = run_workload("rank-flat", tmp_path)

    def bump_up(lines):
        row = json.loads(lines[5])
        row["up"] += 1
        return lines[:5] + [json.dumps(row) + "\n"] + lines[6:]

    rewrite(stdout, bump_up)
    assert checker.check("rank-flat", inputs.truth, stdout)


def test_checker_catches_perturbed_grid_cell(small, tmp_path):
    inputs, stdout = run_workload("grid-sweep", tmp_path)
    path = checker.output_files("grid-sweep", inputs.truth, stdout)[1]

    def nudge_cell(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("7,3,"))
        u, d, score = lines[i].strip().split(",")
        lines[i] = f"{u},{d},{nudge_12th_digit(float(score)):.12g}\n"
        return lines

    rewrite(path, nudge_cell)
    assert checker.check("grid-sweep", inputs.truth, stdout)


def test_checker_catches_perturbed_simulation(small, tmp_path):
    inputs, stdout = run_workload("simulate-drift", tmp_path)
    path = Path(inputs.truth["trajectory"])

    def perturb_last(lines):
        snap = json.loads(lines[-1])
        entry = next(e for e in snap["ranking"] if 0.1 < e["combined"] < 0.9)
        entry["combined"] = nudge_12th_digit(entry["combined"])
        return lines[:-1] + [json.dumps(snap, sort_keys=True) + "\n"]

    rewrite(path, perturb_last)
    assert checker.check("simulate-drift", inputs.truth, stdout)


def test_rounds_to_accepts_ulps_and_rejects_the_12th_digit():
    value = 0.123456789012345
    printed = float(f"{value:.12g}")
    assert checker.rounds_to(printed, math.nextafter(value, 1.0))
    assert not checker.rounds_to(nudge_12th_digit(printed), value)
    assert checker.rounds_to(0.0, 1e-17) and not checker.rounds_to(1e-12, 0.0)


def test_simulated_stream_matches_the_package():
    from spotrank.simulate import AnswerProfile, StreamSpec, generate_events

    profiles = [("a", 0.3, 1.5), ("b", 0.9, 0.25), ("c", 0.5, 3.0)]
    spec = StreamSpec(tuple(AnswerProfile(*p) for p in profiles), 500, 99)
    tallies: dict[str, list[int]] = {}
    for event in generate_events(spec):
        tally = tallies.setdefault(event.answer_id, [0, 0])
        tally[0] += event.up_delta
        tally[1] += event.down_delta
    (_, final), = checker.simulated_tallies(profiles, 500, 99, 500)
    assert final == [(a, up, down) for a, (up, down) in tallies.items()]


def test_kendall_tau_matches_pair_count():
    from spotrank.simulate import kendall_tau

    a = [f"x{i}" for i in range(40)]
    b = a[::3] + a[1::3] + a[2::3]
    assert checker.kendall_tau(a, b) == pytest.approx(kendall_tau(a, b), abs=1e-15)


@pytest.mark.parametrize("name", workloads.MAKERS)
def test_inputs_follow_the_seed(small, tmp_path, name):
    made = []
    for seed, tag in ((3, "a"), (3, "b"), (4, "c")):
        work = tmp_path / tag
        work.mkdir()
        inputs = workloads.MAKERS[name](seed, work)
        made.append((inputs.argv, inputs.truth, sorted(p.read_bytes() for p in work.iterdir())))
    same_dir = [json.loads(json.dumps(m[:2]).replace(str(tmp_path / tag), str(tmp_path / "a")))
                for m, tag in zip(made, "abc")]
    assert same_dir[0] == same_dir[1] and made[0][2] == made[1][2]
    assert same_dir[0] != same_dir[2]


def test_tracer_restores_every_name():
    import spotrank.cli as cli
    from spotrank.state import QuestionState

    before = (cli.rank_answers, cli.emit_csv, QuestionState.apply_event)
    t = tracer.Tracer(run_id=1)
    t.install()
    assert cli.rank_answers is not before[0]
    t.restore()
    assert (cli.rank_answers, cli.emit_csv, QuestionState.apply_event) == before
    assert QuestionState.__dict__["apply_event"] is before[2]


def test_self_times_account_for_the_main_span():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["state.apply_event", 1.0, 2.0, 0, 1],
        ["state.recompute_maxima", 1.2, 1.7, 1, 1],
        ["state.rank_answers", 3.0, 6.0, 0, 1],
        ["scoring.combined_score", 3.5, 4.0, 3, 1],
    ]
    summary = tracer.summarize(spans, Counter(retractions=2), answers=5)
    assert summary["trace.main_s"] == 10.0
    assert summary["trace.layers_s"] == 4.0
    assert summary["cli.self_s"] + summary["trace.layers_s"] == summary["trace.main_s"]
    assert summary["cli.ingest_s"] == 1.0
    assert summary["cli.write_s"] == 4.0  # self time from 3.0 on
    assert summary["state.rescans"] == 1 and summary["state.rescan_ratio"] == 0.5


def test_merge_adds_runs_and_pools_latencies():
    def trace(offset, durations):
        spans = [["cli.main", offset, offset + 10.0, -1, 1]]
        spans += [["state.apply_event", offset + 1.0 + i, offset + 1.0 + i + d, 0, 1]
                  for i, d in enumerate(durations)]
        return {"import_s": 0.25, "answers": 3, "counters": {"retractions": 1}, "spans": spans}

    merged = tracer.merge([trace(0.0, [0.1, 0.2]), trace(100.0, [0.3])])
    assert merged["cli.import_s"] == 0.5 and merged["state.peak_answers"] == 6
    assert merged["trace.main_s"] == 20.0
    assert merged["cli.self_s"] + merged["trace.layers_s"] == pytest.approx(20.0)
    assert merged["cli.ingest_s"] == 2.0
    assert merged["state.apply_event_calls"] == 3 and merged["state.retractions"] == 2
    assert merged["state.apply_event_us_p50"] == pytest.approx(0.2e6)


def test_every_part_runs_in_one_workload():
    parts = [part for workload in run.WORKLOADS.values() for part in workload]
    assert sorted(parts) == sorted(workloads.MAKERS)


def test_child_rss_is_its_own(tmp_path):
    grow = "b = bytearray(120 << 20); b[::4096] = b'x' * len(b[::4096])"
    with run.Spawner() as spawner:
        big = spawner.run([sys.executable, "-c", grow], tmp_path, tmp_path / "big.txt")
        small = spawner.run([sys.executable, "-c", "pass"], tmp_path, tmp_path / "small.txt")
    assert big["returncode"] == small["returncode"] == 0
    assert big["max_rss_kb"] > 120 << 10
    assert small["max_rss_kb"] < 60 << 10


def test_rounds_to_allows_dust_at_a_rounding_boundary():
    # the package printed ...557 for a value this checker computes a few
    # ulps above the ...5575 boundary
    assert checker.rounds_to(0.00885008625557, 0.008850086255575013)
    assert not checker.rounds_to(0.00885008625556, 0.008850086255575013)
