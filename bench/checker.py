"""Independent output checker for the spotrank benchmark.

Nothing here imports spotrank.  The Wilson bound and the spotlight index are
written again, in a different algebraic form from the package's, and every
printed score must be the 12-significant-digit rounding of the value
computed here (a difference of a few ulps in the unrounded value is allowed,
see DUST; anything past 1e-9 is never).  Rankings must have every expected row once,
contiguous ranks, the ground-truth tallies, and non-increasing ``combined``
with the documented tie-breaks: higher up-count, then earlier creation.

Each ``check_*`` function returns a list of human-readable errors, empty
when the output is correct.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
from itertools import accumulate
from pathlib import Path
from typing import Any, Sequence

import numpy as np

ABS_TOL = 1e-9
# Largest allowed |package - checker| before rounding.  The two algebraic
# forms differ by at most 1.5 ulps of 1.0 on every workload; scores are
# blends of terms of magnitude <= 1, so the slack is absolute.
DUST = 1e-15
Z = 2.0
MAX_ERRORS = 5


# --- formulas ------------------------------------------------------------------


def wilson_lower(u: np.ndarray, d: np.ndarray, z: float = Z) -> np.ndarray:
    """Lower Wilson bound in count form: (u + z²/2 - z·sqrt(ud/n + z²/4)) / (n + z²)."""
    u = np.asarray(u, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = u + d
    safe_n = np.where(n > 0, n, 1.0)
    zz = z * z
    lower = (u + zz / 2 - z * np.sqrt(u * d / safe_n + zz / 4)) / (n + zz)
    return np.where(n > 0, np.clip(lower, 0.0, u / safe_n), 0.0)


def spotlight(u: np.ndarray, d: np.ndarray, n_max: int, kind: str, transform: str,
              poly_a: float = 2.0) -> np.ndarray:
    """Spotlight index of the whole (u + d) or net (u - d) kind, n_max already floored."""
    u = np.asarray(u, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    count = u + d if kind == "whole" else u - d
    sign = np.sign(count)
    size = np.abs(count)
    if transform == "linear":
        return count / n_max
    if transform == "log":
        return sign * (np.log1p(size) / np.log1p(n_max))
    if transform == "exp":
        return np.exp(count - n_max)
    if transform == "poly":
        return sign * (size / n_max) ** poly_a
    raise ValueError(f"no checker formula for transform {transform!r}")


def expected_scores(u, d, n_max: int, kind: str, transform: str, p_weight: float,
                    poly_a: float = 2.0):
    """(wilson_lower, si, combined) arrays under one floored n_max."""
    w = wilson_lower(u, d)
    si = spotlight(u, d, n_max, kind, transform, poly_a)
    return w, si, p_weight * w + (1.0 - p_weight) * si


def rounds_to(printed, value) -> np.ndarray:
    """True where ``printed`` is ``value``, give or take DUST, rounded to 12 significant digits."""
    printed = np.asarray(printed, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    err = np.abs(printed - value)
    with np.errstate(divide="ignore"):
        half_unit = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(value))) - 11)
    return (err <= ABS_TOL) & (err <= half_unit + DUST)


# --- rankings ------------------------------------------------------------------


def check_ranking(where: str, ids: Sequence[str], printed: dict[str, np.ndarray],
                  truth: Sequence[tuple[str, int, int]], kind: str, transform: str,
                  p_weight: float) -> list[str]:
    """Check one ranked list against the answers' ground-truth tallies.

    ``truth`` lists (answer_id, up, down) in creation order; ``printed`` maps
    a score name (``combined`` and optionally ``wilson_lower``/``si``, plus
    ``up``/``down`` when the output prints them) to the values in output order.
    """
    errors: list[str] = []
    if len(ids) != len(truth):
        return [f"{where}: {len(ids)} rows, expected {len(truth)}"]
    created = {answer_id: i for i, (answer_id, _, _) in enumerate(truth)}
    if len(set(ids)) != len(ids) or set(ids) != set(created):
        return [f"{where}: answer ids differ from the ground truth"]
    seq = np.array([created[answer_id] for answer_id in ids], dtype=np.int64)
    up = np.array([truth[i][1] for i in seq], dtype=np.int64)
    down = np.array([truth[i][2] for i in seq], dtype=np.int64)
    for name, want in (("up", up), ("down", down)):
        if name in printed and not np.array_equal(printed[name], want):
            row = int(np.argmax(printed[name] != want))
            errors.append(f"{where}: row {row + 1} {name} {printed[name][row]} != truth {want[row]}")

    n_max = max(int((up + down).max(initial=0)), 1)  # the CLI's default --n-max-floor
    w, si, combined = expected_scores(up, down, n_max, kind, transform, p_weight)
    for name, want in (("wilson_lower", w), ("si", si), ("combined", combined)):
        if name not in printed:
            continue
        bad = np.flatnonzero(~rounds_to(printed[name], want))
        for row in bad[:MAX_ERRORS]:
            errors.append(f"{where}: row {row + 1} {name} {float(printed[name][row])!r} "
                          f"!= {float(want[row])!r}")

    # Order: non-increasing combined; equal scores by higher up, then creation.
    # Different tallies can tie in exact arithmetic, e.g. (1, 0) and (12, 24)
    # both have Wilson bound 0.2 at z = 2, and then the program's rounding
    # decides their order, so a tie with unequal up-counts accepts either.
    ahead, behind = combined[:-1], combined[1:]
    rising = behind - ahead > 1e-12
    tie = (ahead == behind) & (up[:-1] == up[1:])
    bad_order = rising | (tie & (seq[:-1] > seq[1:]))
    for row in np.flatnonzero(bad_order)[:MAX_ERRORS]:
        errors.append(f"{where}: rows {row + 1} and {row + 2} are out of order")
    return errors


def _column(rows: list[dict], key: str, dtype) -> np.ndarray:
    return np.array([row[key] for row in rows], dtype=dtype)


def _ranked_rows(where: str, rows: list[dict], truth, kind: str, transform: str,
                 p_weight: float) -> list[str]:
    ranks = [row["rank"] for row in rows]
    if ranks != list(range(1, len(rows) + 1)):
        return [f"{where}: ranks are not contiguous from 1"]
    printed = {key: _column(rows, key, np.int64) for key in ("up", "down")}
    printed.update({key: _column(rows, key, np.float64) for key in ("wilson_lower", "si", "combined")})
    return check_ranking(where, [row["answer_id"] for row in rows], printed, truth,
                         kind, transform, p_weight)


RANK_KEYS = ["rank", "answer_id", "up", "down", "wilson_lower", "si", "combined"]


def _load_rows(path: Path, keys: list[str]) -> tuple[list[dict], list[str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                return rows, [f"stdout line {line_no}: not JSON"]
            if list(row) != keys:
                return rows, [f"stdout line {line_no}: keys {list(row)} != {keys}"]
            rows.append(row)
    return rows, []


def check_rank(truth: dict[str, Any], stdout: Path) -> list[str]:
    rows, errors = _load_rows(stdout, RANK_KEYS)
    if errors:
        return errors
    return _ranked_rows("rank", rows, truth["tallies"], "net", "log", 0.5)


def check_replay(truth: dict[str, Any], stdout: Path) -> list[str]:
    rows, errors = _load_rows(stdout, ["question_id", *RANK_KEYS])
    if errors:
        return errors
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["question_id"], []).append(row)
    want_order = [question_id for question_id, _ in truth["questions"]]
    if list(groups) != want_order:
        return ["replay: questions are not contiguous in first-appearance order"]
    for question_id, answers in truth["questions"]:
        errors += _ranked_rows(f"replay {question_id}", groups[question_id], answers,
                               "whole", "linear", 0.5)
        if len(errors) >= MAX_ERRORS:
            break
    return errors


# --- grids ---------------------------------------------------------------------


def _grid_name(p_weight: float, transform: str) -> str:
    suffix = "poly2" if transform == "poly" else transform
    return f"grid_z2_p{p_weight:g}_whole_{suffix}.csv"


def check_sweep(truth: dict[str, Any], stdout: Path) -> list[str]:
    out_dir = Path(truth["out_dir"])
    top, n_max = truth["range"], truth["n_max"]
    names = [_grid_name(p, t) for p in truth["p_values"] for t in truth["transforms"]]
    listed = stdout.read_text(encoding="utf-8").splitlines()
    if listed != [str(out_dir / name) for name in names]:
        return ["sweep: stdout does not list the expected CSV paths in sweep order"]
    axis = np.arange(top + 1, dtype=np.int64)
    u_col = np.repeat(axis, top + 1)
    d_col = np.tile(axis, top + 1)
    errors: list[str] = []
    for p_weight in truth["p_values"]:
        for transform in truth["transforms"]:
            path = out_dir / _grid_name(p_weight, transform)
            text = path.read_text(encoding="utf-8")
            head, sep, body = text.partition("u,d,score\n")
            meta = ["scorer: improved", "z: 2", f"p_weight: {p_weight:.12g}", "kind: whole",
                    f"transform: {transform}", *(["poly_a: 2"] if transform == "poly" else []),
                    "bound: lower", f"n_max: {n_max}", f"u_max: {n_max}", f"d_max: {n_max}",
                    "step: 1"]
            if not sep or head != "".join(f"# {line}\n" for line in meta):
                errors.append(f"{path.name}: metadata or header differs")
                continue
            cells = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            if cells.shape != ((top + 1) ** 2, 3):
                errors.append(f"{path.name}: {cells.shape[0]} cells, expected {(top + 1) ** 2}")
                continue
            if not (np.array_equal(cells[:, 0], u_col) and np.array_equal(cells[:, 1], d_col)):
                errors.append(f"{path.name}: cells are not in u-major order")
                continue
            _, _, want = expected_scores(u_col, d_col, n_max, "whole", transform, p_weight)
            bad = np.flatnonzero(~rounds_to(cells[:, 2], want))
            if bad.size:
                row = int(bad[0])
                errors.append(f"{path.name}: {bad.size} cells off, first at u={u_col[row]} "
                              f"d={d_col[row]}: {float(cells[row, 2])!r} != {float(want[row])!r}")
    return errors


# --- simulate ------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64_floats(seed: int):
    """Uniform doubles in [0, 1) from the splitmix64 stream (top 53 bits)."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield ((z ^ (z >> 31)) >> 11) * 2.0**-53


def simulated_tallies(profiles, events: int, seed: int, cadence: int):
    """Yield (event_index, [(answer_id, up, down)] in creation order) at each snapshot."""
    weights = [w for _, _, w in profiles]
    cumulative = list(accumulate(weights))
    total = sum(weights)
    draws = splitmix64_floats(seed)
    tallies: dict[str, list[int]] = {}
    for i in range(1, events + 1):
        pick = next(draws) * total
        index = min(bisect.bisect_right(cumulative, pick), len(profiles) - 1)
        answer_id, up_probability, _ = profiles[index]
        tally = tallies.setdefault(answer_id, [0, 0])
        tally[0 if next(draws) < up_probability else 1] += 1
        if i % cadence == 0 or i == events:
            yield i, [(answer_id, up, down) for answer_id, (up, down) in tallies.items()]


def kendall_tau(a: Sequence[str], b: Sequence[str]) -> float:
    """Tau-a over the ids both lists hold; 1.0 when fewer than two are shared."""
    common = set(a) & set(b)
    if len(common) < 2:
        return 1.0
    position = {answer_id: i for i, answer_id in enumerate(x for x in b if x in common)}
    perm = [position[x] for x in a if x in common]

    def inversions(seq: list[int]) -> tuple[list[int], int]:
        if len(seq) < 2:
            return seq, 0
        left, inv_left = inversions(seq[: len(seq) // 2])
        right, inv_right = inversions(seq[len(seq) // 2:])
        merged, count, j = [], inv_left + inv_right, 0
        for x in left:
            while j < len(right) and right[j] < x:
                merged.append(right[j])
                j += 1
            count += j
            merged.append(x)
        merged.extend(right[j:])
        return merged, count

    m = len(perm)
    return 1.0 - 2.0 * inversions(perm)[1] / (m * (m - 1) // 2)


SIM_SCORERS = {"wilson": 1.0, "improved": 0.5}  # label -> p_weight, whole/linear, z = 2


def check_simulate(truth: dict[str, Any], stdout: Path) -> list[str]:
    errors: list[str] = []
    if stdout.stat().st_size:
        errors.append("simulate: stdout is not empty")
    with open(truth["trajectory"], "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    expected = simulated_tallies(truth["profiles"], truth["events"], truth["seed"], truth["cadence"])
    rankings: dict[str, list[list[str]]] = {label: [] for label in SIM_SCORERS}
    position = 0
    for event_index, tallies in expected:
        for label, p_weight in SIM_SCORERS.items():
            if position >= len(lines):
                return errors + ["simulate: trajectory ends early"]
            line = lines[position]
            position += 1
            if (line.get("event_index"), line.get("scorer")) != (event_index, label):
                return errors + [f"simulate: trajectory line {position} is not "
                                 f"({event_index}, {label})"]
            ids = [entry["answer_id"] for entry in line["ranking"]]
            combined = np.array([entry["combined"] for entry in line["ranking"]], dtype=np.float64)
            errors += check_ranking(f"simulate {label}@{event_index}", ids,
                                    {"combined": combined}, tallies, "whole", "linear", p_weight)
            rankings[label].append(ids)
        if len(errors) >= MAX_ERRORS:
            return errors
    if position != len(lines):
        errors.append("simulate: trajectory has extra lines")
    with open(truth["report"], "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return errors + _check_report(report, rankings)


def _check_report(report: dict, rankings: dict[str, list[list[str]]]) -> list[str]:
    labels = list(SIM_SCORERS)
    if len(rankings[labels[0]]) < 2:
        return [] if report == {"scorers": {}, "agreement": []} else ["simulate: report should be empty"]
    want: dict[str, float] = {}
    for label in labels:
        snaps = rankings[label]
        taus = [kendall_tau(a, b) for a, b in zip(snaps, snaps[1:])]
        want[f"{label}.mean_adjacent_tau"] = sum(taus) / len(taus)
        want[f"{label}.rank_one_changes"] = sum(
            1 for a, b in zip(snaps, snaps[1:]) if a and b and a[0] != b[0])
    want["final_tau"] = kendall_tau(rankings[labels[0]][-1], rankings[labels[1]][-1])
    try:
        got = {f"{label}.{key}": report["scorers"][label][key] for label in labels
               for key in ("mean_adjacent_tau", "rank_one_changes")}
        (pair,) = report["agreement"]
        if pair["scorers"] != labels:
            return ["simulate: report agreement names the wrong scorer pair"]
        got["final_tau"] = pair["final_tau"]
    except (KeyError, TypeError, ValueError):
        return ["simulate: report does not have the expected shape"]
    return [f"simulate: report {key} {got[key]!r} != {want[key]!r}"
            for key in want if not rounds_to(got[key], want[key])]


# --- entry points ----------------------------------------------------------------

CHECKS = {
    "rank-flat": check_rank,
    "replay-churn": check_replay,
    "grid-sweep": check_sweep,
    "simulate-drift": check_simulate,
}


def output_files(workload: str, truth: dict[str, Any], stdout: Path) -> list[Path]:
    """Every file one run writes, stdout first."""
    if workload == "grid-sweep":
        return [stdout, *(Path(truth["out_dir"]) / _grid_name(p, t)
                          for p in truth["p_values"] for t in truth["transforms"])]
    if workload == "simulate-drift":
        return [stdout, Path(truth["trajectory"]), Path(truth["report"])]
    return [stdout]


def digests(paths: Sequence[Path]) -> dict[str, str]:
    """sha256 of each output file, by file name; missing files map to ``missing``."""
    result = {}
    for path in paths:
        h = hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except FileNotFoundError:
            result[path.name] = "missing"
            continue
        result[path.name] = h.hexdigest()
    return result


def check(workload: str, truth: dict[str, Any], stdout: Path) -> list[str]:
    """Full check of one run's outputs."""
    missing = [p.name for p in output_files(workload, truth, stdout) if not p.exists()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        return CHECKS[workload](truth, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{workload}: malformed output ({exc})"]
