"""Independent oracles shared by the unit and acceptance tests.

The Wilson bounds are the roots of

    g(p0) = (p_hat - p0)^2 - z^2 * p0 * (1 - p0) / n = 0

so a bisection root-finder on g is an oracle for the closed-form evaluation:
it never touches the quadratic's solution formula.

The output writers have byte oracles here too: the straightforward
formatting that the fast writers in the package must reproduce exactly.
The scalar scoring kernel has bit oracles too: the Wilson interval with its
own z = 0 branch and the spotlight index as one branch per kind and
transform, the form that kernel had before it was factored for reuse by
the grids.
So do the simulation's event generator (a linear scan per weighted pick),
the simulation itself (one ``apply_event`` per event, where the package
applies one delta per answer between snapshots), its Kendall tau (an O(m^2)
pair count), ``rank_answers`` (one score per answer, where the package
scores each distinct tally once), ``rank`` (every line through the full
decoder, every field checked on its own and one ``AnswerEntry`` per line,
where the package decodes a well-formed line in one scanner call, checks it
in one expression and ranks plain ``(up, down)`` columns), ``replay`` (every
line through the full decoder, every field checked on its own and one
``VoteEvent`` per line, where the package decodes and checks a well-formed
line in one pass) and the stability report (lists of every snapshot's
taus, where the package folds one snapshot at a time).
"""

from __future__ import annotations

import json
import math

import numpy as np

from spotrank import cli
from spotrank.scoring import (
    Maxima,
    ScoringConfig,
    SiKind,
    SiTransform,
    VoteTally,
    WholeSiVariant,
    WilsonInterval,
    combined_score,
    effective_maxima,
)
from spotrank.simulate import (
    SIM_QUESTION_ID,
    ScorerStability,
    SplitMix64,
    StabilityReport,
    TooFewSnapshotsError,
)
from spotrank.state import (
    AnswerEntry,
    NegativeCountError,
    QuestionState,
    RankedList,
    VoteEvent,
)


def wilson_bisect(u: int, d: int, z: float, iters: int = 100) -> tuple[float, float]:
    """Scalar bisection for both bounds; (0, 1) for the no-vote convention."""
    n = u + d
    if n == 0:
        return (0.0, 1.0)
    p_hat = u / n
    if z == 0.0:
        return (p_hat, p_hat)
    zz = z * z

    def g(p0: float) -> float:
        return (p_hat - p0) ** 2 - zz * p0 * (1.0 - p0) / n

    lo, hi = 0.0, p_hat  # g(lo) >= 0, g(hi) <= 0: converges to the lower root
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    lower = 0.5 * (lo + hi)

    lo, hi = p_hat, 1.0  # g(lo) <= 0, g(hi) >= 0: converges to the upper root
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    upper = 0.5 * (lo + hi)
    return (lower, upper)


def wilson_bisect_arrays(
    u: np.ndarray, d: np.ndarray, z: float, iters: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bisection over parallel arrays of counts (all n > 0)."""
    n = (u + d).astype(np.float64)
    p_hat = u / n
    zz = z * z

    def g(p0: np.ndarray) -> np.ndarray:
        return (p_hat - p0) ** 2 - zz * p0 * (1.0 - p0) / n

    lo = np.zeros_like(p_hat)
    hi = p_hat.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        take = g(mid) >= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    lower = 0.5 * (lo + hi)

    lo = p_hat.copy()
    hi = np.ones_like(p_hat)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        take = g(mid) <= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    upper = 0.5 * (lo + hi)
    return lower, upper


def wilson_interval_reference(tally: VoteTally, z: float) -> WilsonInterval:
    """Closed form with a separate z = 0 branch: the bit oracle for
    ``scoring.wilson_interval``."""
    n = tally.n
    if n == 0:
        return WilsonInterval(0.0, 1.0)
    p = tally.up / n
    if z == 0.0:
        return WilsonInterval(p, p)
    zz = z * z
    center = p + zz / (2.0 * n)
    spread = (z / (2.0 * n)) * math.sqrt(4.0 * n * p * (1.0 - p) + zz)
    denom = 1.0 + zz / n
    lower = max(0.0, min((center - spread) / denom, p))
    upper = min(1.0, max((center + spread) / denom, p))
    return WilsonInterval(lower, upper)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def spotlight_index_reference(
    tally: VoteTally,
    maxima: Maxima,
    kind: SiKind,
    transform: SiTransform,
    whole_variant: WholeSiVariant = WholeSiVariant.PLAIN,
) -> float:
    """One branch per kind and transform: the bit oracle for
    ``scoring.spotlight_index``."""
    u, d = tally.up, tally.down
    n = u + d
    name = transform.name

    if name == "linear":
        if kind is SiKind.WHOLE:
            if whole_variant is WholeSiVariant.SHIFT_DENOM:
                return n / (maxima.n_max + 1)
            if whole_variant is WholeSiVariant.SHIFT_BOTH:
                return (n + 1) / (maxima.n_max + 1)
            return n / maxima.n_max
        if kind is SiKind.NET:
            return (u - d) / maxima.n_max
        if kind is SiKind.POSITIVE:
            return u / maxima.n_max
        if kind is SiKind.NEGATIVE:
            return -(d / maxima.n_max)
        if kind is SiKind.UPVOTE:
            return u / maxima.u_max
        return -(d / maxima.d_max)

    if name == "log":
        log_nmax = math.log10(maxima.n_max + 1)
        if kind is SiKind.WHOLE:
            return math.log10(n + 1) / log_nmax
        if kind is SiKind.NET:
            diff = u - d
            return _sign(diff) * math.log10(abs(diff) + 1) / log_nmax
        if kind is SiKind.POSITIVE:
            return math.log10(u + 1) / log_nmax
        if kind is SiKind.NEGATIVE:
            return -(math.log10(d + 1) / log_nmax)
        if kind is SiKind.UPVOTE:
            return math.log10(u + 1) / math.log10(maxima.u_max + 1)
        return -(math.log10(d + 1) / math.log10(maxima.d_max + 1))

    if name == "exp":
        if kind is SiKind.WHOLE:
            return math.exp(n - maxima.n_max)
        if kind is SiKind.NET:
            return math.exp(u - d - maxima.n_max)
        if kind is SiKind.POSITIVE:
            return math.exp(u - maxima.n_max)
        if kind is SiKind.NEGATIVE:
            return -math.exp(d - maxima.n_max)
        if kind is SiKind.UPVOTE:
            return math.exp(u - maxima.u_max)
        return -math.exp(d - maxima.d_max)

    a = transform.exponent
    if kind is SiKind.WHOLE:
        return (n / maxima.n_max) ** a
    if kind is SiKind.NET:
        diff = u - d
        return _sign(diff) * (abs(diff) / maxima.n_max) ** a
    if kind is SiKind.POSITIVE:
        return (u / maxima.n_max) ** a
    if kind is SiKind.NEGATIVE:
        return -((d / maxima.n_max) ** a)
    if kind is SiKind.UPVOTE:
        return (u / maxima.u_max) ** a
    return -((d / maxima.d_max) ** a)


def write_csv_reference(grid, fh) -> None:
    """Per-cell f-string CSV writer: the byte oracle for ``grids.emit_csv``."""
    for key, value in grid.metadata.items():
        fh.write(f"# {key}: {value}\n")
    fh.write("u,d,score\n")
    d_list = grid.d_values.tolist()
    for i, u in enumerate(grid.u_values.tolist()):
        row = grid.scores[i].tolist()
        fh.write("\n".join(f"{u},{d},{s:.12g}" for d, s in zip(d_list, row)))
        fh.write("\n")


def ranking_reference(ranked_entries, tallies, question_id=None) -> str:
    """dict + ``json.dumps`` rendering of ranked rows: the byte oracle for
    the ``rank``/``replay`` JSONL output."""
    lines = []
    for position, (answer_id, breakdown) in enumerate(ranked_entries, start=1):
        row = {}
        if question_id is not None:
            row["question_id"] = question_id
        tally = tallies[answer_id]
        row.update(
            rank=position,
            answer_id=answer_id,
            up=tally.up,
            down=tally.down,
            wilson_lower=float(f"{breakdown.wilson.lower:.12g}"),
            si=float(f"{breakdown.si:.12g}"),
            combined=float(f"{breakdown.combined:.12g}"),
        )
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def generate_events_linear(spec) -> list:
    """Weighted picks by a linear scan over the running weight sum: the
    oracle for ``simulate.generate_events``."""
    rng = SplitMix64(spec.seed)
    weights = [p.arrival_weight for p in spec.profiles]
    total_weight = sum(weights)
    events = []
    for i in range(spec.total_events):
        pick = rng.next_float() * total_weight
        chosen = spec.profiles[-1]
        acc = 0.0
        for profile, w in zip(spec.profiles, weights):
            acc += w
            if pick < acc:
                chosen = profile
                break
        is_up = rng.next_float() < chosen.up_probability
        events.append(VoteEvent(SIM_QUESTION_ID, chosen.answer_id,
                                1 if is_up else 0, 0 if is_up else 1, i))
    return events


def kendall_tau_pairs(ranking_a, ranking_b) -> float:
    """Tau-a by checking every pair: the oracle for ``simulate.kendall_tau``
    (on valid input; it does no validation)."""
    m = len(ranking_a)
    position_b = {answer_id: i for i, answer_id in enumerate(ranking_b)}
    perm = [position_b[answer_id] for answer_id in ranking_a]
    discordant = sum(
        1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
    )
    total = m * (m - 1) // 2
    return 1.0 - 2.0 * discordant / total


def brute_maxima(entries) -> tuple[int, int, int]:
    """Raw ``(n_max, u_max, d_max)`` as three ``max`` calls over the entries'
    tallies, (0, 0, 0) when there are none: the oracle for the maxima the
    package reads from its tallies in one scan."""
    tallies = [entry.tally for entry in entries]
    return (max((tally.up + tally.down for tally in tallies), default=0),
            max((tally.up for tally in tallies), default=0),
            max((tally.down for tally in tallies), default=0))


def rank_answers_reference(answers, config, raw_maxima=None) -> RankedList:
    """One ``combined_score`` call per answer: the oracle for
    ``state.rank_answers``."""
    entries = list(answers)
    if raw_maxima is None:
        raw_maxima = brute_maxima(entries)
    maxima = effective_maxima(*raw_maxima, floor=config.n_max_floor)
    scored = [(entry, combined_score(entry.tally, maxima, config)) for entry in entries]
    scored.sort(key=lambda pair: (-pair[1].combined, -pair[0].tally.up, pair[0].created_seq))
    return RankedList(tuple((e.answer_id, b) for e, b in scored), maxima)


def simulate_reference(spec, scorers, cadence):
    """One ``apply_event`` per event of :func:`generate_events_linear` and a
    ``rank`` per scorer at each snapshot: the oracle for
    ``simulate.simulate``.  Returns the ``(event_index, rankings)`` pairs and
    the final state."""
    state = QuestionState(SIM_QUESTION_ID)
    snapshots = []
    for i, event in enumerate(generate_events_linear(spec), start=1):
        state.apply_event(event)
        if i % cadence == 0 or i == spec.total_events:
            snapshots.append((i, {label: state.rank(config) for label, config in scorers.items()}))
    return snapshots, state


def stability_report_reference(trajectory) -> StabilityReport:
    """Each scorer's list of adjacent-snapshot taus over the whole
    trajectory, each tau over the ids both snapshots rank and counted by
    :func:`kendall_tau_pairs`: the oracle for ``simulate.stability_report``,
    which folds one snapshot at a time."""
    snaps = trajectory.snapshots
    if len(snaps) < 2:
        raise TooFewSnapshotsError("need at least 2 snapshots to measure stability")

    def tau_or_one(ids_a, ids_b):
        common = set(ids_a) & set(ids_b)
        if len(common) < 2:
            return 1.0
        return kendall_tau_pairs([i for i in ids_a if i in common],
                                 [i for i in ids_b if i in common])

    per_scorer = {}
    for label in trajectory.scorer_labels:
        taus = []
        changes = 0
        for prev, cur in zip(snaps, snaps[1:]):
            ids_prev = prev.rankings[label].ids()
            ids_cur = cur.rankings[label].ids()
            taus.append(tau_or_one(ids_prev, ids_cur))
            if ids_prev and ids_cur and ids_prev[0] != ids_cur[0]:
                changes += 1
        per_scorer[label] = ScorerStability(sum(taus) / len(taus), changes)

    final = snaps[-1].rankings
    agreement = {}
    labels = trajectory.scorer_labels
    for i, label_a in enumerate(labels):
        for label_b in labels[i + 1 :]:
            agreement[(label_a, label_b)] = tau_or_one(final[label_a].ids(), final[label_b].ids())
    return StabilityReport(per_scorer, agreement)


def replay_reference(lines, config=ScoringConfig()) -> tuple[int, str, str]:
    """The per-line replay loop: each field checked by its own ``cli`` check,
    then one ``VoteEvent`` and one ``apply_event`` per line.  Returns the
    exit code, stdout and stderr of ``spotrank replay`` on ``lines``."""
    states = {}
    last_ts = None
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            obj = cli._parse_jsonl_line(line_no, line)
            question_id = cli._require_str(line_no, obj, "question_id")
            answer_id = cli._require_str(line_no, obj, "answer_id")
            up_delta = cli._require_int(line_no, obj, "up_delta")
            down_delta = cli._require_int(line_no, obj, "down_delta")
            ts = cli._require_int(line_no, obj, "ts")
            if last_ts is not None and ts < last_ts:
                raise cli.CliError(f"line {line_no}: out-of-order timestamp {ts} after {last_ts}")
            last_ts = ts
            try:
                event = VoteEvent(question_id, answer_id, up_delta, down_delta, ts)
            except ValueError as exc:
                raise cli.CliError(f"line {line_no}: {exc}") from exc
            state = states.setdefault(question_id, QuestionState(question_id))
            try:
                state.apply_event(event)
            except NegativeCountError as exc:
                raise cli.CliError(f"line {line_no}: {exc}") from exc
    except cli.CliError as exc:
        return 2, "", f"error: {exc}\n"
    out = []
    for question_id, state in states.items():
        entries = state.entries()
        ranked = rank_answers_reference(entries, config, brute_maxima(entries))
        out.append(ranking_reference(ranked.entries, {e.answer_id: e.tally for e in entries},
                                     question_id=question_id))
    return 0, "".join(out), ""


def rank_reference(lines, config=ScoringConfig()) -> tuple[int, str, str]:
    """The per-line rank loop: each field checked by its own ``cli`` check,
    one ``AnswerEntry`` per line and :func:`rank_answers_reference`.  Returns
    the exit code, stdout and stderr of ``spotrank rank`` on ``lines``."""
    entries = []
    seen = set()
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            obj = cli._parse_jsonl_line(line_no, line)
            answer_id = cli._require_str(line_no, obj, "answer_id")
            up = cli._require_int(line_no, obj, "up", minimum=0)
            down = cli._require_int(line_no, obj, "down", minimum=0)
            if answer_id in seen:
                raise cli.CliError(f"line {line_no}: duplicate answer_id {answer_id!r}")
            seen.add(answer_id)
            entries.append(AnswerEntry(answer_id, VoteTally(up, down), len(entries)))
    except cli.CliError as exc:
        return 2, "", f"error: {exc}\n"
    ranked = rank_answers_reference(entries, config)
    return 0, ranking_reference(ranked.entries, {e.answer_id: e.tally for e in entries}), ""
