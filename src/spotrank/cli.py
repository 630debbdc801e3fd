"""Command-line surface: score, rank, replay, grid, sweep, simulate.

Conventions shared by every subcommand: exit 0 on success and 2 on any
usage/config/input error; data goes to stdout (or the requested files),
errors to stderr, never mixed; output is deterministic for identical inputs.
Human-facing numbers carry 6 fractional digits, machine-facing JSONL/CSV 12
significant digits.

A flat JSON config file (``--config``) may pre-set any flag; keys equal the
flag names without the leading dashes, and explicit flags win.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO

from .grids import (
    AverageRatingScorer,
    GridSpec,
    ImprovedScorer,
    SweepSpec,
    WilsonScorer,
    emit_csv,
    grid_scores,
    sweep,
)
from .scoring import (
    Bound,
    ConfigError,
    ScoringConfig,
    SiKind,
    SiTransform,
    VoteTally,
    WholeSiVariant,
    combined_score,
    effective_maxima,
    validate_config,
)
from .simulate import AnswerProfile, StreamSpec, simulate, stability_report
from .state import (
    AnswerEntry,
    NegativeCountError,
    QuestionState,
    VoteEvent,
    rank_answers,
)


class CliError(Exception):
    """Any input/config problem; rendered to stderr with exit code 2."""


_KINDS = {kind.value: kind for kind in SiKind}
_BOUNDS = {bound.value: bound for bound in Bound}
_VARIANTS = {variant.value: variant for variant in WholeSiVariant}
_TRANSFORMS = ("linear", "log", "exp", "poly")

# ConfigError names dataclass fields; users see flag spellings
_FIELD_TO_FLAG = {
    "p_weight": "p-weight",
    "z": "z",
    "si_transform.exponent": "poly-a",
    "n_max_floor": "n-max-floor",
}

_CONFIG_FILE_KEYS = {
    "z", "p-weight", "kind", "transform", "poly-a", "bound", "n-max-floor",
    "whole-variant", "step", "seed", "u-range", "d-range", "n-max", "u-max",
    "d-max", "scorer", "z-values", "p-values", "kinds", "transforms",
    "events", "cadence", "out", "out-dir", "trajectory-out", "report-out",
}


# JSON integers and integer flags beyond the signed 64-bit range are
# rejected: vote counts that large overflow float64 in the scoring arithmetic
# (10**320 cannot be converted at all), and every real count, delta,
# timestamp, grid size and seed fits (seeds are taken modulo 2**64)
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1

# json.dumps spells the non-finite floats this way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json12(x: float) -> str:
    """``json.dumps(_round12(x))``, without building a JSON encoder."""
    text = repr(_round12(x))
    return _JSON_NONFINITE.get(text, text)


class Options:
    """Flag value resolution: explicit flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values: dict[str, Any] = {}
        if getattr(args, "config", None):
            self.file_values = _load_config_file(args.config)

    def get(self, flag: str, default: Any = None) -> Any:
        value = getattr(self.args, flag.replace("-", "_"), None)
        if value is not None:
            return value
        if flag in self.file_values:
            return self.file_values[flag]
        return default


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    # bad syntax, an integer too long to convert, bytes that are not UTF-8,
    # or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise CliError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise CliError(f"config file {path}: expected a flat JSON object")
    unknown = sorted(set(data) - _CONFIG_FILE_KEYS)
    if unknown:
        raise CliError(f"config file {path}: unknown keys {', '.join(unknown)}")
    return data


def _to_float(flag: str, value: Any) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{flag}: expected a number, got {value!r}") from exc
    except OverflowError as exc:  # an integer beyond float range
        raise CliError(f"{flag}: out of range") from exc
    return result


def _to_int(flag: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise CliError(f"{flag}: expected an integer, got {value!r}")
    try:
        result = int(value)
    except ValueError as exc:
        raise CliError(f"{flag}: expected an integer, got {value!r}") from exc
    except OverflowError as exc:  # an infinite float from a config file
        raise CliError(f"{flag}: out of range") from exc
    if isinstance(value, float) and value != result:
        raise CliError(f"{flag}: expected an integer, got {value!r}")
    if not _INT_MIN <= result <= _INT_MAX:
        raise CliError(f"{flag}: out of range")
    return result


def _to_choice(flag: str, value: Any, table: dict[str, Any]) -> Any:
    if value not in table:
        raise CliError(f"{flag}: expected one of {', '.join(table)}, got {value!r}")
    return table[value]


def _to_float_list(flag: str, value: Any) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise CliError(f"{flag}: expected a comma-separated list, got {value!r}")
    if not parts:
        raise CliError(f"{flag}: list must be non-empty")
    return tuple(_to_float(flag, p) for p in parts)


def _to_name_list(flag: str, value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = [str(p) for p in value]
    else:
        raise CliError(f"{flag}: expected a comma-separated list, got {value!r}")
    if not parts:
        raise CliError(f"{flag}: list must be non-empty")
    return tuple(parts)


def _transform_from(name: str, poly_a: float) -> SiTransform:
    if name not in _TRANSFORMS:
        raise CliError(f"transform: expected one of {', '.join(_TRANSFORMS)}, got {name!r}")
    if name == "poly":
        return SiTransform("poly", poly_a)
    return SiTransform(name)


def resolve_scoring_config(opts: Options) -> ScoringConfig:
    transform_name = opts.get("transform", "linear")
    poly_a = _to_float("poly-a", opts.get("poly-a", 2.0))
    config = ScoringConfig(
        z=_to_float("z", opts.get("z", 2.0)),
        p_weight=_to_float("p-weight", opts.get("p-weight", 0.5)),
        si_kind=_to_choice("kind", opts.get("kind", "whole"), _KINDS),
        si_transform=_transform_from(transform_name, poly_a),
        bound=_to_choice("bound", opts.get("bound", "lower"), _BOUNDS),
        n_max_floor=_to_int("n-max-floor", opts.get("n-max-floor", 1)),
        whole_variant=_to_choice("whole-variant", opts.get("whole-variant", "plain"), _VARIANTS),
    )
    try:
        return validate_config(config)
    except ConfigError as exc:
        flag = _FIELD_TO_FLAG.get(exc.field, exc.field)
        raise CliError(f"{flag}: {str(exc).split(': ', 1)[1]}") from exc


def _open_input(path: str) -> TextIO:
    """The JSONL input as strict UTF-8 text; ``-`` is stdin."""
    if path == "-":
        # stdin's own errors handler is surrogateescape in UTF-8 mode; lines
        # still end at "\n" only, as on sys.stdin
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text stream put in place of stdin
            return sys.stdin
        return io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """:func:`_open_input`, closed afterwards, except stdin itself.

    Text is decoded in chunks as it is read, so a byte that is not UTF-8 is
    reported for the input, not for a line.
    """
    fh = _open_input(path)
    try:
        yield fh
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise CliError(f"{name}: not valid UTF-8 ({exc.reason})") from exc
    finally:
        if path != "-":
            fh.close()
        elif fh is not sys.stdin:
            fh.detach()  # leaves stdin open


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


# one decoder for every line: json.loads(parse_constant=...) would build a
# new decoder per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# replay's one-pass check calls the scanner by this name; _parse_jsonl_line
# and decode() look it up on the decoder
_SCAN_ONCE = _DECODER.scan_once
_WHITESPACE = json.decoder.WHITESPACE.match


def _parse_jsonl_line(line_no: int, line: str) -> dict:
    # a line that is one object from its first character, with only JSON
    # whitespace after it, takes one scanner call; any other line goes
    # through decode, whose errors are the messages reported
    try:
        obj, end = _DECODER.scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if isinstance(obj, dict) and _WHITESPACE(line, end).end() == len(line):
            return obj
    try:
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        # json.loads names a leading BOM; the decoder alone does not
        msg = exc.msg
        if line.startswith("\ufeff"):
            msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        raise CliError(f"line {line_no}: invalid JSON ({msg})") from exc
    # NaN/Infinity, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise CliError(f"line {line_no}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise CliError(f"line {line_no}: expected a JSON object")
    return obj


def _require_str(line_no: int, obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise CliError(f"line {line_no}: field {key!r} must be a string")
    return value


def _require_int(line_no: int, obj: dict, key: str, minimum: int | None = None) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"line {line_no}: field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise CliError(f"line {line_no}: field {key!r} must be >= {minimum}")
    if not _INT_MIN <= value <= _INT_MAX:
        raise CliError(f"line {line_no}: field {key!r} is out of range")
    return value


def _require_number(line_no: int, obj: dict, key: str, default: Any = None) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"line {line_no}: field {key!r} must be a number")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond float range
        raise CliError(f"line {line_no}: field {key!r} is out of range") from exc


# --- score ------------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    opts = Options(args)
    config = resolve_scoring_config(opts)
    up, down = _to_int("up", args.up), _to_int("down", args.down)
    if up < 0 or down < 0:
        raise CliError("up/down: vote counts must be non-negative")
    tally = VoteTally(up, down)
    # a lone tally is its own question: maxima default to its own counts
    raw_n = _to_int("n-max", opts.get("n-max", tally.n))
    raw_u = _to_int("u-max", opts.get("u-max", tally.up))
    raw_d = _to_int("d-max", opts.get("d-max", tally.down))
    maxima = effective_maxima(raw_n, raw_u, raw_d, config.n_max_floor)
    breakdown = combined_score(tally, maxima, config)
    print(f"wilson_lower {breakdown.wilson.lower:.6f}")
    print(f"wilson_upper {breakdown.wilson.upper:.6f}")
    print(f"si {breakdown.si:.6f}")
    print(f"combined {breakdown.combined:.6f}")
    return 0


# --- rank -------------------------------------------------------------------


def _read_tallies(fh: TextIO) -> list[AnswerEntry]:
    entries: list[AnswerEntry] = []
    seen: set[str] = set()
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        obj = _parse_jsonl_line(line_no, line)
        answer_id = _require_str(line_no, obj, "answer_id")
        up = _require_int(line_no, obj, "up", minimum=0)
        down = _require_int(line_no, obj, "down", minimum=0)
        if answer_id in seen:
            raise CliError(f"line {line_no}: duplicate answer_id {answer_id!r}")
        seen.add(answer_id)
        entries.append(AnswerEntry(answer_id, VoteTally(up, down), len(entries)))
    return entries


def _emit_ranking(entries: Sequence[AnswerEntry], config: ScoringConfig, out: TextIO,
                  question_id: str | None = None,
                  raw_maxima: tuple[int, int, int] | None = None) -> None:
    """One JSON object per ranked answer, byte-for-byte what ``json.dumps``
    gives for the same dict, formatted without building the dict."""
    ranked = rank_answers(entries, config, raw_maxima)
    tallies = {entry.answer_id: entry.tally for entry in entries}
    start = "{" if question_id is None else f'{{"question_id": {_json_str(question_id)}, '
    # answers with equal tallies share a breakdown, so its scores are
    # formatted once; keyed by identity, since ``ranked`` keeps every
    # breakdown alive and equal tallies are not assumed to share one
    scores: dict[int, str] = {}
    for position, (answer_id, breakdown) in enumerate(ranked.entries, start=1):
        tally = tallies[answer_id]
        text = scores.get(id(breakdown))
        if text is None:
            text = scores[id(breakdown)] = (
                f'"wilson_lower": {_json12(breakdown.wilson.lower)}, '
                f'"si": {_json12(breakdown.si)}, "combined": {_json12(breakdown.combined)}}}\n'
            )
        out.write(f'{start}"rank": {position}, "answer_id": {_json_str(answer_id)}, '
                  f'"up": {tally.up}, "down": {tally.down}, {text}')


def cmd_rank(args: argparse.Namespace) -> int:
    opts = Options(args)
    config = resolve_scoring_config(opts)
    with _reading(args.tallies) as fh:
        entries = _read_tallies(fh)
    if entries:
        _emit_ranking(entries, config, sys.stdout)
    return 0


# --- replay -----------------------------------------------------------------


def _replay_events(fh: TextIO) -> dict[str, QuestionState]:
    """Parse, validate and apply each line before reading the next, so memory
    holds the answers seen, never the events; states are in first-appearance
    order of their questions.

    A line that is one object from its first character, with five fields of
    the exact types, in range, in timestamp order and with a nonzero delta,
    is checked in one pass and applied as a delta.  Any other line, and any
    line whose delta is rejected, goes through :func:`_replay_line`, which
    reports the first failing check.
    """
    states: dict[str, QuestionState] = {}
    last_ts = _INT_MIN  # every in-range ts passes the order check
    scan, whitespace, lo, hi = _SCAN_ONCE, _WHITESPACE, _INT_MIN, _INT_MAX
    for line_no, line in enumerate(fh, start=1):
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            obj = None
        if type(obj) is dict and whitespace(line, end).end() == len(line):
            get = obj.get
            question_id = get("question_id")
            answer_id = get("answer_id")
            up_delta = get("up_delta")
            down_delta = get("down_delta")
            ts = get("ts")
            # type(x) is int excludes bool, as _require_int does
            if (type(question_id) is str and type(answer_id) is str
                    and type(up_delta) is int and type(down_delta) is int and type(ts) is int
                    and lo <= up_delta <= hi and lo <= down_delta <= hi
                    and last_ts <= ts <= hi and (up_delta or down_delta)):
                state = states.get(question_id)
                if state is None:
                    state = states[question_id] = QuestionState(question_id)
                try:
                    state.apply_delta(answer_id, up_delta, down_delta)
                except NegativeCountError:
                    pass  # the state is untouched; _replay_line reports it
                else:
                    last_ts = ts
                    continue
        last_ts = _replay_line(line_no, line, states, last_ts)
    return states


def _replay_line(line_no: int, line: str, states: dict[str, QuestionState],
                 last_ts: int) -> int:
    """Check and apply one line field by field, raising the message of the
    first check that fails; returns the timestamp to order the next line by."""
    if not line.strip():
        return last_ts
    obj = _parse_jsonl_line(line_no, line)
    question_id = _require_str(line_no, obj, "question_id")
    answer_id = _require_str(line_no, obj, "answer_id")
    up_delta = _require_int(line_no, obj, "up_delta")
    down_delta = _require_int(line_no, obj, "down_delta")
    ts = _require_int(line_no, obj, "ts")
    if ts < last_ts:
        raise CliError(f"line {line_no}: out-of-order timestamp {ts} after {last_ts}")
    try:
        event = VoteEvent(question_id, answer_id, up_delta, down_delta, ts)
    except ValueError as exc:
        raise CliError(f"line {line_no}: {exc}") from exc
    state = states.get(question_id)
    if state is None:
        state = states[question_id] = QuestionState(question_id)
    try:
        state.apply_event(event)
    except NegativeCountError as exc:
        raise CliError(f"line {line_no}: {exc}") from exc
    return ts


def cmd_replay(args: argparse.Namespace) -> int:
    opts = Options(args)
    config = resolve_scoring_config(opts)
    with _reading(args.events) as fh:
        states = _replay_events(fh)
    # written only after the last line, so a bad line leaves stdout empty
    for question_id, state in states.items():
        _emit_ranking(state.entries(), config, sys.stdout, question_id=question_id,
                      raw_maxima=(state.raw_n_max, state.raw_u_max, state.raw_d_max))
    return 0


# --- output files -----------------------------------------------------------


@contextmanager
def _staged_outputs() -> Iterator[Callable[[str | Path], Path]]:
    """Yield ``stage(target)``, which gives the temp path beside ``target``
    that its bytes are written to.  When the block ends, every temp file is
    renamed onto its target; when it raises, the temp files are removed and
    no target is touched.  ``stage`` refuses a target that is a directory,
    as ``open`` would, so that failure comes before any rename."""
    staged: dict[Path, Path] = {}  # target -> temp

    def stage(target: str | Path) -> Path:
        target = Path(target)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        tmp = staged[target] = target.parent / f".{target.name}.{os.getpid()}.tmp"
        return tmp

    try:
        yield stage
        for target, tmp in staged.items():
            os.replace(tmp, target)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


# --- grid / sweep -----------------------------------------------------------


def _resolve_grid_geometry(opts: Options) -> tuple[int, int, int, int, int, int]:
    u_range = _to_int("u-range", opts.get("u-range", 1000))
    d_range = _to_int("d-range", opts.get("d-range", 1000))
    step = _to_int("step", opts.get("step", 1))
    n_max = _to_int("n-max", opts.get("n-max", 2000))
    u_max = _to_int("u-max", opts.get("u-max", n_max))
    d_max = _to_int("d-max", opts.get("d-max", n_max))
    return u_range, d_range, step, n_max, u_max, d_max


def _build_grid_spec(opts: Options) -> GridSpec:
    u_range, d_range, step, n_max, u_max, d_max = _resolve_grid_geometry(opts)
    config = resolve_scoring_config(opts)
    scorer_name = opts.get("scorer", "improved")
    if scorer_name == "improved":
        scorer = ImprovedScorer(config)
    elif scorer_name == "wilson":
        scorer = WilsonScorer(config.z, config.bound)
    elif scorer_name == "average":
        scorer = AverageRatingScorer()
    else:
        raise CliError(f"scorer: expected one of improved, wilson, average, got {scorer_name!r}")
    try:
        maxima = effective_maxima(n_max, u_max, d_max)
        return GridSpec(u_range, d_range, maxima, scorer, step)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _too_large(spec: GridSpec) -> CliError:
    rows = spec.u_max_grid // spec.step + 1
    cols = spec.d_max_grid // spec.step + 1
    return CliError(f"a grid of {rows} x {cols} cells does not fit in memory")


def cmd_grid(args: argparse.Namespace) -> int:
    opts = Options(args)
    spec = _build_grid_spec(opts)
    try:
        grid = grid_scores(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise _too_large(spec) from exc
    out = opts.get("out")
    if out is None:
        emit_csv(grid, sys.stdout)
        return 0
    try:
        with _staged_outputs() as stage:
            emit_csv(grid, stage(out))
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = Options(args)
    base = _build_grid_spec(opts)
    if not isinstance(base.scorer, ImprovedScorer):
        raise CliError("sweep requires --scorer improved")
    poly_a = _to_float("poly-a", opts.get("poly-a", 2.0))
    try:
        spec = SweepSpec(
            base=base,
            z_values=_to_float_list("z-values", opts.get("z-values", "0,1,5,25")),
            p_values=_to_float_list("p-values", opts.get("p-values", "0,0.25,0.5,0.75,1")),
            kinds=tuple(
                _to_choice("kinds", k, _KINDS) for k in _to_name_list("kinds", opts.get("kinds", "whole"))
            ),
            transforms=tuple(
                _transform_from(t, poly_a)
                for t in _to_name_list("transforms", opts.get("transforms", "linear"))
            ),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    out_dir = Path(opts.get("out-dir", "grids"))
    paths: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with _staged_outputs() as stage:
            for point, grid in sweep(spec):
                path = out_dir / f"grid_{point.slug()}.csv"
                emit_csv(grid, stage(path))
                paths.append(path)
            for path in paths:
                print(path)
            # flushed before any rename, so a closed stdout is seen while the
            # targets are still untouched
            sys.stdout.flush()
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            raise  # main reports the closed stdout
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise _too_large(base) from exc
    return 0


# --- simulate ----------------------------------------------------------------


def _read_profiles(path: str) -> tuple[AnswerProfile, ...]:
    profiles: list[AnswerProfile] = []
    with _reading(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = _parse_jsonl_line(line_no, line)
            answer_id = _require_str(line_no, obj, "answer_id")
            up_probability = _require_number(line_no, obj, "up_probability")
            arrival_weight = _require_number(line_no, obj, "arrival_weight", 1.0)
            try:
                profiles.append(AnswerProfile(answer_id, up_probability, arrival_weight))
            except ValueError as exc:
                raise CliError(f"line {line_no}: {exc}") from exc
    return tuple(profiles)


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = Options(args)
    config = resolve_scoring_config(opts)
    profiles = _read_profiles(args.profiles)
    try:
        spec = StreamSpec(
            profiles=profiles,
            total_events=_to_int("events", opts.get("events", 1000)),
            seed=_to_int("seed", opts.get("seed", 0)),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    cadence = _to_int("cadence", opts.get("cadence", 100))
    if cadence < 1:
        raise CliError("cadence: must be positive")

    scorers = {
        "wilson": replace(config, p_weight=1.0),
        "improved": config,
    }
    trajectory = simulate(spec, scorers, cadence)
    report = stability_report(trajectory) if len(trajectory.snapshots) >= 2 else None

    report_obj: dict[str, Any] = {"scorers": {}, "agreement": []}
    if report is not None:
        for label in trajectory.scorer_labels:
            stats = report.per_scorer[label]
            report_obj["scorers"][label] = {
                "mean_adjacent_tau": _round12(stats.mean_adjacent_tau),
                "rank_one_changes": stats.rank_one_changes,
            }
        for (label_a, label_b), tau in report.agreement.items():
            report_obj["agreement"].append(
                {"scorers": [label_a, label_b], "final_tau": _round12(tau)}
            )

    trajectory_path = opts.get("trajectory-out", "trajectory.jsonl")
    report_path = opts.get("report-out", "report.json")
    try:
        with _staged_outputs() as stage:
            with open(stage(trajectory_path), "w", encoding="utf-8", newline="\n") as fh:
                for snap in trajectory.snapshots:
                    for label in trajectory.scorer_labels:
                        ranked = snap.rankings[label]
                        fh.write(json.dumps({
                            "event_index": snap.event_index,
                            "scorer": label,
                            "ranking": [
                                {"answer_id": answer_id, "combined": _round12(b.combined)}
                                for answer_id, b in ranked.entries
                            ],
                        }, sort_keys=True) + "\n")
            with open(stage(report_path), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(report_obj, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}") from exc
    return 0


# --- parser ------------------------------------------------------------------


def _add_scoring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--z", type=float, default=None, help="normal quantile (default 2)")
    sub.add_argument("--p-weight", type=float, default=None,
                     help="weight of the Wilson term, in [0, 1] (default 0.5)")
    sub.add_argument("--kind", choices=sorted(_KINDS), default=None,
                     help="spotlight index kind (default whole)")
    sub.add_argument("--transform", choices=_TRANSFORMS, default=None,
                     help="index transform (default linear)")
    sub.add_argument("--poly-a", type=float, default=None,
                     help="exponent for --transform poly (default 2)")
    sub.add_argument("--bound", choices=sorted(_BOUNDS), default=None,
                     help="which interval bound to blend (default lower)")
    sub.add_argument("--n-max-floor", type=int, default=None,
                     help="minimum substituted for small maxima (default 1)")
    sub.add_argument("--whole-variant", choices=sorted(_VARIANTS), default=None,
                     help="denominator convention for the linear whole index (default plain)")
    sub.add_argument("--config", default=None, help="flat JSON config file; flags win")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--u-range", type=int, default=None, help="inclusive top of the u axis (default 1000)")
    sub.add_argument("--d-range", type=int, default=None, help="inclusive top of the d axis (default 1000)")
    sub.add_argument("--step", type=int, default=None, help="cell spacing (default 1)")
    sub.add_argument("--n-max", type=int, default=None, help="fixed n_max for the grid (default 2000)")
    sub.add_argument("--u-max", type=int, default=None, help="fixed u_max (default: n-max)")
    sub.add_argument("--d-max", type=int, default=None, help="fixed d_max (default: n-max)")
    sub.add_argument("--scorer", choices=("average", "improved", "wilson"), default=None,
                     help="scoring rule for cells (default improved)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotrank",
        description="Score and rank vote-based content with Wilson-interval/spotlight-index blends.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_score = commands.add_parser("score", help="score one up/down tally")
    p_score.add_argument("--up", type=int, required=True)
    p_score.add_argument("--down", type=int, required=True)
    p_score.add_argument("--n-max", type=int, default=None,
                         help="raw question n_max (default: the tally's own total)")
    p_score.add_argument("--u-max", type=int, default=None)
    p_score.add_argument("--d-max", type=int, default=None)
    _add_scoring_flags(p_score)
    p_score.set_defaults(func=cmd_score)

    p_rank = commands.add_parser("rank", help="rank a JSONL tally file")
    p_rank.add_argument("tallies", help="JSONL file of {answer_id, up, down}; - for stdin")
    _add_scoring_flags(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_replay = commands.add_parser("replay", help="replay a JSONL vote-event log")
    p_replay.add_argument("events",
                          help="ts-sorted JSONL of {question_id, answer_id, up_delta, down_delta, ts}; - for stdin")
    _add_scoring_flags(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_grid = commands.add_parser("grid", help="emit one score grid as CSV")
    _add_grid_flags(p_grid)
    p_grid.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    _add_scoring_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid)

    p_sweep = commands.add_parser("sweep", help="emit one CSV per parameter tuple")
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--z-values", default=None, help="comma-separated z list (default 0,1,5,25)")
    p_sweep.add_argument("--p-values", default=None,
                         help="comma-separated P list (default 0,0.25,0.5,0.75,1)")
    p_sweep.add_argument("--kinds", default=None, help="comma-separated kinds (default whole)")
    p_sweep.add_argument("--transforms", default=None, help="comma-separated transforms (default linear)")
    p_sweep.add_argument("--out-dir", default=None, help="output directory (default grids)")
    _add_scoring_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = commands.add_parser("simulate", help="run a seeded vote-stream simulation")
    p_sim.add_argument("profiles",
                       help="JSONL file of {answer_id, up_probability, arrival_weight}; - for stdin")
    p_sim.add_argument("--events", type=int, default=None, help="number of single-vote events (default 1000)")
    p_sim.add_argument("--seed", type=int, default=None, help="stream seed (default 0)")
    p_sim.add_argument("--cadence", type=int, default=None, help="events between ranking snapshots (default 100)")
    p_sim.add_argument("--trajectory-out", default=None, help="snapshot JSONL path (default trajectory.jsonl)")
    p_sim.add_argument("--report-out", default=None, help="stability report JSON path (default report.json)")
    _add_scoring_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return rc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout went away; point stdout at devnull so the
        # flush at exit does not raise again (see the Python signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
