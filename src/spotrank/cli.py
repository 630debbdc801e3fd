"""Command-line surface: score, rank, replay, grid, sweep, simulate.

Conventions shared by every subcommand: exit 0 on success and 2 on any
usage/config/input or write error; data goes to stdout (or the requested
files), errors to stderr, never mixed; output is deterministic for identical inputs.
Human-facing numbers carry 6 fractional digits, machine-facing JSONL/CSV 12
significant digits.

Each flag is declared once, in a table that maps it to its converter, its
default and its help.  A flat JSON config file (``--config``) may pre-set any
flag but ``--up``/``--down``; keys equal the flag names without the leading
dashes, and explicit flags win.  A flag's value and a config value go through
the same converter, so they pass the same checks and fail with the same
message.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, TextIO

from .grids import (
    AverageRatingScorer,
    GridSpec,
    ImprovedScorer,
    SweepSpec,
    WilsonScorer,
    _open_output,
    check_grid,
    emit_csv,
    grid_scores,  # not called here; bench/tracer.py wraps it under this name
)
from .scoring import (
    Bound,
    _TRANSFORM_NAMES,
    ConfigError,
    InconsistentMaximaError,
    ScoreBreakdown,
    ScoringConfig,
    SiKind,
    SiTransform,
    VoteTally,
    WholeSiVariant,
    check_coverage,
    combined_score,
    effective_maxima,
)
from .simulate import (
    SIM_QUESTION_ID,
    AnswerProfile,
    StreamSpec,
    _snapshot_stream,
    _StabilityFold,
    simulate,  # not called here; bench/tracer.py wraps it under this name
    stability_report,  # not called here; bench/tracer.py wraps it under this name
)
from .state import (
    NegativeCountError,
    QuestionState,
    VoteEvent,
    _rank_counts,
    rank_answers,  # not called here; bench/tracer.py wraps it under this name
)


class CliError(Exception):
    """Any input/config problem; rendered to stderr with exit code 2."""


_KINDS = {kind.value: kind for kind in SiKind}
_BOUNDS = {bound.value: bound for bound in Bound}
_VARIANTS = {variant.value: variant for variant in WholeSiVariant}
_TRANSFORM_BY_NAME = {name: name for name in _TRANSFORM_NAMES}
_SCORERS: dict[str, Callable[[ScoringConfig], Any]] = {
    "improved": ImprovedScorer,
    "wilson": lambda config: WilsonScorer(config.z, config.bound),
    "average": lambda config: AverageRatingScorer(),
}

# JSON integers and integer flags beyond the signed 64-bit range are
# rejected: vote counts that large overflow float64 in the scoring arithmetic
# (10**320 cannot be converted at all), and every real count, delta,
# timestamp, grid size and seed fits (seeds are taken modulo 2**64)
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1

# each character str.splitlines() breaks at, as its escape: a message that
# quotes a path or an argument stays one line
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}

# json.dumps spells the non-finite floats this way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json12(x: float) -> str:
    """``json.dumps(_round12(x))``, without building a JSON encoder."""
    text = repr(_round12(x))
    return _JSON_NONFINITE.get(text, text)


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


def _to_path(flag: str, value: Any) -> str:
    # a path the OS cannot take (a NUL, a lone surrogate) fails here, not as
    # a ValueError halfway through writing the outputs
    try:
        if b"\0" not in os.fsencode(value):
            return value
    except (TypeError, UnicodeEncodeError):
        pass
    raise CliError(f"{flag}: expected a path, got {value!r}")


def _many(convert: Callable[[str, Any], Any]) -> Callable[[str, Any], tuple]:
    """Converter of a comma-separated string, or a JSON list, item by item."""

    def convert_items(flag: str, value: Any) -> tuple:
        if isinstance(value, str):
            value = [item.strip() for item in value.split(",") if item.strip()]
        elif not isinstance(value, list):
            raise CliError(f"{flag}: expected a comma-separated list, got {value!r}")
        if not value:
            raise CliError(f"{flag}: list must be non-empty")
        return tuple(convert(flag, item) for item in value)

    return convert_items


class _Choice:
    """Converter to the entry of ``table`` that a value names."""

    def __init__(self, table: Mapping[str, Any]):
        self.table = table

    def __call__(self, flag: str, value: Any) -> Any:
        if isinstance(value, str) and value in self.table:
            return self.table[value]
        raise CliError(f"{flag}: expected one of {', '.join(self.table)}, got {value!r}")


class _Flag(NamedTuple):
    """One flag: its converter, its default as it would be typed (None: the
    command works it out, as the help says) and its help."""

    convert: Callable[[str, Any], Any]
    default: str | None
    help: str
    required: bool = False  # given on the command line only, never in a config file


_SCORING_FLAGS = {
    "z": _Flag(_to_float, "2", "normal quantile"),
    "p-weight": _Flag(_to_float, "0.5", "weight of the Wilson term, in [0, 1]"),
    "kind": _Flag(_Choice(_KINDS), "whole", "spotlight index kind"),
    "transform": _Flag(_Choice(_TRANSFORM_BY_NAME), "linear", "index transform"),
    "poly-a": _Flag(_to_float, "2", "exponent for --transform poly"),
    "bound": _Flag(_Choice(_BOUNDS), "lower", "which interval bound to blend"),
    "n-max-floor": _Flag(_to_int, "1", "minimum substituted for small maxima"),
    "whole-variant": _Flag(_Choice(_VARIANTS), "plain",
                           "denominator convention for the linear whole index"),
}

# a lone tally is its own question: maxima default to its own counts, and
# must cover them once floored (scoring.check_coverage)
_SCORE_FLAGS = {
    "up": _Flag(_to_int, None, "up-votes of the tally", required=True),
    "down": _Flag(_to_int, None, "down-votes of the tally", required=True),
    "n-max": _Flag(_to_int, None, "raw question n_max, >= up+down unless the kind is upvote or "
                                  "downvote (default: the tally's own total)"),
    "u-max": _Flag(_to_int, None, "raw question u_max, >= up for kind upvote (default: up)"),
    "d-max": _Flag(_to_int, None, "raw question d_max, >= down for kind downvote (default: down)"),
}

_GRID_FLAGS = {
    "u-range": _Flag(_to_int, "1000", "inclusive top of the u axis"),
    "d-range": _Flag(_to_int, "1000", "inclusive top of the d axis"),
    "step": _Flag(_to_int, "1", "cell spacing"),
    "n-max": _Flag(_to_int, "2000", "fixed n_max for the grid"),
    "u-max": _Flag(_to_int, None, "fixed u_max (default: n-max)"),
    "d-max": _Flag(_to_int, None, "fixed d_max (default: n-max)"),
    "scorer": _Flag(_Choice(_SCORERS), "improved", "scoring rule for cells"),
}

_GRID_OUT_FLAGS = {
    # null in a config file means stdout, as when --out is not given
    "out": _Flag(lambda flag, value: value if value is None else _to_path(flag, value), None,
                 "output CSV path (default: stdout)"),
}

_SWEEP_FLAGS = {
    "z-values": _Flag(_many(_to_float), "0,1,5,25", "comma-separated z list"),
    "p-values": _Flag(_many(_to_float), "0,0.25,0.5,0.75,1", "comma-separated P list"),
    "kinds": _Flag(_many(_Choice(_KINDS)), "whole", "comma-separated kinds"),
    "transforms": _Flag(_many(_Choice(_TRANSFORM_BY_NAME)), "linear", "comma-separated transforms"),
    "out-dir": _Flag(_to_path, "grids", "output directory"),
}

_SIMULATE_FLAGS = {
    "events": _Flag(_to_int, "1000", "number of single-vote events"),
    "seed": _Flag(_to_int, "0", "stream seed"),
    "cadence": _Flag(_to_int, "100", "events between ranking snapshots"),
    "trajectory-out": _Flag(_to_path, "trajectory.jsonl", "snapshot JSONL path"),
    "report-out": _Flag(_to_path, "report.json", "stability report JSON path"),
}


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
    # one set for every subcommand, so one file can serve several
    known = {name for _, _, groups, _ in _COMMANDS.values()
             for group in groups for name, flag in group.items() if not flag.required}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CliError(f"config file {path}: unknown keys {', '.join(unknown)}")
    return data


def _flag_values(args: argparse.Namespace) -> dict[str, Any]:
    """Each flag of the subcommand, converted: as given, else from the config
    file, else its default, where None means the command works it out."""
    file_values = _load_config_file(_to_path("config", args.config)) if args.config else {}
    values: dict[str, Any] = {}
    for name, flag in args.flags.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            value = file_values.get(name, flag.default)
        absent = value is None and name not in file_values
        values[name] = None if absent else flag.convert(name, value)
    return values


def _transform_from(name: str, poly_a: float) -> SiTransform:
    return SiTransform(name, poly_a) if name == "poly" else SiTransform(name)


def resolve_scoring_config(opts: dict[str, Any]) -> ScoringConfig:
    try:
        return ScoringConfig(
            z=opts["z"],
            p_weight=opts["p-weight"],
            si_kind=opts["kind"],
            si_transform=_transform_from(opts["transform"], opts["poly-a"]),
            bound=opts["bound"],
            n_max_floor=opts["n-max-floor"],
            whole_variant=opts["whole-variant"],
        )
    except ConfigError as exc:  # it names a field; users see flag spellings
        flag = "poly-a" if exc.field == "si_transform.exponent" else exc.field.replace("_", "-")
        raise CliError(f"{flag}: {exc.reason}") from exc


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
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate
        raise CliError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """:func:`_open_input`, closed afterwards, except stdin itself.

    Text is decoded in chunks as it is read, so a byte that is not UTF-8 is
    reported for the input, not for a line.
    """
    fh = _open_input(path)
    name = "stdin" if path == "-" else path
    try:
        yield fh
    except UnicodeDecodeError as exc:
        raise CliError(f"{name}: not valid UTF-8 ({exc.reason})") from exc
    except OSError as exc:  # so that every OSError main sees is a write's
        raise CliError(f"cannot read {name}: {exc}") from exc
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
# _objects calls the scanner by this name; a line it does not take goes
# through decode(), which looks it up on the decoder
_SCAN_ONCE = _DECODER.scan_once
_WHITESPACE = json.decoder.WHITESPACE.match


def _parse_jsonl_line(line_no: int, line: str) -> dict:
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


def _objects(fh: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """The number and JSON object of each non-blank line, in file order.

    A line that is one object from its first character is decoded by one
    scanner call; any other line goes through :func:`_parse_jsonl_line`,
    which raises the message of its first fault.
    """
    scan, whitespace = _SCAN_ONCE, _WHITESPACE
    for line_no, line in enumerate(fh, start=1):
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            obj = None
        if type(obj) is dict and whitespace(line, end).end() == len(line):
            yield line_no, obj
        elif line.strip():
            yield line_no, _parse_jsonl_line(line_no, line)


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
    opts = _flag_values(args)
    config = resolve_scoring_config(opts)
    up, down = opts["up"], opts["down"]
    if up < 0 or down < 0:
        raise CliError("up/down: vote counts must be non-negative")
    tally = VoteTally(up, down)
    own = {"n-max": tally.n, "u-max": tally.up, "d-max": tally.down}
    raw = [own[flag] if opts[flag] is None else opts[flag] for flag in own]
    maxima = effective_maxima(*raw, config.n_max_floor)
    try:
        check_coverage(config.si_kind, maxima, up, down)
    except InconsistentMaximaError as exc:
        raise CliError(f"{exc.field.replace('_', '-')}: {exc}") from exc
    breakdown = combined_score(tally, maxima, config)
    print(f"wilson_lower {breakdown.wilson.lower:.6f}")
    print(f"wilson_upper {breakdown.wilson.upper:.6f}")
    print(f"si {breakdown.si:.6f}")
    print(f"combined {breakdown.combined:.6f}")
    return 0


# --- rank -------------------------------------------------------------------


def _read_tallies(fh: TextIO) -> dict[str, tuple[int, int]]:
    """Each answer's ``(up, down)``, in file order.

    Each line is checked in one expression: a string ``answer_id`` not seen
    before and in-range integer counts.  A line that fails it goes to
    :func:`_tally_error`, which reports the first failing check.
    """
    tallies: dict[str, tuple[int, int]] = {}
    hi = _INT_MAX
    for line_no, obj in _objects(fh):
        get = obj.get
        answer_id = get("answer_id")
        up = get("up")
        down = get("down")
        # type(x) is int excludes bool, as _require_int does
        if not (type(answer_id) is str and type(up) is int and type(down) is int
                and 0 <= up <= hi and 0 <= down <= hi and answer_id not in tallies):
            _tally_error(line_no, obj)
        tallies[answer_id] = (up, down)
    return tallies


def _tally_error(line_no: int, obj: dict) -> NoReturn:
    """Raise the message of the first check a tally line fails; a line that
    passes the field checks repeats an ``answer_id``."""
    answer_id = _require_str(line_no, obj, "answer_id")
    _require_int(line_no, obj, "up", minimum=0)
    _require_int(line_no, obj, "down", minimum=0)
    raise CliError(f"line {line_no}: duplicate answer_id {answer_id!r}")


def _emit_ranking(tallies: Mapping[str, tuple[int, int]], config: ScoringConfig, out: TextIO,
                  question_id: str | None = None) -> None:
    """One JSON object per ranked answer, byte-for-byte what ``json.dumps``
    gives for the same dict, formatted without building the dict.
    ``tallies`` maps each answer id to its ``(up, down)`` in creation order."""
    ids, counts = list(tallies), list(tallies.values())
    order, scored, _ = _rank_counts(counts, config)
    start = "{" if question_id is None else f'{{"question_id": {_json_str(question_id)}, '
    scores = {
        key: f'"wilson_lower": {_json12(breakdown.wilson.lower)}, '
             f'"si": {_json12(breakdown.si)}, "combined": {_json12(breakdown.combined)}}}\n'
        for key, breakdown in scored.items()
    }
    for position, i in enumerate(order, start=1):
        up, down = key = counts[i]
        out.write(f'{start}"rank": {position}, "answer_id": {_json_str(ids[i])}, '
                  f'"up": {up}, "down": {down}, {scores[key]}')


def cmd_rank(args: argparse.Namespace) -> int:
    config = resolve_scoring_config(_flag_values(args))
    with _reading(args.tallies) as fh:
        tallies = _read_tallies(fh)
    if tallies:
        _emit_ranking(tallies, config, sys.stdout)
    return 0


# --- replay -----------------------------------------------------------------


def _replay_events(fh: TextIO) -> dict[str, QuestionState]:
    """Parse, validate and apply each line before reading the next, so memory
    holds the answers seen, never the events; states are in first-appearance
    order of their questions.

    Each line is checked in one expression: five fields of the exact types,
    in range, in timestamp order and with a nonzero delta.  A line that fails
    it goes to :func:`_replay_error`, which reports the first failing check.
    """
    states: dict[str, QuestionState] = {}
    last_ts = _INT_MIN  # every in-range ts passes the order check
    lo, hi = _INT_MIN, _INT_MAX
    for line_no, obj in _objects(fh):
        get = obj.get
        question_id = get("question_id")
        answer_id = get("answer_id")
        up_delta = get("up_delta")
        down_delta = get("down_delta")
        ts = get("ts")
        # type(x) is int excludes bool, as _require_int does
        if not (type(question_id) is str and type(answer_id) is str
                and type(up_delta) is int and type(down_delta) is int and type(ts) is int
                and lo <= up_delta <= hi and lo <= down_delta <= hi
                and last_ts <= ts <= hi and (up_delta or down_delta)):
            _replay_error(line_no, obj, last_ts)
        state = states.get(question_id)
        if state is None:
            state = states[question_id] = QuestionState(question_id)
        try:
            state.apply_delta(answer_id, up_delta, down_delta)
        except NegativeCountError as exc:
            raise CliError(f"line {line_no}: {exc}") from exc
        last_ts = ts
    return states


def _replay_error(line_no: int, obj: dict, last_ts: int) -> None:
    """Raise the message of the first check an event line fails; the message
    of a zero delta is :class:`VoteEvent`'s."""
    question_id = _require_str(line_no, obj, "question_id")
    answer_id = _require_str(line_no, obj, "answer_id")
    up_delta = _require_int(line_no, obj, "up_delta")
    down_delta = _require_int(line_no, obj, "down_delta")
    ts = _require_int(line_no, obj, "ts")
    if ts < last_ts:
        raise CliError(f"line {line_no}: out-of-order timestamp {ts} after {last_ts}")
    try:
        VoteEvent(question_id, answer_id, up_delta, down_delta, ts)
    except ValueError as exc:
        raise CliError(f"line {line_no}: {exc}") from exc


def cmd_replay(args: argparse.Namespace) -> int:
    config = resolve_scoring_config(_flag_values(args))
    with _reading(args.events) as fh:
        states = _replay_events(fh)
    # written only after the last line, so a bad line leaves stdout empty
    for question_id, state in states.items():
        _emit_ranking(state._counts, config, sys.stdout, question_id=question_id)
    return 0


# --- output files -----------------------------------------------------------


@contextmanager
def _outputs(targets: Iterable[str | Path]) -> Iterator[list[str]]:
    """Yield the path each target's bytes go to, once no two targets name one
    file (compared after ``realpath``: ``F``, ``sub/../F`` and a link to ``F``
    are one) and none is a directory.  A regular or absent target is staged
    beside the file it names, so a link is written through, and renamed onto
    it, with the permission bits it had, only if the block ends without
    error; any other target, such as a FIFO or a device, is written in place."""
    targets = list(map(str, targets))
    # realpath, as Path.resolve, but without raising on a symlink loop
    reals = [os.path.realpath(target) for target in targets]
    paths, staged = [], {}  # staged: temp -> (file named, target, its mode or None)
    for target, real in zip(targets, reals):
        if reals.count(real) > 1:
            raise CliError(f"two outputs name {real}")
        try:
            mode = os.stat(real).st_mode
        except FileNotFoundError:
            mode = None  # staged, as a regular file is, with the mode open() gives
        if mode is not None and stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        path = target
        if mode is None or stat.S_ISREG(mode):
            head, name = os.path.split(real)
            path = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            staged[path] = (real, target, mode)
        paths.append(path)
    try:
        yield paths
        for tmp, (real, _, mode) in staged.items():
            if mode is not None:
                os.chmod(tmp, mode & 0o777)
            os.replace(tmp, real)
    except OSError as exc:
        if exc.filename in staged:  # name the target, not the temp file beside it
            exc.filename = staged[exc.filename][1]
        raise
    finally:
        for tmp in staged:
            Path(tmp).unlink(missing_ok=True)


# --- grid / sweep -----------------------------------------------------------


def _build_grid_spec(opts: dict[str, Any]) -> GridSpec:
    config = resolve_scoring_config(opts)
    n_max = opts["n-max"]
    u_max = n_max if opts["u-max"] is None else opts["u-max"]
    d_max = n_max if opts["d-max"] is None else opts["d-max"]
    try:
        maxima = effective_maxima(n_max, u_max, d_max, config.n_max_floor)
        return GridSpec(opts["u-range"], opts["d-range"], maxima, opts["scorer"](config),
                        opts["step"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _too_large(spec: GridSpec) -> CliError:
    return CliError(f"a grid row of {spec.shape[1]} cells does not fit in memory")


def cmd_grid(args: argparse.Namespace) -> int:
    opts = _flag_values(args)
    spec = _build_grid_spec(opts)
    out = opts["out"]
    # the spec is checked before --out is looked at, and the first block is
    # computed before the first byte: a refused grid leaves every output as it was
    try:
        check_grid(spec)
        if out is None:
            emit_csv(spec, sys.stdout)
        else:
            with _outputs([out]) as (path,):
                emit_csv(spec, path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise _too_large(spec) from exc
    return 0


# the flag behind each field a sweep point may get wrong
_SWEEP_FIELD_FLAGS = {"z": "z-values", "p_weight": "p-values", "si_transform.exponent": "poly-a"}


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _flag_values(args)
    base = _build_grid_spec(opts)
    if not isinstance(base.scorer, ImprovedScorer):
        raise CliError("sweep requires --scorer improved")
    # SweepSpec checks every point, before any directory or grid is made
    try:
        spec = SweepSpec(
            base=base,
            z_values=opts["z-values"],
            p_values=opts["p-values"],
            kinds=opts["kinds"],
            transforms=tuple(_transform_from(name, opts["poly-a"]) for name in opts["transforms"]),
        )
    except ConfigError as exc:  # reported by its flag, without the point
        raise CliError(f"{_SWEEP_FIELD_FLAGS[exc.field]}: {exc.reason}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise _too_large(base) from exc
    out_dir = Path(opts["out-dir"])
    outputs = [(out_dir / f"grid_{point.slug()}.csv", grid_spec)
               for point, grid_spec in spec.points()]
    try:
        with _outputs(path for path, _ in outputs) as paths:
            out_dir.mkdir(parents=True, exist_ok=True)
            for (_, grid_spec), path in zip(outputs, paths):
                emit_csv(grid_spec, path)
            for path, _ in outputs:
                print(path)
            # flushed before any rename, so a closed stdout is seen while the
            # targets are still untouched
            sys.stdout.flush()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError as exc:
        raise _too_large(base) from exc
    return 0


# --- simulate ----------------------------------------------------------------


def _read_profiles(path: str) -> tuple[AnswerProfile, ...]:
    profiles: list[AnswerProfile] = []
    with _reading(path) as fh:
        for line_no, obj in _objects(fh):
            answer_id = _require_str(line_no, obj, "answer_id")
            up_probability = _require_number(line_no, obj, "up_probability")
            arrival_weight = _require_number(line_no, obj, "arrival_weight", 1.0)
            try:
                profiles.append(AnswerProfile(answer_id, up_probability, arrival_weight))
            except ValueError as exc:
                raise CliError(f"line {line_no}: {exc}") from exc
    return tuple(profiles)


def _trajectory_line(event_index: int, label: str,
                     entries: Iterable[tuple[str, ScoreBreakdown]]) -> str:
    """One snapshot's ranking by one scorer, byte for byte what
    ``json.dumps(..., sort_keys=True)`` gives for its dict, formatted
    without building the dict."""
    ranking = ", ".join(f'{{"answer_id": {_json_str(answer_id)}, "combined": '
                        f'{_json12(breakdown.combined)}}}' for answer_id, breakdown in entries)
    return (f'{{"event_index": {event_index}, "ranking": [{ranking}], '
            f'"scorer": {_json_str(label)}}}\n')


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _flag_values(args)
    config = resolve_scoring_config(opts)
    profiles = _read_profiles(args.profiles)
    try:
        spec = StreamSpec(profiles=profiles, total_events=opts["events"], seed=opts["seed"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    cadence = opts["cadence"]
    if cadence < 1:
        raise CliError("cadence: must be positive")
    scorers = {"wilson": replace(config, p_weight=1.0), "improved": config}
    fold = _StabilityFold(scorers)
    # the outputs are checked before the run; each snapshot is written and
    # folded into the report as it is ranked, then dropped
    with _outputs([opts["trajectory-out"], opts["report-out"]]) as (trajectory_path, report_path):
        with _open_output(trajectory_path) as fh:
            for snap in _snapshot_stream(spec, scorers, cadence, QuestionState(SIM_QUESTION_ID)):
                for label, ranked in snap.rankings.items():
                    fh.write(_trajectory_line(snap.event_index, label, ranked.entries))
                fold.add(snap)
        report_obj: dict[str, Any] = {"scorers": {}, "agreement": []}
        if fold.snapshots >= 2:
            report = fold.report()
            for label, stats in report.per_scorer.items():
                report_obj["scorers"][label] = {
                    "mean_adjacent_tau": _round12(stats.mean_adjacent_tau),
                    "rank_one_changes": stats.rank_one_changes,
                }
            for (label_a, label_b), tau in report.agreement.items():
                report_obj["agreement"].append(
                    {"scorers": [label_a, label_b], "final_tau": _round12(tau)}
                )
        with _open_output(report_path) as fh:
            fh.write(json.dumps(report_obj, sort_keys=True, indent=2) + "\n")
    return 0


# --- parser ------------------------------------------------------------------


# each subcommand: its summary, its positional argument (name, help) if any,
# its flag groups in --help order, and its handler
_COMMANDS = {
    "score": ("score one up/down tally", None, (_SCORE_FLAGS, _SCORING_FLAGS), cmd_score),
    "rank": ("rank a JSONL tally file",
             ("tallies", "JSONL file of {answer_id, up, down}; - for stdin"),
             (_SCORING_FLAGS,), cmd_rank),
    "replay": ("replay a JSONL vote-event log",
               ("events", "ts-sorted JSONL of {question_id, answer_id, up_delta, down_delta, ts};"
                " - for stdin"),
               (_SCORING_FLAGS,), cmd_replay),
    "grid": ("emit one score grid as CSV", None,
             (_GRID_FLAGS, _GRID_OUT_FLAGS, _SCORING_FLAGS), cmd_grid),
    "sweep": ("emit one CSV per parameter tuple", None,
              (_GRID_FLAGS, _SWEEP_FLAGS, _SCORING_FLAGS), cmd_sweep),
    "simulate": ("run a seeded vote-stream simulation",
                 ("profiles", "JSONL file of {answer_id, up_probability, arrival_weight}; - for stdin"),
                 (_SIMULATE_FLAGS, _SCORING_FLAGS), cmd_simulate),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`CliError`: one ``error:`` line, as for any bad input."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)

    def print_help(self, file: TextIO | None = None) -> None:
        # argparse ignores a failed write; main reports it, as any other output's
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    """Flags that only collect strings; :func:`_flag_values` converts them."""
    parser = _Parser(
        prog="spotrank",
        description="Score and rank vote-based content with Wilson-interval/spotlight-index blends.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, positional, groups, handler) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        if positional is not None:
            sub.add_argument(positional[0], help=positional[1])
        flags = {name: flag for group in groups for name, flag in group.items()}
        for name, flag in flags.items():
            choices = flag.convert.table if isinstance(flag.convert, _Choice) else None
            sub.add_argument(
                f"--{name}", required=flag.required,
                metavar=None if choices is None else "{" + ",".join(choices) + "}",
                help=flag.help if flag.default is None else f"{flag.help} (default {flag.default})",
            )
        sub.add_argument("--config", help="flat JSON config file; flags win")
        sub.set_defaults(func=handler, flags=flags)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stdout is None:  # started with fd 1 closed: a pipe with no reader stands in
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w", encoding="utf-8", closefd=False)
    try:
        try:
            args = build_parser().parse_args(argv)
            rc = args.func(args)
        except SystemExit as exc:  # --help exits 0; usage errors raise CliError
            rc = int(exc.code or 0)
        sys.stdout.flush()  # a failed stdout shows here, not at interpreter exit
        return rc
    except CliError as exc:
        message = str(exc)
    except OSError as exc:  # _reading reports read errors, so this is a write's
        # an output file's error names it, so one that names no file is stdout's
        message = ("stdout was closed before all output was written"
                   if isinstance(exc, BrokenPipeError) and exc.filename is None
                   else f"cannot write output: {exc}")
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed: point it at devnull so the flush at
            # exit does not raise again (see the Python signal docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    # started with fd 2 closed, stderr is None or a stream whose writes fail;
    # the exit code alone then tells of the error
    if sys.stderr is not None:
        try:
            print(f"error: {message.translate(_LINE_BREAKS)}", file=sys.stderr, flush=True)
        except OSError:
            pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
