import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import rank_reference, ranking_reference, replay_reference, si_range
from spotrank import cli
from spotrank.cli import main
from spotrank.scoring import (EXP, LINEAR, LOG10, ScoringConfig, SiKind, SiTransform, VoteTally,
                              combined_score, effective_maxima, poly)
from spotrank.state import AnswerEntry, QuestionState, VoteEvent, rank_answers

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


# --- score ---------------------------------------------------------------------


def test_score_unanimous_pure_wilson(capsys):
    rc, out, err = run(capsys, "score", "--up", "10", "--down", "0",
                       "--z", "2", "--p-weight", "1", "--kind", "whole")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert "wilson_lower 0.714286" in lines
    assert "wilson_upper 1.000000" in lines
    assert "combined 0.714286" in lines


def test_score_no_votes_does_not_crash(capsys):
    rc, out, err = run(capsys, "score", "--up", "0", "--down", "0", "--z", "2")
    assert rc == 0
    lines = out.splitlines()
    assert "wilson_lower 0.000000" in lines
    assert "wilson_upper 1.000000" in lines


def test_score_bad_weight_names_flag(capsys):
    rc, out, err = run(capsys, "score", "--up", "1", "--down", "1", "--p-weight", "1.5")
    assert rc == 2
    assert out == ""
    assert "p-weight" in err


def test_score_rejects_negative_counts(capsys):
    rc, _, err = run(capsys, "score", "--up", "-1", "--down", "0")
    assert rc == 2
    assert "non-negative" in err


@pytest.mark.parametrize("flag", ["up", "down", "n-max", "u-max", "d-max", "n-max-floor"])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**400],
                         ids=["2**63", "-2**63-1", "10**400"])
def test_score_integer_flags_beyond_int64_are_out_of_range(capsys, flag, value):
    counts = {"up": "1", "down": "0", flag: str(value)}
    rc, out, err = run(capsys, "score", *(arg for name, v in counts.items() for arg in (f"--{name}", v)))
    assert rc == 2 and out == ""
    assert err == f"error: {flag}: out of range\n"


def test_score_explicit_maxima(capsys):
    rc, out, _ = run(capsys, "score", "--up", "10", "--down", "0",
                     "--z", "2", "--p-weight", "0", "--n-max", "100")
    assert rc == 0
    assert "si 0.100000" in out.splitlines()


def test_score_poly_zero_exponent_names_flag(capsys):
    rc, _, err = run(capsys, "score", "--up", "1", "--down", "0",
                     "--transform", "poly", "--poly-a", "0")
    assert rc == 2
    assert "poly-a" in err


# --- rank ----------------------------------------------------------------------


TRIO = [
    {"answer_id": "small", "up": 1, "down": 0},
    {"answer_id": "split", "up": 25, "down": 25},
    {"answer_id": "big", "up": 50, "down": 50},
]


def test_rank_spotlight_column(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, TRIO)
    rc, out, err = run(capsys, "rank", str(path), "--z", "2", "--p-weight", "0.5",
                       "--kind", "whole", "--transform", "linear")
    assert rc == 0 and err == ""
    rows = parse_jsonl(out)
    si_by_id = {row["answer_id"]: row["si"] for row in rows}
    assert si_by_id == {"small": 0.01, "split": 0.5, "big": 1.0}
    assert [row["rank"] for row in rows] == [1, 2, 3]
    scores = [row["combined"] for row in rows]
    assert scores == sorted(scores, reverse=True)


def test_rank_full_weight_matches_wilson_order(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, TRIO)
    rc, out, _ = run(capsys, "rank", str(path), "--z", "2", "--p-weight", "1")
    assert rc == 0
    rows = parse_jsonl(out)
    by_wilson = sorted(rows, key=lambda r: r["wilson_lower"], reverse=True)
    assert [r["answer_id"] for r in rows] == [r["answer_id"] for r in by_wilson]
    for row in rows:
        assert row["combined"] == row["wilson_lower"]


def test_rank_duplicate_id_rejected(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, [{"answer_id": "a", "up": 1, "down": 0},
                       {"answer_id": "a", "up": 2, "down": 0}])
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 2 and out == ""
    assert "'a'" in err


def test_rank_malformed_line_reports_number(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    path.write_text('{"answer_id": "a", "up": 1, "down": 0}\nnot json\n', encoding="utf-8")
    rc, _, err = run(capsys, "rank", str(path))
    assert rc == 2
    assert "line 2" in err


def test_rank_type_errors_report_field(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    path.write_text('{"answer_id": "a", "up": -1, "down": 0}\n', encoding="utf-8")
    rc, _, err = run(capsys, "rank", str(path))
    assert rc == 2
    assert "up" in err


def test_rank_empty_input_is_empty_success(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    path.write_text("", encoding="utf-8")
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 0 and out == "" and err == ""


def test_rank_reads_stdin(tmp_path, capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b'{"answer_id": "a", "up": 3, "down": 1}\n'))
    monkeypatch.setattr("sys.stdin", stdin)
    rc, out, _ = run(capsys, "rank", "-")
    assert rc == 0
    rows = parse_jsonl(out)
    assert rows[0]["answer_id"] == "a" and rows[0]["up"] == 3


def test_rank_missing_file(capsys):
    rc, _, err = run(capsys, "rank", "/nonexistent/tallies.jsonl")
    assert rc == 2
    assert "cannot read" in err


# ids json.dumps must escape: quotes, backslashes, control and non-ASCII characters
AWKWARD_IDS = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\t\n\x7f",
               "\u00fcn\u00efc\u00f8d\u00e9 \u2603 \U0001d11e", "</script>", ""]


def test_rank_output_bytes_match_json_dumps(tmp_path, capsys):
    rows = [{"answer_id": a, "up": 40 * i, "down": 30 * (5 - i)} for i, a in enumerate(AWKWARD_IDS)]
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, rows)
    rc, out, err = run(capsys, "rank", str(path), "--kind", "net", "--transform", "log")
    assert rc == 0 and err == ""
    entries = [AnswerEntry(r["answer_id"], VoteTally(r["up"], r["down"]), i) for i, r in enumerate(rows)]
    ranked = rank_answers(entries, ScoringConfig(si_kind=SiKind.NET, si_transform=LOG10))
    assert out == ranking_reference(ranked.entries, {e.answer_id: e.tally for e in entries})


def _fake_ranking(monkeypatch, ranked_entries, tallies):
    """Make the ranking kernel behind ``rank`` return ``ranked_entries``
    (answer id, breakdown) for the answers ``tallies`` (id -> tally), in
    file order."""
    position = {answer_id: i for i, answer_id in enumerate(tallies)}
    scored = {(tallies[answer_id].up, tallies[answer_id].down): breakdown
              for answer_id, breakdown in ranked_entries}
    order = [position[answer_id] for answer_id, _ in ranked_entries]
    monkeypatch.setattr(cli, "_rank_counts", lambda *args: (order, scored, None))


def test_rank_output_bytes_match_json_dumps_on_special_floats(tmp_path, capsys, monkeypatch):
    scores = {  # answer_id -> (wilson_lower, si, combined)
        "a": (-0.0, math.nan, math.inf),
        "b": (5e-324, -math.inf, 1e22),
        "c": (0.1 + 0.2, 1.7976931348623157e308, -123456789012345.6),
    }
    tallies = {"a": VoteTally(1, 0), "b": VoteTally(2, 0), "c": VoteTally(0, 1)}
    fake = tuple(
        (answer_id, SimpleNamespace(wilson=SimpleNamespace(lower=w), si=si, combined=c))
        for answer_id, (w, si, c) in scores.items()
    )
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, [{"answer_id": a, "up": t.up, "down": t.down} for a, t in tallies.items()])
    _fake_ranking(monkeypatch, fake, tallies)
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 0 and err == ""
    assert out == ranking_reference(fake, tallies)
    assert "NaN" in out and "-Infinity" in out and '"wilson_lower": -0.0' in out


def test_rank_prints_each_rows_own_tally_when_a_breakdown_is_shared(tmp_path, capsys, monkeypatch):
    shared = SimpleNamespace(wilson=SimpleNamespace(lower=0.25), si=0.1 + 0.2, combined=-0.0)
    tallies = {"a": VoteTally(1, 0), "b": VoteTally(7, 3), "c": VoteTally(0, 12)}
    fake = tuple((answer_id, shared) for answer_id in ("c", "a", "b"))
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, [{"answer_id": a, "up": t.up, "down": t.down} for a, t in tallies.items()])
    _fake_ranking(monkeypatch, fake, tallies)
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 0 and err == ""
    assert out == ranking_reference(fake, tallies)


_OBJECT = '{"answer_id": "a", "up": 1, "down": 0}'
_PARSED = {"answer_id": "a", "up": 1, "down": 0}


@pytest.mark.parametrize("line,expected", [
    pytest.param(_OBJECT + "\n", _PARSED, id="object"),
    pytest.param(_OBJECT, _PARSED, id="no-newline"),
    pytest.param("{}\n", {}, id="empty-object"),
    pytest.param(" \t" + _OBJECT + "\n", _PARSED, id="leading-whitespace"),
    pytest.param(_OBJECT + " \t \n", _PARSED, id="trailing-whitespace"),
    pytest.param(_OBJECT + "\r\n", _PARSED, id="crlf"),
    pytest.param("\ufeff" + _OBJECT + "\n", "Unexpected UTF-8 BOM", id="bom"),
    pytest.param(_OBJECT + " x\n", "Extra data", id="extra-data"),
    pytest.param(_OBJECT + _OBJECT + "\n", "Extra data", id="two-objects"),
    pytest.param(_OBJECT + "\x0b\n", "Extra data", id="non-json-whitespace"),
    pytest.param("[1, 2]\n", "expected a JSON object", id="array"),
    pytest.param("7\n", "expected a JSON object", id="number"),
    pytest.param("null\n", "expected a JSON object", id="null"),
    pytest.param('{"answer_id": "a", "up": NaN}\n', "non-finite number NaN", id="nan-field"),
    pytest.param("-Infinity\n", "non-finite number -Infinity", id="infinity"),
    pytest.param('{"up": ' + "9" * 5000 + "}\n", "digits", id="int-5000-digits"),
    pytest.param('{"answer_id": "a", "up": 1\n', "Expecting", id="unterminated"),
    pytest.param(" \n", "Expecting value", id="blank"),
    pytest.param("[" * 200_000 + "\n", "maximum recursion depth exceeded", id="deep-array"),
    pytest.param('{"a": ' * 100_000 + "\n", "maximum recursion depth exceeded", id="deep-object"),
])
def test_parse_line_matches_the_decode_path(monkeypatch, line, expected):
    def outcome():
        try:
            return cli._parse_jsonl_line(3, line)
        except cli.CliError as exc:
            return str(exc)

    fast = outcome()
    # the decode path alone, as if the single scanner call never matched
    def no_match(string, idx):
        raise StopIteration(idx)

    monkeypatch.setattr(cli, "_DECODER",
                        SimpleNamespace(decode=cli._DECODER.decode, scan_once=no_match))
    assert fast == outcome()
    if isinstance(expected, dict):
        assert fast == expected
    else:
        assert fast.startswith("line 3: ") and expected in fast and "\n" not in fast


@pytest.mark.parametrize("command", ["rank", "replay", "simulate"])
def test_deeply_nested_line_exits_2_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "input.jsonl"
    path.write_text("\n" + "[" * 200_000 + "\n", encoding="utf-8")
    outputs = ["--trajectory-out", str(tmp_path / "t.jsonl"), "--report-out", str(tmp_path / "r.json")]
    rc, out, err = run(capsys, command, str(path), *(outputs if command == "simulate" else []))
    assert rc == 2 and out == ""
    assert err.startswith("error: line 2: invalid JSON (maximum recursion depth exceeded")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.jsonl"]


@pytest.mark.parametrize("command", ["rank", "replay", "simulate"])
def test_input_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "input.jsonl"
    # the bad byte sits past the first decode chunk of the file
    path.write_bytes(b"\n" * 10_000 + b'{"answer_id": "a\xff"}\n')
    outputs = ["--trajectory-out", str(tmp_path / "t.jsonl"), "--report-out", str(tmp_path / "r.json")]
    rc, out, err = run(capsys, command, str(path), *(outputs if command == "simulate" else []))
    assert rc == 2 and out == ""
    assert err == f"error: {path}: not valid UTF-8 (invalid start byte)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.jsonl"]


def test_stdin_that_is_not_utf8_exits_2_in_utf8_mode():
    # UTF-8 mode gives sys.stdin the surrogateescape handler, which would
    # let the byte through into the output
    result = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "spotrank", "rank", "-"],
        input=b'{"answer_id": "a", "up": 1, "down": 0}\n{"answer_id": "\xff", "up": 1, "down": 0}\n',
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr == b"error: stdin: not valid UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_rank_rejects_non_finite_literals(tmp_path, capsys, literal):
    path = tmp_path / "tallies.jsonl"
    path.write_text('{"answer_id": "a", "up": 1, "down": 0}\n'
                    f'{{"answer_id": "b", "up": {literal}, "down": 0}}\n', encoding="utf-8")
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: line 2: invalid JSON (non-finite number {literal})\n"


def test_rank_rejects_integer_literal_too_long_to_convert(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    path.write_text('{"answer_id": "a", "up": ' + "9" * 5000 + ', "down": 0}\n', encoding="utf-8")
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: line 1: invalid JSON (") and len(err.splitlines()) == 1


def test_rank_names_a_leading_bom(tmp_path, capsys):
    path = tmp_path / "tallies.jsonl"
    path.write_text('\ufeff{"answer_id": "a", "up": 1, "down": 0}\n', encoding="utf-8")
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 2 and out == ""
    assert err == "error: line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"


@pytest.mark.parametrize("up,accepted", [(2**63 - 1, True), (2**63, False), (10**320, False)])
def test_rank_counts_beyond_int64_are_out_of_range(tmp_path, capsys, up, accepted):
    path = tmp_path / "tallies.jsonl"
    write_jsonl(path, [{"answer_id": "a", "up": up, "down": 1}])
    rc, out, err = run(capsys, "rank", str(path))
    if accepted:
        assert rc == 0 and err == "" and parse_jsonl(out)[0]["up"] == up
    else:
        assert rc == 2 and out == ""
        assert err == "error: line 1: field 'up' is out of range\n"


def _full_decoder_only(monkeypatch):
    """Send every rank and replay line through the full decoder,
    ``cli._parse_jsonl_line``, instead of one scanner call."""
    def no_scan(line, idx):
        raise StopIteration(idx)
    monkeypatch.setattr(cli, "_SCAN_ONCE", no_scan)


_TALLY_LINES = [
    '{"answer_id": "a", "up": 1, "down": 0}\n',
    '{"answer_id": "b", "up": 7, "down": 3}\n',
    '{"answer_id": "c", "up": 0, "down": 2}\n',
]
_TALLY_2 = _TALLY_LINES[1]

# line 2 of _TALLY_LINES replaced, with the stderr the full-decoder path
# gives (None marks a line that is accepted) and, where given, line 1
# replaced too
_BAD_TALLY_LINE_2 = {
    "blank": ("\n", None),
    "whitespace-only": (" \t \n", None),
    "leading-space": (" " + _TALLY_2, None),
    "crlf": (_TALLY_2[:-1] + "\r\n", None),
    "bom": ("\ufeff" + _TALLY_2,
            "error: line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"),
    "trailing-junk": (_TALLY_2[:-1] + " x\n", "error: line 2: invalid JSON (Extra data)\n"),
    "array": ("[1, 2]\n", "error: line 2: expected a JSON object\n"),
    "nan": (_TALLY_2.replace('"up": 7', '"up": NaN'),
            "error: line 2: invalid JSON (non-finite number NaN)\n"),
    "bool-count": (_TALLY_2.replace('"up": 7', '"up": true'),
                   "error: line 2: field 'up' must be an integer\n"),
    "float-count": (_TALLY_2.replace('"down": 3', '"down": 3.0'),
                    "error: line 2: field 'down' must be an integer\n"),
    "count-2**63": (_TALLY_2.replace('"up": 7', f'"up": {2**63}'),
                    "error: line 2: field 'up' is out of range\n"),
    "negative-count": (_TALLY_2.replace('"down": 3', '"down": -1'),
                       "error: line 2: field 'down' must be >= 0\n"),
    "missing-field": (_TALLY_2.replace(', "down": 3', ""),
                      "error: line 2: field 'down' must be an integer\n"),
    "non-string-id": (_TALLY_2.replace('"answer_id": "b"', '"answer_id": 5'),
                      "error: line 2: field 'answer_id' must be a string\n"),
    "bad-id-before-bad-count": ('{"answer_id": null, "up": -1}\n',
                                "error: line 2: field 'answer_id' must be a string\n"),
    "duplicate-after-one-pass-line": (_TALLY_2.replace('"b"', '"a"'),
                                      "error: line 2: duplicate answer_id 'a'\n"),
    "duplicate-after-fallback-line": (_TALLY_2.replace('"b"', '"a"'),
                                      "error: line 2: duplicate answer_id 'a'\n",
                                      " " + _TALLY_LINES[0]),
    "duplicate-on-fallback-line": (" " + _TALLY_2.replace('"b"', '"a"'),
                                   "error: line 2: duplicate answer_id 'a'\n"),
    "deep-nesting": ("[" * 200_000 + "\n",
                     "error: line 2: invalid JSON (maximum recursion depth exceeded"
                     " while decoding a JSON array from a unicode string)\n"),
}


@pytest.mark.parametrize("one_pass", [True, False], ids=["one-pass", "checked-only"])
@pytest.mark.parametrize("case", list(_BAD_TALLY_LINE_2))
def test_rank_bad_line_table(tmp_path, capsys, monkeypatch, case, one_pass):
    line, expected_err, *first = _BAD_TALLY_LINE_2[case]
    lines = [*(first or _TALLY_LINES[:1]), line, _TALLY_LINES[2]]
    if not one_pass:
        _full_decoder_only(monkeypatch)
    path = tmp_path / "tallies.jsonl"
    # newline="" keeps the CR of the CRLF case on disk
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    rc, out, err = run(capsys, "rank", str(path))
    if expected_err is None:
        # blank lines are skipped, leading whitespace is JSON whitespace and
        # a CRLF ending is read as "\n"
        kept = _TALLY_LINES if line.strip() else [_TALLY_LINES[0], _TALLY_LINES[2]]
        assert (rc, err) == (0, "")
        assert out == rank_reference(kept)[1]
    else:
        assert (rc, out, err) == (2, "", expected_err)
    with open(path, encoding="utf-8") as fh:
        assert (rc, out, err) == rank_reference(fh)


_TALLY_VALUES = st.one_of(
    st.integers(-2, 5), st.integers(), st.sampled_from([2**63 - 1, 2**63, -1]),
    st.booleans(), st.none(), st.floats(allow_nan=False), st.text(max_size=3),
)

_TALLY_MUTATIONS = st.one_of(
    st.sampled_from([case[0] for case in _BAD_TALLY_LINE_2.values() if len(case[0]) < 1000]),
    st.text(max_size=20).map(lambda text: text + "\n"),
    st.builds(
        lambda key, value: json.dumps({"answer_id": "x", "up": 1, "down": 0, key: value}) + "\n",
        st.sampled_from(["answer_id", "up", "down", "x"]),
        _TALLY_VALUES,
    ),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    tallies=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6), st.integers(0, 6)),
                     max_size=25),
    mutations=st.lists(st.tuples(st.integers(0, 30), _TALLY_MUTATIONS), max_size=3),
    kind=st.sampled_from(list(SiKind)),
    transform=st.sampled_from(["linear", "log", "exp"]),
)
def test_rank_equals_the_per_line_reference(tmp_path, capsys, tallies, mutations, kind, transform):
    lines = [json.dumps({"answer_id": f"a{i}", "up": up, "down": down}) + "\n"
             for i, up, down in tallies]
    for position, line in mutations:
        lines.insert(min(position, len(lines)), line)
    path = tmp_path / "tallies.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    result = run(capsys, "rank", str(path), "--kind", kind.value, "--transform", transform)
    config = ScoringConfig(si_kind=kind, si_transform=SiTransform(transform))
    with open(path, encoding="utf-8") as fh:
        assert result == rank_reference(fh, config)


# --- replay --------------------------------------------------------------------


def test_replay_accumulates_tallies(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1},
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 2},
    ])
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 0 and err == ""
    rows = parse_jsonl(out)
    assert rows == [dict(question_id="q", rank=1, answer_id="a", up=2, down=0,
                         wilson_lower=rows[0]["wilson_lower"], si=rows[0]["si"],
                         combined=rows[0]["combined"])]


def test_replay_matches_batch_rank(tmp_path, capsys):
    events, tallies = [], []
    counts = {"a": (3, 1), "b": (10, 0), "c": (5, 5)}
    ts = 0
    for answer_id, (up, down) in counts.items():
        tallies.append({"answer_id": answer_id, "up": up, "down": down})
        for _ in range(up):
            events.append({"question_id": "q", "answer_id": answer_id,
                           "up_delta": 1, "down_delta": 0, "ts": ts})
            ts += 1
        for _ in range(down):
            events.append({"question_id": "q", "answer_id": answer_id,
                           "up_delta": 0, "down_delta": 1, "ts": ts})
            ts += 1
    events_path = tmp_path / "events.jsonl"
    tallies_path = tmp_path / "tallies.jsonl"
    write_jsonl(events_path, events)
    write_jsonl(tallies_path, tallies)

    rc_r, out_replay, _ = run(capsys, "replay", str(events_path), "--p-weight", "0.5")
    rc_b, out_rank, _ = run(capsys, "rank", str(tallies_path), "--p-weight", "0.5")
    assert rc_r == 0 and rc_b == 0
    replay_rows = parse_jsonl(out_replay)
    for row in replay_rows:
        row.pop("question_id")
    assert replay_rows == parse_jsonl(out_rank)


def test_replay_multiple_questions_in_first_seen_order(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q2", "answer_id": "x", "up_delta": 1, "down_delta": 0, "ts": 1},
        {"question_id": "q1", "answer_id": "y", "up_delta": 1, "down_delta": 0, "ts": 2},
        {"question_id": "q2", "answer_id": "z", "up_delta": 0, "down_delta": 1, "ts": 3},
    ])
    rc, out, _ = run(capsys, "replay", str(path))
    assert rc == 0
    rows = parse_jsonl(out)
    assert [row["question_id"] for row in rows] == ["q2", "q2", "q1"]


def test_replay_out_of_order_timestamp(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 5},
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 4},
    ])
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 2 and out == ""
    assert "line 2" in err and "out-of-order" in err


def test_replay_rejected_retraction_reports_line(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1},
        {"question_id": "q", "answer_id": "a", "up_delta": -2, "down_delta": 0, "ts": 2},
    ])
    rc, _, err = run(capsys, "replay", str(path))
    assert rc == 2
    assert "line 2" in err


def test_replay_zero_delta_event_rejected(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 0, "down_delta": 0, "ts": 1},
    ])
    rc, _, err = run(capsys, "replay", str(path))
    assert rc == 2
    assert "line 1" in err


def test_replay_supports_retractions_that_stay_non_negative(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 3, "down_delta": 0, "ts": 1},
        {"question_id": "q", "answer_id": "a", "up_delta": -1, "down_delta": 0, "ts": 2},
    ])
    rc, out, _ = run(capsys, "replay", str(path))
    assert rc == 0
    assert parse_jsonl(out)[0]["up"] == 2


def test_replay_output_bytes_match_json_dumps(tmp_path, capsys):
    events = [
        {"question_id": AWKWARD_IDS[(i * 7) % 3], "answer_id": AWKWARD_IDS[i % len(AWKWARD_IDS)],
         "up_delta": i % 4, "down_delta": 1, "ts": i}
        for i in range(40)
    ]
    path = tmp_path / "events.jsonl"
    write_jsonl(path, events)
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 0 and err == ""
    states = {}
    for e in events:
        state = states.setdefault(e["question_id"], QuestionState(e["question_id"]))
        state.apply_event(VoteEvent(e["question_id"], e["answer_id"], e["up_delta"], e["down_delta"], e["ts"]))
    expected = ""
    for question_id, state in states.items():
        entries = state.entries()
        ranked = rank_answers(entries, ScoringConfig())
        expected += ranking_reference(ranked.entries, {e.answer_id: e.tally for e in entries},
                                      question_id=question_id)
    assert out == expected


def test_replay_reads_each_question_maxima_once(tmp_path, capsys, monkeypatch):
    # each question's unique maximum holder is retracted 25 times, on up and
    # on down, while the other answer stays below it
    events = []
    for question_id in ("q1", "q2"):
        events += [(question_id, "top", 50, 40), (question_id, "low", 3, 2)]
        events += [(question_id, "top", -1, 0) if i % 2 else (question_id, "top", 0, -1)
                   for i in range(25)]
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [{"question_id": q, "answer_id": a, "up_delta": u, "down_delta": d, "ts": ts}
                       for ts, (q, a, u, d) in enumerate(events)])
    state_module = importlib.import_module("spotrank.state")
    calls = []
    max_counts = state_module._max_counts
    monkeypatch.setattr(state_module, "_max_counts",
                        lambda counts: calls.append(counts) or max_counts(counts))
    rc, out, err = run(capsys, "replay", str(path))
    assert (rc, err) == (0, "")
    assert len(calls) == 2  # one read per question, at its ranking
    assert [row["up"] for row in parse_jsonl(out)] == [38, 3, 38, 3]


def test_replay_reports_the_first_bad_line_in_file_order(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1}\n'
        '{"question_id": "q", "answer_id": "a", "up_delta": -2, "down_delta": 0, "ts": 2}\n'
        '{"question_id": "q", "answer_id": \n',
        encoding="utf-8",
    )
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 2 and out == ""
    assert err == "error: line 2: event would drive answer 'a' to (-1, 0)\n"


class _LinesUpTo:
    """Input lines that fail the test if read past line ``last``."""

    def __init__(self, lines, last):
        self.lines, self.last = lines, last

    def __iter__(self):
        for line_no, line in enumerate(self.lines, start=1):
            if line_no > self.last:
                raise AssertionError(f"line {line_no} was read after a bad line {self.last}")
            yield line

    def close(self):
        pass


def test_replay_applies_each_line_before_reading_the_next(capsys, monkeypatch):
    lines = [
        json.dumps({"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1}) + "\n",
        json.dumps({"question_id": "q", "answer_id": "a", "up_delta": 0, "down_delta": -1, "ts": 2}) + "\n",
        json.dumps({"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 3}) + "\n",
    ]
    monkeypatch.setattr(cli, "_open_input", lambda path: _LinesUpTo(lines, last=2))
    rc, out, err = run(capsys, "replay", "events.jsonl")
    assert rc == 2 and out == ""
    assert err == "error: line 2: event would drive answer 'a' to (1, -1)\n"


class _FailingInput:
    """An input whose second read fails, as a disk error would."""

    def __iter__(self):
        yield json.dumps({"answer_id": "a", "up": 1, "down": 0}) + "\n"
        raise OSError(5, "Input/output error")

    def close(self):
        pass

    def detach(self):
        pass


@pytest.mark.parametrize("path,name", [("tallies.jsonl", "tallies.jsonl"), ("-", "stdin")])
def test_read_error_is_reported_for_the_input(capsys, monkeypatch, path, name):
    monkeypatch.setattr(sys, "stdin", _FailingInput())
    monkeypatch.setattr(cli, "_open_input", lambda path: sys.stdin)
    rc, out, err = run(capsys, "rank", path)
    assert (rc, out) == (2, "")
    assert err == f"error: cannot read {name}: [Errno 5] Input/output error\n"


def test_replay_orders_questions_and_tied_answers_by_first_appearance(tmp_path, capsys):
    # q3 and q1 interleave; every answer ends at (1, 0) (q1's "m" votes up
    # twice and retracts once), so ties leave answers in first-seen order
    order = [("q3", "z"), ("q1", "m"), ("q3", "b"), ("q1", "a"), ("q2", "x"),
             ("q3", "a"), ("q1", "m"), ("q1", "m")]
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": q, "answer_id": a, "up_delta": -1 if i == 7 else 1,
         "down_delta": 0, "ts": i}
        for i, (q, a) in enumerate(order)
    ])
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 0 and err == ""
    assert [(row["question_id"], row["answer_id"]) for row in parse_jsonl(out)] == [
        ("q3", "z"), ("q3", "b"), ("q3", "a"),
        ("q1", "m"), ("q1", "a"),
        ("q2", "x"),
    ]


def test_replay_delta_beyond_int64_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1},
        {"question_id": "q", "answer_id": "a", "up_delta": 10**320, "down_delta": 0, "ts": 2},
    ])
    rc, out, err = run(capsys, "replay", str(path))
    assert rc == 2 and out == ""
    assert err == "error: line 2: field 'up_delta' is out of range\n"


_GOOD_LINES = [
    '{"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1}\n',
    '{"question_id": "q", "answer_id": "b", "up_delta": 1, "down_delta": 0, "ts": 2}\n',
    '{"question_id": "q", "answer_id": "a", "up_delta": 0, "down_delta": 1, "ts": 3}\n',
]
_LINE_2 = _GOOD_LINES[1]

# line 2 of _GOOD_LINES replaced, with the stderr the full-decoder path
# gives; None marks a line that is accepted
_BAD_LINE_2 = {
    "blank": ("\n", None),
    "whitespace-only": (" \t \n", None),
    "crlf": (_LINE_2[:-1] + "\r\n", None),
    "bom": ("\ufeff" + _LINE_2,
            "error: line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"),
    "trailing-junk": (_LINE_2[:-1] + " x\n", "error: line 2: invalid JSON (Extra data)\n"),
    "array": ("[1, 2]\n", "error: line 2: expected a JSON object\n"),
    "nan": (_LINE_2.replace('"up_delta": 1', '"up_delta": NaN'),
            "error: line 2: invalid JSON (non-finite number NaN)\n"),
    "bool-delta": (_LINE_2.replace('"up_delta": 1', '"up_delta": true'),
                   "error: line 2: field 'up_delta' must be an integer\n"),
    "float-delta": (_LINE_2.replace('"up_delta": 1', '"up_delta": 1.0'),
                    "error: line 2: field 'up_delta' must be an integer\n"),
    "delta-2**63": (_LINE_2.replace('"up_delta": 1', f'"up_delta": {2**63}'),
                    "error: line 2: field 'up_delta' is out of range\n"),
    "missing-field": (_LINE_2.replace(', "ts": 2', ""),
                      "error: line 2: field 'ts' must be an integer\n"),
    "non-string-id": (_LINE_2.replace('"answer_id": "b"', '"answer_id": 5'),
                      "error: line 2: field 'answer_id' must be a string\n"),
    "zero-delta": (_LINE_2.replace('"up_delta": 1', '"up_delta": 0'),
                   "error: line 2: vote event must change at least one count\n"),
    "out-of-order-ts": (_LINE_2.replace('"ts": 2', '"ts": 0'),
                        "error: line 2: out-of-order timestamp 0 after 1\n"),
    "retraction-below-zero": (_LINE_2.replace('"up_delta": 1', '"up_delta": -1'),
                              "error: line 2: event would drive answer 'b' to (-1, 0)\n"),
    "deep-nesting": ("[" * 200_000 + "\n",
                     "error: line 2: invalid JSON (maximum recursion depth exceeded"
                     " while decoding a JSON array from a unicode string)\n"),
}


@pytest.mark.parametrize("one_pass", [True, False], ids=["one-pass", "checked-only"])
@pytest.mark.parametrize("case", list(_BAD_LINE_2))
def test_replay_bad_line_table(tmp_path, capsys, monkeypatch, case, one_pass):
    line, expected_err = _BAD_LINE_2[case]
    if not one_pass:
        _full_decoder_only(monkeypatch)
    path = tmp_path / "events.jsonl"
    # newline="" keeps the CR of the CRLF case on disk
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_GOOD_LINES[0] + line + _GOOD_LINES[2])
    rc, out, err = run(capsys, "replay", str(path))
    if expected_err is None:
        # a blank line is skipped and a CRLF ending is read as "\n"
        kept = _GOOD_LINES if case == "crlf" else [_GOOD_LINES[0], _GOOD_LINES[2]]
        assert (rc, err) == (0, "")
        assert out == replay_reference(kept)[1]
    else:
        assert (rc, out, err) == (2, "", expected_err)
    with open(path, encoding="utf-8") as fh:
        assert (rc, out, err) == replay_reference(fh)


def test_replay_one_pass_and_checked_paths_build_the_same_states(monkeypatch):
    lines = [
        # (question, answer) repeats every 12 lines, so each retraction
        # undoes an up vote of 12 lines before
        json.dumps({"question_id": f"q{i % 3}", "answer_id": f"a{i % 4}",
                    "up_delta": -1 if i >= 12 and i % 5 == 0 else 1 + i % 2,
                    "down_delta": int(i % 3 == 0), "ts": i // 2}) + "\n"
        for i in range(60)
    ]
    lines.insert(10, "\n")
    lines.insert(20, "  " + lines[20])  # leading whitespace: the full decoder only
    fast = cli._replay_events(lines)
    _full_decoder_only(monkeypatch)
    checked = cli._replay_events(lines)
    assert list(fast) == list(checked)
    for question_id, state in fast.items():
        assert state.snapshot() == checked[question_id].snapshot()


_FIELD_VALUES = st.one_of(
    st.integers(-3, 4), st.integers(), st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1]),
    st.booleans(), st.none(), st.floats(allow_nan=False), st.text(max_size=3),
)

_MUTATIONS = st.one_of(
    st.sampled_from([line for line, _ in _BAD_LINE_2.values() if len(line) < 1000]),
    st.text(max_size=20).map(lambda text: text + "\n"),
    st.builds(
        lambda key, value: json.dumps({"question_id": "q0", "answer_id": "a0", "up_delta": 1,
                                       "down_delta": 0, "ts": 5, key: value}) + "\n",
        st.sampled_from(["question_id", "answer_id", "up_delta", "down_delta", "ts", "x"]),
        _FIELD_VALUES,
    ),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    events=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(-1, 2), st.integers(-1, 2),
                  st.integers(-1, 3)),
        max_size=25,
    ),
    mutations=st.lists(st.tuples(st.integers(0, 30), _MUTATIONS), max_size=3),
)
def test_replay_equals_the_per_line_reference(tmp_path, capsys, events, mutations):
    lines, ts = [], 0
    for q, a, up, down, step in events:
        ts += step
        lines.append(json.dumps({"question_id": f"q{q}", "answer_id": f"a{a}",
                                 "up_delta": up, "down_delta": down, "ts": ts}) + "\n")
    for position, line in mutations:
        lines.insert(min(position, len(lines)), line)
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    result = run(capsys, "replay", str(path))
    with open(path, encoding="utf-8") as fh:
        assert result == replay_reference(fh)


# --- grid ----------------------------------------------------------------------


def grid_data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_grid_defaults_match_standard_setup(capsys):
    rc, out, err = run(capsys, "grid", "--step", "100")
    assert rc == 0 and err == ""
    lines = grid_data_lines(out)
    assert lines[0] == "u,d,score"
    assert len(lines) == 1 + 11 * 11  # u,d in [0,1000] at step 100
    assert lines[-1].startswith("1000,1000,")
    meta = dict(
        (part.strip() for part in line[1:].split(":", 1))
        for line in out.splitlines() if line.startswith("#")
    )
    assert meta["n_max"] == "2000"
    assert meta["scorer"] == "improved"


def test_grid_coverage_is_checked_at_the_last_cell(capsys):
    # step 7 on a range of 10 has its last cell at (7, 7), u + d = 14
    rc, out, err = run(capsys, "grid", "--u-range", "10", "--d-range", "10", "--step", "7",
                       "--n-max", "14")
    assert (rc, err) == (0, "")
    assert run(capsys, "grid", "--u-range", "7", "--d-range", "7", "--step", "7",
               "--n-max", "14") == (0, out, "")
    assert grid_data_lines(out)[-1].startswith("7,7,")
    assert run(capsys, "grid", "--u-range", "10", "--d-range", "10", "--step", "7",
               "--n-max", "13") == (2, "", "error: n_max=13 cannot cover u+d up to 14 for kind whole\n")


@pytest.mark.parametrize("floor", [1, 5, 50])
def test_grid_and_sweep_cells_are_combined_score_under_the_floored_maxima(tmp_path, capsys,
                                                                          floor):
    # floor 5 lifts u_max only; floor 50 lifts every maximum past --n-max
    flags = ["--u-range", "3", "--d-range", "3", "--n-max", "6", "--u-max", "4", "--d-max", "5",
             "--n-max-floor", str(floor), "--poly-a", "2"]
    maxima = effective_maxima(6, 4, 5, floor)
    out_dir = tmp_path / "grids"
    rc, _, err = run(capsys, "sweep", *flags, "--z-values", "2", "--p-values", "0.5",
                     "--kinds", ",".join(kind.value for kind in SiKind),
                     "--transforms", "linear,log,exp,poly", "--out-dir", str(out_dir))
    assert (rc, err) == (0, "")
    for kind in SiKind:
        for transform in (LINEAR, LOG10, EXP, poly(2.0)):
            config = ScoringConfig(si_kind=kind, si_transform=transform, n_max_floor=floor)
            rc, out, err = run(capsys, "grid", *flags, "--kind", kind.value,
                               "--transform", transform.name)
            assert (rc, err) == (0, "")
            assert grid_data_lines(out)[1:] == [
                f"{u},{d},{combined_score(VoteTally(u, d), maxima, config).combined:.12g}"
                for u in range(4) for d in range(4)
            ]
            assert {f"# n_max: {maxima.n_max}", f"# u_max: {maxima.u_max}",
                    f"# d_max: {maxima.d_max}"} <= set(out.splitlines())
            slug = transform.name + ("2" if transform.name == "poly" else "")
            assert (out_dir / f"grid_z2_p0.5_{kind.value}_{slug}.csv").read_text(encoding="utf-8") == out


def test_grid_writes_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    rc, out, _ = run(capsys, "grid", "--u-range", "10", "--d-range", "10",
                     "--n-max", "40", "--out", str(out_path))
    assert rc == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert "u,d,score" in text
    assert len(grid_data_lines(text)) == 1 + 121


def test_grid_out_directory_exits_2_and_keeps_the_directory(tmp_path, capsys):
    target = tmp_path / "existing"
    target.mkdir()
    (target / "keep.txt").write_text("kept", encoding="utf-8")
    rc, out, err = run(capsys, "grid", "--u-range", "2", "--d-range", "2",
                       "--n-max", "10", "--out", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert [p.name for p in target.iterdir()] == ["keep.txt"]
    # maxima that do not cover the grid are named before the output is looked at
    rc, out, err = run(capsys, "grid", "--u-range", "5", "--d-range", "5",
                       "--n-max", "1", "--out", str(target))
    assert (rc, out, err) == (2, "", "error: n_max=1 cannot cover u+d up to 10 for kind whole\n")
    assert [p.name for p in target.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("command", ["grid", "sweep"])
@pytest.mark.parametrize("flag", ["u-range", "d-range", "step", "n-max", "u-max", "d-max"])
def test_grid_integer_flags_beyond_int64_are_out_of_range(tmp_path, capsys, command, flag):
    geometry = {"u-range": "2", "d-range": "2", "n-max": "10", flag: str(10**400)}
    rc, out, err = run(capsys, command, "--out-dir" if command == "sweep" else "--out",
                       str(tmp_path / "out"),
                       *(arg for name, value in geometry.items() for arg in (f"--{name}", value)))
    assert rc == 2 and out == ""
    assert err == f"error: {flag}: out of range\n"
    assert list(tmp_path.iterdir()) == []


def test_grid_failed_write_leaves_existing_out_file_untouched(tmp_path, capsys, monkeypatch):
    target = tmp_path / "grid.csv"
    target.write_bytes(b"old bytes\n")

    def half_then_fail(grid, destination):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write("# partial\nu,d,score\n0,0,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_csv", half_then_fail)
    rc, out, err = run(capsys, "grid", "--u-range", "2", "--d-range", "2",
                       "--n-max", "10", "--out", str(target))
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "No space left on device" in err
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]


def test_grid_out_through_a_symlink_writes_the_file_it_names(tmp_path, capsys):
    grid = ("grid", "--u-range", "3", "--d-range", "3", "--n-max", "10")
    assert run(capsys, *grid, "--out", str(tmp_path / "plain.csv")) == (0, "", "")
    real = tmp_path / "real.csv"
    real.write_bytes(b"old bytes\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert run(capsys, *grid, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "plain.csv", "real.csv"]


def test_grid_out_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def read_fifo():
        with open(fifo, "rb") as fh:  # blocks until the writer opens it
            received.append(fh.read())

    reader = threading.Thread(target=read_fifo, daemon=True)
    reader.start()
    grid = [sys.executable, "-m", "spotrank", "grid", "--u-range", "3", "--d-range", "3",
            "--n-max", "10"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([*grid, "--out", str(fifo)], capture_output=True, timeout=60, env=env)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    expected = subprocess.run(grid, capture_output=True, timeout=60, env=env, check=True).stdout
    assert received == [expected]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("command", ["grid", "simulate"])
def test_fifo_output_whose_reader_leaves_is_named_in_the_error(tmp_path, command):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    received = []

    def read_fifo():
        with open(fifo, "rb") as fh:  # blocks until the writer opens it
            received.append(fh.read(10))  # and leaves before the rest

    reader = threading.Thread(target=read_fifo, daemon=True)
    reader.start()
    # each writes far more than a pipe buffer holds
    argv = {
        "grid": ["grid", "--u-range", "300", "--d-range", "300", "--n-max", "1000",
                 "--out", str(fifo)],
        "simulate": ["simulate", str(profiles), "--events", "2000", "--cadence", "1",
                     "--trajectory-out", str(fifo), "--report-out", str(tmp_path / "r.json")],
    }[command]
    result = subprocess.run([sys.executable, "-m", "spotrank", *argv], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    reader.join(timeout=10)
    assert not reader.is_alive() and len(received[0]) == 10
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: cannot write output: [Errno 32] Broken pipe: '{fifo}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "profiles.jsonl"]


def test_staged_output_keeps_the_targets_permission_bits(tmp_path, capsys):
    target, link = tmp_path / "grid.csv", tmp_path / "hard.csv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o600)
    os.link(target, link)
    grid = ("grid", "--u-range", "3", "--d-range", "3", "--n-max", "10")
    rc, expected, _ = run(capsys, *grid)
    assert rc == 0
    assert run(capsys, *grid, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == expected
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    # the staged file is a new file: another hard link keeps the old one
    assert link.read_bytes() == b"old bytes\n"


def test_any_target_name_the_os_takes_is_staged_and_a_longer_one_is_named_as_given(tmp_path,
                                                                                   capsys):
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    grid = ("grid", "--u-range", "3", "--d-range", "3", "--n-max", "10")
    rc, expected, _ = run(capsys, *grid)
    assert rc == 0
    for length in (name_max - 1, name_max):
        target = tmp_path / ("g" * (length - 4) + ".csv")
        assert run(capsys, *grid, "--out", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected
        target.unlink()
    assert list(tmp_path.iterdir()) == []
    target = tmp_path / ("g" * (name_max - 3) + ".csv")
    assert run(capsys, *grid, "--out", str(target)) == (
        2, "", f"error: cannot write output: [Errno 36] File name too long: '{target}'\n")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_cleanup_leaves_the_write_error_standing(tmp_path, capsys, monkeypatch):
    target = tmp_path / "grid.csv"
    target.write_bytes(b"old bytes\n")

    def half_then_fail(grid, destination):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write("# partial\nu,d,score\n0,0,")
        raise OSError(28, "No space left on device")

    def refused(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "emit_csv", half_then_fail)
    monkeypatch.setattr(os, "unlink", refused)
    rc, out, err = run(capsys, "grid", "--u-range", "2", "--d-range", "2",
                       "--n-max", "10", "--out", str(target))
    monkeypatch.undo()
    assert (rc, out, err) == (2, "", "error: cannot write output: [Errno 28] No space left on device\n")
    assert target.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("spelling", ["{}/", "{}/.", "{}//"])
@pytest.mark.parametrize("command,exists", [("grid", False), ("grid", True),
                                            ("simulate", False)])
def test_a_target_spelled_as_a_directory_exits_2_and_nothing_is_made(tmp_path, capsys, command,
                                                                     exists, spelling):
    work = tmp_path / "work"
    work.mkdir()
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    name = work / "report.csv"
    if exists:
        name.write_bytes(b"old bytes\n")
    target = spelling.format(name)
    argv = {
        "grid": ["grid", "--u-range", "2", "--d-range", "2", "--n-max", "10", "--out", target],
        "simulate": ["simulate", str(profiles), "--events", "20", "--trajectory-out", target,
                     "--report-out", str(work / "r.json")],
    }[command]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: cannot write output: [Errno 21] Is a directory: "
                                     f"'{target}'\n")
    assert [p.name for p in work.iterdir()] == (["report.csv"] if exists else [])
    if exists:
        assert name.read_bytes() == b"old bytes\n"


def test_grid_step_grid_shape(capsys):
    rc, out, _ = run(capsys, "grid", "--u-range", "20", "--d-range", "10",
                     "--n-max", "60", "--step", "5")
    assert rc == 0
    assert len(grid_data_lines(out)) == 1 + 5 * 3


def test_grid_with_a_large_step_writes_its_last_d_column(capsys):
    rc, out, err = run(capsys, "grid", "--u-range", "0", "--d-range", "18530201888518410",
                       "--step", "617673396283947", "--n-max", "18530201888518410")
    assert (rc, err) == (0, "")
    rows = grid_data_lines(out)
    assert len(rows) == 1 + 31
    assert rows[-1].startswith("0,18530201888518410,")


def test_grid_inconsistent_maxima_exits_2(capsys):
    rc, out, err = run(capsys, "grid", "--u-range", "600", "--d-range", "600",
                       "--n-max", "1000")
    assert rc == 2 and out == ""
    assert "n_max" in err


def test_grid_wilson_scorer(capsys):
    rc, out, _ = run(capsys, "grid", "--scorer", "wilson", "--u-range", "5",
                     "--d-range", "5", "--z", "0")
    assert rc == 0
    assert "# scorer: wilson" in out.splitlines()
    assert "5,5,0.5" in out.splitlines()


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")


@pytest.mark.parametrize("to_file", [True, False], ids=["out-file", "stdout"])
def test_grid_too_large_for_memory_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                               to_file):
    # the first block is never allocated: the Wilson bound raises as numpy
    # does when it cannot allocate
    monkeypatch.setattr(importlib.import_module("spotrank.grids"), "_wilson_bound_grid",
                        _out_of_memory)
    out = tmp_path / "grid.csv"
    rc, stdout, err = run(capsys, "grid", "--u-range", "100000", "--d-range", "100000",
                          "--n-max", "200000", *(["--out", str(out)] if to_file else []))
    assert (rc, stdout) == (2, "")
    assert err == "error: a grid row of 100001 cells does not fit in memory\n"
    assert list(tmp_path.iterdir()) == []


# a row of 2**62 + 1 float64 cells is more bytes than an address can count:
# numpy refuses it without trying to allocate
_ROW_TOO_LARGE = ["--u-range", "2", "--d-range", str(2**62), "--n-max", str(2**63 - 1)]
_ROW_TOO_LARGE_ERR = f"error: a grid row of {2**62 + 1} cells does not fit in memory\n"
# short rows, but more cells than an int64 can count: the grid would stream forever
_GRID_TOO_TALL = ["--u-range", str(2**62), "--d-range", "2", "--n-max", str(2**63 - 1)]
_GRID_TOO_TALL_ERR = (f"error: a grid of {2**62 + 1} x 3 cells has more cells than an int64 "
                      "can count\n")


@pytest.mark.parametrize("to_file", [True, False], ids=["out-file", "stdout"])
def test_grid_row_beyond_the_address_space_exits_2_with_one_error_line(tmp_path, capsys,
                                                                       to_file):
    out = tmp_path / "grid.csv"
    rc, stdout, err = run(capsys, "grid", *_ROW_TOO_LARGE,
                          *(["--out", str(out)] if to_file else []))
    assert (rc, stdout, err) == (2, "", _ROW_TOO_LARGE_ERR)
    assert list(tmp_path.iterdir()) == []


def test_grid_too_tall_ever_to_finish_exits_2_before_the_first_byte():
    # each row fits, but (2**62 + 1) x 3 cells outnumber int64: without the
    # check the rows would stream until the process is stopped
    result = subprocess.run(
        [sys.executable, "-m", "spotrank", "grid", "--scorer", "wilson",
         "--u-range", str(2**62), "--d-range", "2"],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", _GRID_TOO_TALL_ERR)


def test_grid_memory_stays_at_one_block(tmp_path):
    # the whole-grid evaluation held about eight float64 arrays over all
    # 1001 x 1001 cells, at least 64 MB; one block and one row of text is
    # well under 8 MiB
    import tracemalloc

    main(["grid", "--u-range", "0", "--d-range", "0", "--n-max", "10",
          "--out", str(tmp_path / "warm.csv")])  # numpy and its caches load untraced
    tracemalloc.start()
    try:
        rc = main(["grid", "--u-range", "1000", "--d-range", "1000", "--n-max", "2000",
                   "--out", str(tmp_path / "grid.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


# Reaps its argv as a child and prints the child's own peak RSS in KiB.  It
# runs as its own small process because Linux charges a child's ru_maxrss
# with the resident size of the process that forked it, here pytest's.
_PEAK_RSS_KIB = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "sys.exit(os.waitstatus_to_exitcode(status) or print(usage.ru_maxrss))\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_grid_child_peak_rss_stays_under_60_mb(tmp_path):
    # the whole-grid evaluation peaked at about 274 MB on this grid
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_KIB, sys.executable, "-m", "spotrank", "grid",
         "--u-range", "2000", "--d-range", "2000", "--n-max", "5000",
         "--out", str(tmp_path / "grid.csv")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    peak_mb = int(result.stdout) / 1024
    assert peak_mb < 60, f"peak RSS {peak_mb:.1f} MB"


# --- sweep ---------------------------------------------------------------------


def test_sweep_default_lists_make_twenty_files(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", "--u-range", "4", "--d-range", "4",
                       "--n-max", "16", "--out-dir", str(out_dir))
    assert rc == 0 and err == ""
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 20
    assert "grid_z0_p0_whole_linear.csv" in files
    assert "grid_z25_p1_whole_linear.csv" in files
    printed = out.splitlines()
    assert len(printed) == 20
    assert sorted(printed) == [str(out_dir / name) for name in files]


@pytest.mark.parametrize("flags,expected_err", [
    (["--p-values", "0.5,2"], "error: p-values: must be in [0, 1], got 2.0\n"),
    (["--z-values", "1,nan"], "error: z-values: must be a non-negative real, got nan\n"),
    # sweep order: z = 1 with P = 2 comes before z = -1
    (["--z-values", "1,-1", "--p-values", "0.5,2"], "error: p-values: must be in [0, 1], got 2.0\n"),
    (["--transforms", "linear,poly", "--poly-a", "-1"],
     "error: poly-a: poly transform needs a positive exponent, got -1.0\n"),
    # the transforms are built before any point, so a bad exponent is reported before z
    (["--z-values", "-1", "--transforms", "poly", "--poly-a", "-1"],
     "error: poly-a: poly transform needs a positive exponent, got -1.0\n"),
    # the whole kind fits; its grid is not built before upvote fails
    (["--kinds", "whole,upvote", "--u-max", "1"],
     "error: sweep point z0_p0_upvote_linear: u_max=1 cannot cover u up to 2 for kind upvote\n"),
    # one point at a time: the first point's coverage fails before the second point's P
    (["--z-values", "1", "--kinds", "upvote", "--u-max", "1", "--p-values", "0.5,2"],
     "error: sweep point z1_p0.5_upvote_linear: u_max=1 cannot cover u up to 2 for kind upvote\n"),
    (_ROW_TOO_LARGE, _ROW_TOO_LARGE_ERR),
    (_GRID_TOO_TALL, _GRID_TOO_TALL_ERR),
    # two points whose file names are equal: only equal values share a slug
    (["--z-values", "1", "--p-values", "0.5,0.5"],
     "error: two outputs name {out_dir}/grid_z1_p0.5_whole_linear.csv\n"),
    (["--z-values", "1", "--p-values", "0", "--transforms", "poly,poly"],
     "error: two outputs name {out_dir}/grid_z1_p0_whole_poly2.csv\n"),
], ids=["p", "z", "first-in-sweep-order", "poly-a", "poly-a-before-z", "coverage", "point-by-point",
        "row-too-large", "grid-too-tall", "same-p", "same-transform"])
def test_sweep_checks_every_point_before_any_grid(tmp_path, capsys, monkeypatch, flags,
                                                  expected_err):
    grids_module = importlib.import_module("spotrank.grids")
    calls = []
    row_blocks = grids_module._row_blocks
    monkeypatch.setattr(grids_module, "_row_blocks",
                        lambda spec: calls.append(spec) or row_blocks(spec))
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", "--u-range", "2", "--d-range", "2", "--n-max", "10",
                       "--out-dir", str(out_dir), *flags)
    assert (rc, out, err) == (2, "", expected_err.format(out_dir=out_dir))
    assert calls == []
    assert not out_dir.exists()


def test_sweep_values_that_round_alike_under_g_get_one_file_each(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", "--p-values", "0.1234561,0.1234562", "--z-values", "1",
                       "--u-range", "3", "--d-range", "3", "--n-max", "10",
                       "--out-dir", str(out_dir))
    names = ["grid_z1_p0.1234561_whole_linear.csv", "grid_z1_p0.1234562_whole_linear.csv"]
    assert (rc, out, err) == (0, "".join(f"{out_dir / name}\n" for name in names), "")
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name, p_weight in zip(names, ["0.1234561", "0.1234562"]):
        assert f"# p_weight: {p_weight}\n" in (out_dir / name).read_text(encoding="utf-8")


def test_sweep_custom_lists(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    rc, out, _ = run(capsys, "sweep", "--u-range", "4", "--d-range", "4",
                     "--n-max", "16", "--out-dir", str(out_dir),
                     "--z-values", "2,5", "--p-values", "0.5",
                     "--kinds", "whole,net", "--transforms", "linear,log")
    assert rc == 0
    assert len(list(out_dir.iterdir())) == 8
    assert (out_dir / "grid_z2_p0.5_net_log.csv").exists()


def test_sweep_poly_transform_uses_poly_a_flag(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    rc, _, _ = run(capsys, "sweep", "--u-range", "4", "--d-range", "4",
                   "--n-max", "16", "--out-dir", str(out_dir),
                   "--z-values", "2", "--p-values", "0.5",
                   "--transforms", "poly", "--poly-a", "3")
    assert rc == 0
    assert (out_dir / "grid_z2_p0.5_whole_poly3.csv").exists()


def _sweep_rows(capsys, out_dir, *flags):
    """The score rows of each file of a small two-point sweep, in sweep order."""
    rc, out, err = run(capsys, "sweep", "--u-range", "3", "--d-range", "3", "--n-max", "8",
                       "--z-values", "2", "--p-values", "0.5", "--transforms", "linear,poly",
                       "--out-dir", str(out_dir), *flags)
    assert (rc, err) == (0, "")
    return [Path(path).read_text(encoding="utf-8").split("u,d,score\n", 1)[1]
            for path in out.splitlines()]


@pytest.mark.parametrize("flags", [
    ["--poly-a", "3"], ["--bound", "upper"], ["--n-max-floor", "100"],
    ["--whole-variant", "shift-both"],
], ids=["poly-a", "bound", "n-max-floor", "whole-variant"])
def test_each_scoring_flag_of_sweep_changes_the_scores_it_writes(tmp_path, capsys, flags):
    default = _sweep_rows(capsys, tmp_path / "default")
    changed = _sweep_rows(capsys, tmp_path / "changed", *flags)
    assert len(changed) == len(default) == 2
    assert changed != default


def test_sweep_failure_removes_partial_outputs(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", "--u-range", "30", "--d-range", "30",
                       "--n-max", "100", "--u-max", "10",
                       "--out-dir", str(out_dir),
                       "--z-values", "2", "--p-values", "0.5",
                       "--kinds", "whole,upvote", "--transforms", "linear")
    assert (rc, out) == (2, "")
    assert err == ("error: sweep point z2_p0.5_upvote_linear: "
                   "u_max=10 cannot cover u up to 30 for kind upvote\n")
    assert not out_dir.exists()  # every point is checked before the directory is made


def test_sweep_failure_keeps_existing_targets(tmp_path, capsys):
    out_dir = tmp_path / "grids"
    out_dir.mkdir()
    existing = out_dir / "grid_z1_p0_whole_linear.csv"
    existing.write_bytes(b"old bytes\n")
    (out_dir / "grid_z2_p0_whole_linear.csv").mkdir()  # the later grid cannot be written
    rc, out, err = run(capsys, "sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                       "--out-dir", str(out_dir), "--z-values", "1,2", "--p-values", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert existing.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "grid_z1_p0_whole_linear.csv", "grid_z2_p0_whole_linear.csv"]


def test_sweep_failed_write_leaves_existing_target_untouched(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "grids"
    out_dir.mkdir()
    existing = out_dir / "grid_z1_p0_whole_linear.csv"
    existing.write_bytes(b"old bytes\n")

    def half_then_fail(grid, destination):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write("# partial\nu,d,score\n0,0,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_csv", half_then_fail)
    rc, out, err = run(capsys, "sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                       "--out-dir", str(out_dir), "--z-values", "1", "--p-values", "0")
    assert rc == 2 and out == ""
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
    assert existing.read_bytes() == b"old bytes\n"
    assert [p.name for p in out_dir.iterdir()] == [existing.name]


def test_sweep_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    rc, out, err = run(capsys, "sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                       "--out-dir", str(blocker / "grids"))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_sweep_grid_too_large_for_memory_exits_2_and_removes_partial_outputs(
        tmp_path, capsys, monkeypatch):
    grids_module = importlib.import_module("spotrank.grids")
    real = grids_module._wilson_bound_grid
    calls = []

    def second_grid_out_of_memory(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else _out_of_memory()

    monkeypatch.setattr(grids_module, "_wilson_bound_grid", second_grid_out_of_memory)
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", "--u-range", "2", "--d-range", "2", "--n-max", "4",
                       "--z-values", "1", "--p-values", "0,1", "--out-dir", str(out_dir))
    assert (rc, out) == (2, "")
    assert err == "error: a grid row of 3 cells does not fit in memory\n"
    assert len(calls) == 2
    assert list(out_dir.iterdir()) == []  # the first grid's file was rolled back


def test_sweep_checks_each_grid_once_when_it_is_built_and_once_when_it_is_written(
        tmp_path, capsys, monkeypatch):
    grids_module = importlib.import_module("spotrank.grids")
    calls = []
    check_grid = grids_module.check_grid
    monkeypatch.setattr(grids_module, "check_grid",
                        lambda spec: calls.append(spec) or check_grid(spec))
    rc, out, err = run(capsys, "sweep", "--u-range", "2", "--d-range", "2", "--n-max", "10",
                       "--z-values", "1,2", "--p-values", "0,0.5", "--transforms", "linear,log",
                       "--out-dir", str(tmp_path / "grids"))
    assert (rc, err) == (0, "")
    points = len(out.splitlines())
    assert points == 8
    assert len(calls) == 2 * points
    assert calls[:points] == calls[points:]  # built in sweep order, written in sweep order


def test_each_sweep_file_is_the_bytes_of_grid_out_at_its_point(tmp_path, capsys):
    flags = ["--u-range", "3", "--d-range", "4", "--n-max", "12", "--poly-a", "0.5"]
    out_dir = tmp_path / "grids"
    rc, out, err = run(capsys, "sweep", *flags, "--z-values", "0,2",
                       "--p-values", "0.1234561,1", "--kinds", ",".join(k.value for k in SiKind),
                       "--transforms", "linear,log,exp,poly", "--out-dir", str(out_dir))
    assert (rc, err) == (0, "")
    printed = out.splitlines()
    assert len(printed) == 2 * 2 * len(SiKind) * 4
    expected = []
    for z in ("0", "2"):
        for p_weight in ("0.1234561", "1"):
            for kind in SiKind:
                for transform in ("linear", "log", "exp", "poly"):
                    target = tmp_path / "grid.csv"
                    assert run(capsys, "grid", *flags, "--z", z, "--p-weight", p_weight,
                               "--kind", kind.value, "--transform", transform,
                               "--out", str(target)) == (0, "", "")
                    slug = transform + ("0.5" if transform == "poly" else "")
                    path = out_dir / f"grid_z{z}_p{p_weight}_{kind.value}_{slug}.csv"
                    assert path.read_bytes() == target.read_bytes(), path.name
                    expected.append(str(path))
    assert printed == expected


# --- simulate ------------------------------------------------------------------


PROFILES = [
    {"answer_id": "steady", "up_probability": 0.9, "arrival_weight": 1.0},
    {"answer_id": "noisy", "up_probability": 0.5, "arrival_weight": 2.0},
]


def test_simulate_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    outputs = []
    for run_dir in ("one", "two"):
        directory = tmp_path / run_dir
        directory.mkdir()
        rc, _, err = run(capsys, "simulate", str(profiles), "--events", "200",
                         "--seed", "42", "--cadence", "50",
                         "--trajectory-out", str(directory / "trajectory.jsonl"),
                         "--report-out", str(directory / "report.json"))
        assert rc == 0, err
        outputs.append((
            (directory / "trajectory.jsonl").read_bytes(),
            (directory / "report.json").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_simulate_trajectory_schema(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    rc, _, _ = run(capsys, "simulate", str(profiles), "--events", "60",
                   "--seed", "7", "--cadence", "20",
                   "--trajectory-out", str(tmp_path / "t.jsonl"),
                   "--report-out", str(tmp_path / "r.json"))
    assert rc == 0
    rows = parse_jsonl((tmp_path / "t.jsonl").read_text(encoding="utf-8"))
    assert {row["scorer"] for row in rows} == {"wilson", "improved"}
    assert all(set(row) == {"event_index", "scorer", "ranking"} for row in rows)
    assert rows[0]["event_index"] == 20
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert set(report["scorers"]) == {"wilson", "improved"}
    assert report["agreement"][0]["scorers"] == ["wilson", "improved"]


def _trajectory_line_reference(event_index, label, entries):
    return json.dumps({
        "event_index": event_index,
        "scorer": label,
        "ranking": [{"answer_id": answer_id, "combined": float(f"{combined:.12g}")}
                    for answer_id, combined in entries],
    }, sort_keys=True) + "\n"


def _trajectory_line(event_index, label, entries):
    return cli._trajectory_line(event_index, label, [
        (cli._json_str(answer_id), combined) for answer_id, combined in entries])


@pytest.mark.parametrize("answer_id", ['say "hi"', "back\\slash", "tab\tnl\ncr\r\x00\x1f\x7f",
                                       "caf\u00e9 \u2028 \U0001f600", "", "\ufeff"])
@pytest.mark.parametrize("combined", [0.5, -0.0, 0.0, 1 / 3, -1e-300, 5e-324])
def test_trajectory_line_is_json_dumps_of_its_dict(answer_id, combined):
    entries = [(answer_id, combined), ("plain", -0.0)]
    for label in ("wilson", answer_id):
        assert (_trajectory_line(17, label, entries)
                == _trajectory_line_reference(17, label, entries))
    assert _trajectory_line(0, "x", []) == _trajectory_line_reference(0, "x", [])


@settings(max_examples=300, deadline=None)
@given(event_index=st.integers(0, 2**63 - 1), label=st.text(),
       entries=st.lists(st.tuples(st.text(), st.floats()), max_size=5))
def test_trajectory_line_matches_json_dumps(event_index, label, entries):
    assert (_trajectory_line(event_index, label, entries)
            == _trajectory_line_reference(event_index, label, entries))


def _json12_reference(x):
    return json.dumps(float(f"{x:.12g}"))


# the guard's edges: the subnormal range, and exponents from e+12 to e+16
_NEAR_GUARD = st.one_of(st.floats(1e-310, 1e-290), st.floats(-1e-290, -1e-310),
                        st.floats(1e11, 1e17), st.floats(-1e17, -1e11))


@settings(max_examples=3000, deadline=None)
@given(x=st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   _NEAR_GUARD))
def test_json12_is_json_dumps_of_the_12_digit_float(x):
    assert cli._json12(x) == _json12_reference(x)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 1.0, -1.0, 1e-300, math.nextafter(1e-300, 0.0), math.nextafter(1e-300, 1.0),
    -1e-300, 5e-324, 1e-05, 999999999999.5, 1e12, 1e16, 123456789012.4, math.nan, math.inf,
    -math.inf,
])
def test_json12_on_pinned_values(x):
    assert cli._json12(x) == _json12_reference(x)


# sha256 of the trajectory and the report for the 100 profiles of CI's
# simulate memory step, seed 0 and 5000 events, per cadence
_SIMULATE_SHA256 = {
    1: ("894707e4c616d966e35fa47dc652ceb946fbea461a9a735b283e2387246e23ae",
        "61f1dd3bbe9099101b249745a84c68531777d0743ed53bce02c288da606e7847"),
    7: ("022ce2188fffc014c829e520ab088a5f63cf11f25a68fdd4afe2205c96471645",
        "9dd03b7a641522dcd9647fe858b1ac3c22bdc5e6bcc2b8476a392fcf51aa368c"),
    1000: ("1c625e4b4344a4b88ef7301b5fec4155b93995b5273ef0b4d1d9d865bce3400a",
           "f1f4fd076c254b745056f0a2577061f6e2cafc6d015d20737c6a8141fe86443b"),
}


@pytest.mark.parametrize("cadence", sorted(_SIMULATE_SHA256))
def test_simulate_output_bytes_are_pinned(tmp_path, capsys, cadence):
    write_jsonl(tmp_path / "profiles.jsonl", [
        {"answer_id": f"a{i:03d}", "up_probability": (i % 10 + 0.5) / 10,
         "arrival_weight": 1.0 + i % 7} for i in range(100)])
    rc, out, err = run(capsys, "simulate", str(tmp_path / "profiles.jsonl"), "--events", "5000",
                       "--seed", "0", "--cadence", str(cadence),
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert (rc, out, err) == (0, "", "")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("t.jsonl", "r.json")) == _SIMULATE_SHA256[cadence]


def test_simulate_memory_stays_at_one_snapshot(tmp_path):
    # every snapshot's two rankings were kept until the run ended, about
    # 17 MB over 500 snapshots of 50 answers; one snapshot at a time, the
    # peak is the draw of the stream's blocks
    import tracemalloc

    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, [{"answer_id": f"a{i}", "up_probability": (i % 10 + 0.5) / 10,
                            "arrival_weight": 1.0 + i % 7} for i in range(50)])

    def simulate(cadence):
        return main(["simulate", str(profiles), "--events", "5000", "--cadence", str(cadence),
                     "--trajectory-out", str(tmp_path / "t.jsonl"),
                     "--report-out", str(tmp_path / "r.json")])

    simulate(5000)  # numpy and its caches load untraced
    peaks = {}
    for snapshots, cadence in ((2, 2500), (500, 10)):
        tracemalloc.start()
        try:
            assert simulate(cadence) == 0
            peaks[snapshots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines()) == 2 * 500
    assert peaks[500] < peaks[2] + 256 * 1024, f"traced peaks {peaks}"


def test_simulate_single_answer_reports_perfect_tau(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, [{"answer_id": "only", "up_probability": 1.0, "arrival_weight": 1.0}])
    rc, _, _ = run(capsys, "simulate", str(profiles), "--events", "40",
                   "--seed", "1", "--cadence", "10",
                   "--trajectory-out", str(tmp_path / "t.jsonl"),
                   "--report-out", str(tmp_path / "r.json"))
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert report["scorers"]["wilson"]["mean_adjacent_tau"] == 1.0
    assert report["agreement"][0]["final_tau"] == 1.0


def test_simulate_invalid_profiles(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, [{"answer_id": "a", "up_probability": 1.7, "arrival_weight": 1.0}])
    rc, _, err = run(capsys, "simulate", str(profiles))
    assert rc == 2
    assert "up_probability" in err


def test_simulate_rejects_infinite_arrival_weight(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text('{"answer_id": "a", "up_probability": 0.5, "arrival_weight": Infinity}\n',
                        encoding="utf-8")
    rc, _, err = run(capsys, "simulate", str(profiles))
    assert rc == 2
    assert err == "error: line 1: invalid JSON (non-finite number Infinity)\n"


@pytest.mark.parametrize("missing", ["trajectory-out", "report-out"])
def test_simulate_unwritable_output_exits_2_and_leaves_no_file(tmp_path, capsys, missing):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    outputs = {"trajectory-out": tmp_path / "t.jsonl", "report-out": tmp_path / "r.json"}
    outputs[missing] = tmp_path / "missing" / outputs[missing].name
    rc, out, err = run(capsys, "simulate", str(profiles), "--events", "60", "--cadence", "20",
                       *(arg for flag, path in outputs.items() for arg in (f"--{flag}", str(path))))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize("report_out", ["t.jsonl", "sub/../t.jsonl", "link.jsonl"])
def test_simulate_outputs_naming_one_file_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 report_out):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "t.jsonl")
    monkeypatch.setattr(cli, "_snapshot_stream", lambda *args: pytest.fail("simulated"))
    rc, out, err = run(capsys, "simulate", str(profiles), "--events", "60", "--cadence", "20",
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / report_out))
    assert (rc, out) == (2, "")
    assert err == f"error: two outputs name {os.path.realpath(tmp_path / 't.jsonl')}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "profiles.jsonl", "sub"]
    assert not (tmp_path / "t.jsonl").exists()


def test_simulate_trajectory_out_through_a_symlink_writes_the_file_it_names(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    simulate = ("simulate", str(profiles), "--events", "60", "--cadence", "20",
                "--report-out", str(tmp_path / "r.json"))
    assert run(capsys, *simulate, "--trajectory-out", str(tmp_path / "plain.jsonl")) == (0, "", "")
    real = tmp_path / "real.jsonl"
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)  # dangling: the file it names is made
    assert run(capsys, *simulate, "--trajectory-out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.jsonl", "plain.jsonl", "profiles.jsonl", "r.json", "real.jsonl"]


def test_simulate_failure_keeps_existing_trajectory(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    trajectory = tmp_path / "t.jsonl"
    trajectory.write_bytes(b"old trajectory\n")
    report = tmp_path / "r.json"
    report.mkdir()
    rc, out, err = run(capsys, "simulate", str(profiles), "--events", "60", "--cadence", "20",
                       "--trajectory-out", str(trajectory), "--report-out", str(report))
    assert rc == 2 and out == ""
    assert err == f"error: cannot write output: [Errno 21] Is a directory: '{report}'\n"
    assert trajectory.read_bytes() == b"old trajectory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profiles.jsonl", "r.json", "t.jsonl"]


@pytest.mark.parametrize("flag", ["events", "seed", "cadence"])
@pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
def test_simulate_integer_flags_beyond_int64_are_out_of_range(tmp_path, capsys, flag, value):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    rc, out, err = run(capsys, "simulate", str(profiles), f"--{flag}", str(value),
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert rc == 2 and out == ""
    assert err == f"error: {flag}: out of range\n"
    assert [p.name for p in tmp_path.iterdir()] == ["profiles.jsonl"]


def test_simulate_of_2_to_the_53_events_exits_2_before_any_output(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    rc, out, err = run(capsys, "simulate", str(profiles), "--events", "9007199254740992",
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert rc == 2 and out == ""
    assert err == "error: total_events must be below 2**53, got 9007199254740992\n"
    assert [p.name for p in tmp_path.iterdir()] == ["profiles.jsonl"]


# --- config file ---------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p-weight": 0.0, "n-max": 100}), encoding="utf-8")
    rc, out, _ = run(capsys, "score", "--up", "10", "--down", "0",
                     "--config", str(config))
    assert rc == 0
    assert "si 0.100000" in out.splitlines()
    assert "combined 0.100000" in out.splitlines()


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p-weight": 0.0}), encoding="utf-8")
    rc, out, _ = run(capsys, "score", "--up", "10", "--down", "0",
                     "--z", "2", "--p-weight", "1", "--config", str(config))
    assert rc == 0
    assert "combined 0.714286" in out.splitlines()


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"zz-top": 1}), encoding="utf-8")
    rc, _, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert rc == 2
    assert "zz-top" in err


def test_config_file_invalid_value_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p-weight": 2.0}), encoding="utf-8")
    rc, _, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert rc == 2
    assert "p-weight" in err


def test_config_file_invalid_json(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("{not json", encoding="utf-8")
    rc, _, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert rc == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("content", ["[1]", "7", "null"], ids=["list", "number", "null"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, content):
    config = tmp_path / "run.json"
    config.write_text(content, encoding="utf-8")
    rc, out, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert (rc, out, err) == (2, "", f"error: config file {config}: expected a flat JSON object\n")


def test_cli_paths_build_no_answer_entry(tmp_path, capsys, monkeypatch):
    # rank, replay and simulate rank plain (up, down) columns; AnswerEntry
    # views are for library callers
    state_module = importlib.import_module("spotrank.state")
    built = []
    init = state_module.AnswerEntry.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(state_module.AnswerEntry, "__init__", counting)
    write_jsonl(tmp_path / "tallies.jsonl", TRIO)
    write_jsonl(tmp_path / "events.jsonl", [
        # line 8 retracts the up vote of line 2
        {"question_id": f"q{i % 2}", "answer_id": f"a{i % 3}", "up_delta": -1 if i == 7 else 1,
         "down_delta": int(i % 2 == 0), "ts": i}
        for i in range(12)
    ])
    write_jsonl(tmp_path / "profiles.jsonl", PROFILES)
    for argv in (["rank", str(tmp_path / "tallies.jsonl")],
                 ["replay", str(tmp_path / "events.jsonl")],
                 ["simulate", str(tmp_path / "profiles.jsonl"), "--events", "50", "--cadence", "7",
                  "--trajectory-out", str(tmp_path / "t.jsonl"),
                  "--report-out", str(tmp_path / "r.json")]):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert argv[0] == "simulate" or out
    assert built == []
    state_module.AnswerEntry("a", VoteTally(1, 0), 0)
    assert len(built) == 1  # the counter sees a construction


def test_cli_simulate_calls_no_scalar_score(tmp_path, capsys, monkeypatch):
    # below 2**53 votes a snapshot is ranked from its count columns; the
    # scalar kernel is for rank and replay
    state_module = importlib.import_module("spotrank.state")
    calls = []
    combined_score = state_module.combined_score

    def counting(*args):
        calls.append(args)
        return combined_score(*args)

    monkeypatch.setattr(state_module, "combined_score", counting)
    write_jsonl(tmp_path / "profiles.jsonl", PROFILES)
    rc, out, err = run(capsys, "simulate", str(tmp_path / "profiles.jsonl"), "--events", "50",
                       "--cadence", "7", "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert (rc, out, err) == (0, "", "")
    assert len(parse_jsonl((tmp_path / "t.jsonl").read_text(encoding="utf-8"))) == 16
    assert calls == []
    state_module.QuestionState("q").rank(ScoringConfig())
    rank_answers([AnswerEntry("a", VoteTally(1, 0), 0)], ScoringConfig())
    assert len(calls) == 1  # the counter sees a call


# --- framework -----------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "score" in out and "sweep" in out


@pytest.mark.parametrize("command", ["grid", "sweep", "rank"])
def test_closed_stdout_exits_2_with_one_error_line(tmp_path, command):
    tallies = tmp_path / "tallies.jsonl"
    write_jsonl(tallies, [{"answer_id": f"a{i}", "up": i, "down": 1} for i in range(50)])
    argv = {
        "grid": ["grid", "--u-range", "300", "--d-range", "300"],
        "sweep": ["sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                  "--out-dir", str(tmp_path / "grids")],
        "rank": ["rank", str(tallies)],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spotrank", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            # block-buffered stdout, as by default: the pipe error may surface only at a flush
            env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                 "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: stdout was closed before all output was written\n"
    if command == "sweep":
        assert list((tmp_path / "grids").iterdir()) == []  # written grids were rolled back


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["score", "rank", "replay", "grid", "sweep"])
def test_full_stdout_exits_2_with_one_error_line(tmp_path, command):
    tallies, events = tmp_path / "tallies.jsonl", tmp_path / "events.jsonl"
    write_jsonl(tallies, [{"answer_id": "a", "up": 3, "down": 1}])
    write_jsonl(events, [{"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0,
                          "ts": 1}])
    argv = {
        "score": ["score", "--up", "3", "--down", "1"],
        "rank": ["rank", str(tallies)],
        "replay": ["replay", str(events)],
        "grid": ["grid", "--u-range", "3", "--d-range", "3", "--n-max", "10"],
        "sweep": ["sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                  "--out-dir", str(tmp_path / "grids")],
    }[command]
    # stdout opened on the device, as `> /dev/full` does; nothing is written to its node
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "spotrank", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
    if command == "sweep":
        assert list((tmp_path / "grids").iterdir()) == []  # written grids were rolled back


@pytest.mark.parametrize("command", ["score", "rank", "replay", "grid", "sweep", "grid-out",
                                     "simulate"])
def test_closed_fd_1_fails_only_the_commands_that_write_stdout(tmp_path, command):
    tallies, events = tmp_path / "tallies.jsonl", tmp_path / "events.jsonl"
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(tallies, [{"answer_id": "a", "up": 3, "down": 1}])
    write_jsonl(events, [{"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0,
                          "ts": 1}])
    write_jsonl(profiles, PROFILES)
    out = tmp_path / "out"
    argv = {
        "score": ["score", "--up", "3", "--down", "1"],
        "rank": ["rank", str(tallies)],
        "replay": ["replay", str(events)],
        "grid": ["grid", "--u-range", "3", "--d-range", "3", "--n-max", "10"],
        "sweep": ["sweep", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                  "--out-dir", str(out)],
        "grid-out": ["grid", "--u-range", "3", "--d-range", "3", "--n-max", "10",
                     "--out", str(out)],
        "simulate": ["simulate", str(profiles), "--events", "20", "--trajectory-out", str(out),
                     "--report-out", str(tmp_path / "report.json")],
    }[command]
    # the child starts with no fd 1, as `>&-` leaves it
    result = subprocess.run(
        [sys.executable, "-m", "spotrank", *argv], preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if command in ("grid-out", "simulate"):
        assert (result.returncode, result.stderr) == (0, "")
        assert out.stat().st_size > 0
    else:
        assert result.returncode == 2
        assert result.stderr == "error: stdout was closed before all output was written\n"
        if command == "sweep":
            assert list(out.iterdir()) == []  # written grids were rolled back


@pytest.mark.parametrize("fd_2", ["closed", "read-only"])
@pytest.mark.parametrize("up, rc", [("x", 2), ("1", 0)], ids=["bad-input", "good-input"])
def test_unwritable_fd_2_keeps_the_exit_code_and_stdout(fd_2, up, rc):
    def start():
        os.close(2)  # the child starts with no fd 2, as `2>&-` leaves it
        if fd_2 == "read-only":  # fd 2 open but unwritable: stderr exists, its writes fail
            os.open(os.devnull, os.O_RDONLY)  # the lowest free fd, 2

    result = subprocess.run(
        [sys.executable, "-m", "spotrank", "score", "--up", up, "--down", "0"], preexec_fn=start,
        stdout=subprocess.PIPE, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == rc
    # the error line goes nowhere, never to stdout
    assert result.stdout == ("" if rc else "wilson_lower 0.200000\nwilson_upper 1.000000\n"
                                           "si 1.000000\ncombined 0.600000\n")


@pytest.mark.parametrize("command", ["rank", "replay", "simulate"])
def test_stdin_closed_at_start_exits_2_with_one_error_line(tmp_path, command):
    outputs = ["--trajectory-out", str(tmp_path / "t.jsonl"), "--report-out", str(tmp_path / "r.json")]
    # the child starts with no fd 0, as `<&-` leaves it
    result = subprocess.run(
        [sys.executable, "-m", "spotrank", command, "-", *(outputs if command == "simulate" else [])],
        preexec_fn=lambda: os.close(0), capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: cannot read stdin: fd 0 is closed\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["grid", "--help"]], ids=["help", "grid-help"])
def test_help_to_a_full_stdout_exits_2_with_one_error_line(argv, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    # stdout opened on the device, as `> /dev/full` does; nothing is written to its node
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "spotrank", *argv], stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=60, env={**env, "PYTHONPATH": str(SRC)},
        )
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "spotrank", "score", "--up", "10", "--down", "0",
         "--z", "2", "--p-weight", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "combined 0.714286" in result.stdout


# run in a fresh interpreter: imports the package, runs the three commands
# that use no arrays, then checks every name the package imports
_COLD_START = """
import ast, inspect, json, sys
import spotrank
from spotrank import cli

tallies, events, report = sys.argv[1:]
codes = [cli.main(argv) for argv in (["score", "--up", "3", "--down", "1"],
                                      ["rank", tallies], ["replay", events])]
tree = ast.parse(open(spotrank.__file__, encoding="utf-8").read())
unresolved = [f"{node.module}.{alias.name}" for node in tree.body
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if getattr(spotrank, alias.name, None)
              is not getattr(sys.modules[f"spotrank.{node.module}"], alias.name)]
with open(report, "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "numpy_loaded": "numpy" in sys.modules, "unresolved": unresolved,
               "simulate_is_function": inspect.isfunction(spotrank.simulate)}, fh)
"""


def test_score_rank_and_replay_start_without_numpy(tmp_path):
    tallies, events, report = tmp_path / "tallies.jsonl", tmp_path / "events.jsonl", tmp_path / "r.json"
    write_jsonl(tallies, [{"answer_id": "a", "up": 3, "down": 1}, {"answer_id": "b", "up": 0, "down": 2}])
    write_jsonl(events, [{"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1}])
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tallies), str(events), str(report)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(report.read_text(encoding="utf-8")) == {
        "codes": [0, 0, 0], "numpy_loaded": False, "unresolved": [], "simulate_is_function": True}


@pytest.mark.parametrize("content,reason", [
    ("[" * 200_000, "maximum recursion depth exceeded"),
    ('{"z": ' + "9" * 5000 + "}", "digits"),
    (b'{"z": \xff}', "can't decode byte 0xff"),
], ids=["deep-nesting", "int-5000-digits", "not-utf-8"])
def test_config_file_that_cannot_be_decoded_exits_2(tmp_path, capsys, content, reason):
    config = tmp_path / "run.json"
    if isinstance(content, bytes):
        config.write_bytes(content)
    else:
        config.write_text(content, encoding="utf-8")
    rc, out, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: config file {config}: invalid JSON (") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("n-max-floor", 10**400), ("n-max-floor", 2**63), ("cadence", 1e400), ("poly-a", 10**400),
], ids=["n-max-floor-10**400", "n-max-floor-2**63", "cadence-inf", "poly-a-10**400"])
def test_config_file_numbers_beyond_range_are_out_of_range(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, PROFILES)
    rc, out, err = run(capsys, "simulate", str(profiles), "--config", str(config),
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert rc == 2 and out == ""
    assert err == f"error: {key}: out of range\n"


@pytest.mark.parametrize("value", ["x", True, None], ids=["string", "true", "null"])
@pytest.mark.parametrize("key", ["up_probability", "arrival_weight"])
def test_simulate_profile_field_that_is_not_a_number_exits_2(tmp_path, capsys, key, value):
    profiles = tmp_path / "profiles.jsonl"
    write_jsonl(profiles, [PROFILES[0], {**PROFILES[1], key: value}])
    rc, out, err = run(capsys, "simulate", str(profiles),
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert (rc, out, err) == (2, "", f"error: line 2: field {key!r} must be a number\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profiles.jsonl"]


def test_simulate_profile_numbers_beyond_float_range_are_out_of_range(tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text(f'{{"answer_id": "a", "up_probability": 1, "arrival_weight": {10**400}}}\n',
                        encoding="utf-8")
    rc, out, err = run(capsys, "simulate", str(profiles),
                       "--trajectory-out", str(tmp_path / "t.jsonl"),
                       "--report-out", str(tmp_path / "r.json"))
    assert (rc, out) == (2, "")
    assert err == "error: line 1: field 'arrival_weight' is out of range\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profiles.jsonl"]


# --- flags and config values -------------------------------------------------------

# every key a config file may set: the flags of every subcommand but --up/--down
CONFIG_KEYS = [
    "z", "p-weight", "kind", "transform", "poly-a", "bound", "n-max-floor", "whole-variant",
    "u-range", "d-range", "step", "n-max", "u-max", "d-max", "scorer", "out",
    "z-values", "p-values", "kinds", "transforms", "out-dir",
    "events", "seed", "cadence", "trajectory-out", "report-out",
]
PATH_FLAGS = {"out", "out-dir", "trajectory-out", "report-out"}


def _flags_of(command):
    return {name: flag for group in cli._COMMANDS[command][2] for name, flag in group.items()}


def _small_run(tmp_path, command):
    """The positional arguments of ``command`` and flags that keep its run
    small, with every output under ``tmp_path``."""
    write_jsonl(tmp_path / "tallies.jsonl", TRIO)
    write_jsonl(tmp_path / "events.jsonl", [
        {"question_id": "q", "answer_id": "a", "up_delta": 1, "down_delta": 0, "ts": 1},
        {"question_id": "q", "answer_id": "b", "up_delta": 0, "down_delta": 1, "ts": 2},
    ])
    write_jsonl(tmp_path / "profiles.jsonl", PROFILES)
    axes = {"u-range": "2", "d-range": "2", "n-max": "10"}
    return {
        "score": ([], {"up": "3", "down": "1"}),
        "rank": ([str(tmp_path / "tallies.jsonl")], {}),
        "replay": ([str(tmp_path / "events.jsonl")], {}),
        "grid": ([], {**axes, "out": str(tmp_path / "g.csv")}),
        "sweep": ([], {**axes, "z-values": "2", "p-values": "0.5",
                       "out-dir": str(tmp_path / "grids")}),
        "simulate": ([str(tmp_path / "profiles.jsonl")],
                     {"events": "6", "cadence": "2", "trajectory-out": str(tmp_path / "t.jsonl"),
                      "report-out": str(tmp_path / "r.json")}),
    }[command]


def _argv_without(tmp_path, command, flag):
    positional, flags = _small_run(tmp_path, command)
    return [command, *positional,
            *(arg for name, value in flags.items() if name != flag for arg in (f"--{name}", value))]


_PARITY_CASES = [
    (command, name, "a\0b" if name in PATH_FLAGS else "x")
    for command in cli._COMMANDS for name, flag in _flags_of(command).items() if not flag.required
] + [
    # values every converter takes that a later check rejects
    ("score", "p-weight", "1.5"), ("rank", "n-max-floor", "0"), ("grid", "step", "1e3"),
    ("grid", "step", "0"), ("grid", "u-range", str(2**63)), ("sweep", "kinds", "whole,bogus"),
    ("sweep", "z-values", ",,"), ("sweep", "p-values", "0.5,2"), ("simulate", "cadence", "0"),
    ("simulate", "events", "-1"),
]


@pytest.mark.parametrize("command,flag,value", _PARITY_CASES,
                         ids=[f"{c}-{f}-{v!r}" for c, f, v in _PARITY_CASES])
def test_bad_flag_and_config_value_give_the_same_error_line(tmp_path, capsys, command, flag, value):
    argv = _argv_without(tmp_path, command, flag)
    rc_flag, out_flag, err_flag = run(capsys, *argv, f"--{flag}", value)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({flag: value}), encoding="utf-8")
    rc_file, out_file, err_file = run(capsys, *argv, "--config", str(config))
    assert (rc_flag, out_flag) == (rc_file, out_file) == (2, "")
    assert err_flag == err_file
    assert err_flag.startswith("error: ") and err_flag.count("\n") == 1


@pytest.mark.parametrize("value", [None, True, 1.5, [], {}, 7],
                         ids=["null", "true", "1.5", "list", "object", "7"])
@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_values_of_any_json_type_exit_0_or_2_with_one_error_line(tmp_path, capsys,
                                                                       key, value):
    command = next(command for command in cli._COMMANDS if key in _flags_of(command))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    rc, out, err = run(capsys, *_argv_without(tmp_path, command, key), "--config", str(config))
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown keys" not in err


@pytest.mark.parametrize("key", ["up", "down", "config"])
def test_config_file_cannot_set_up_down_or_config(tmp_path, capsys, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 1}), encoding="utf-8")
    rc, out, err = run(capsys, "score", "--up", "1", "--down", "0", "--config", str(config))
    assert (rc, out) == (2, "")
    assert err == f"error: config file {config}: unknown keys {key}\n"


# every key a config file may set, for each subcommand that lacks its flag,
# such as kinds for rank and z for sweep
_STRAY_KEYS = [(command, key) for command in cli._COMMANDS for key in CONFIG_KEYS
               if key not in _flags_of(command)]


@pytest.mark.parametrize("command,key", _STRAY_KEYS, ids=[f"{c}-{k}" for c, k in _STRAY_KEYS])
def test_config_keys_are_the_flags_of_the_subcommand(tmp_path, capsys, command, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 1}), encoding="utf-8")
    rc, out, err = run(capsys, *_argv_without(tmp_path, command, key), "--config", str(config))
    assert (rc, out, err) == (2, "", f"error: config file {config}: unknown keys {key}\n")


SMALL_GRID = ["--u-range", "2", "--d-range", "2", "--n-max", "10"]


def test_grid_config_out_null_means_stdout(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"out": null}', encoding="utf-8")
    rc, out, err = run(capsys, "grid", *SMALL_GRID, "--config", str(config))
    assert (rc, err) == (0, "")
    assert out == run(capsys, "grid", *SMALL_GRID)[1]
    assert out.startswith("# scorer: improved\n") and out.endswith("\n2,2,0.273223304703\n")
_REPRODUCED = {
    "grid-out-5": (["grid", *SMALL_GRID], {"out": 5}, "out: expected a path, got 5"),
    "sweep-out-dir-5": (["sweep", *SMALL_GRID], {"out-dir": 5}, "out-dir: expected a path, got 5"),
    "sweep-out-dir-null": (["sweep", *SMALL_GRID], {"out-dir": None},
                           "out-dir: expected a path, got None"),
    "simulate-trajectory-out-7": (["simulate", "profiles.jsonl", "--events", "6"],
                                  {"trajectory-out": 7}, "trajectory-out: expected a path, got 7"),
    "rank-kind-list": (["rank", "tallies.jsonl"], {"kind": ["x"]},
                       "kind: expected one of whole, net, positive, negative, upvote, downvote, "
                       "got ['x']"),
    "rank-bound-list": (["rank", "tallies.jsonl"], {"bound": ["x"]},
                        "bound: expected one of lower, upper, got ['x']"),
    "rank-whole-variant-object": (["rank", "tallies.jsonl"], {"whole-variant": {}},
                                  "whole-variant: expected one of plain, shift-denom, shift-both, "
                                  "got {}"),
    "grid-step-1e3": (["grid", *SMALL_GRID, "--step", "1e3"], None,
                      "step: expected an integer, got '1e3'"),
    "rank-no-tallies": (["rank"], None, "the following arguments are required: tallies"),
    "rank-unknown-flag": (["rank", "tallies.jsonl", "--bogus"], None,
                          "unrecognized arguments: --bogus"),
    # sweep takes lists of the blend values, never one value
    "sweep-z": (["sweep", *SMALL_GRID, "--z", "1"], None, "unrecognized arguments: --z 1"),
    "sweep-p-weight": (["sweep", *SMALL_GRID, "--p-weight", "0.5"], None,
                       "unrecognized arguments: --p-weight 0.5"),
    "sweep-kind": (["sweep", *SMALL_GRID, "--kind", "net"], None,
                   "unrecognized arguments: --kind net"),
    "sweep-transform": (["sweep", *SMALL_GRID, "--transform", "log"], None,
                        "unrecognized arguments: --transform log"),
    # a prefix is no spelling of a flag, so a removed flag cannot match a list flag
    "sweep-prefix": (["sweep", *SMALL_GRID, "--z-v", "1"], None, "unrecognized arguments: --z-v 1"),
    "grid-prefix": (["grid", *SMALL_GRID, "--u-r", "3"], None, "unrecognized arguments: --u-r 3"),
    "sweep-scorer-wilson": (["sweep", *SMALL_GRID, "--scorer", "wilson"], None,
                            "sweep requires --scorer improved"),
    "sweep-scorer-average": (["sweep", *SMALL_GRID, "--scorer", "average"], None,
                             "sweep requires --scorer improved"),
    "config-missing": (["score", "--up", "1", "--down", "0", "--config", "missing.json"], None,
                       "cannot read config file: [Errno 2] No such file or directory: "
                       "'missing.json'"),
    "config-directory": (["score", "--up", "1", "--down", "0", "--config", "."], None,
                         "cannot read config file: [Errno 21] Is a directory: '.'"),
    "profile-weight-1e309": (["simulate", "huge.jsonl", "--events", "10"], None,
                             "line 1: arrival_weight must be positive and finite, got inf"),
}


@pytest.mark.parametrize("case", list(_REPRODUCED))
def test_bad_input_exits_2_with_one_error_line_and_no_output(tmp_path, capsys, monkeypatch, case):
    argv, config, message = _REPRODUCED[case]
    monkeypatch.chdir(tmp_path)  # default output paths land here too
    write_jsonl(tmp_path / "tallies.jsonl", TRIO)
    write_jsonl(tmp_path / "profiles.jsonl", PROFILES)
    (tmp_path / "huge.jsonl").write_text(
        '{"answer_id": "huge", "up_probability": 0.5, "arrival_weight": 1e309}\n'
        '{"answer_id": "light", "up_probability": 0.5, "arrival_weight": 1.0}\n', encoding="utf-8")
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", "run.json"]
    inputs = sorted(p.name for p in tmp_path.iterdir())
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("argv,message", [
    ([], "error: the following arguments are required: command\n"),
    (["score", "--up", "1"], "error: the following arguments are required: --down\n"),
    (["score", "--down", "0", "--up"], "error: argument --up: expected one argument\n"),
    (["frobnicate"], "error: argument command: invalid choice: 'frobnicate'"),
    (["grid", "--out"], "error: argument --out: expected one argument\n"),
], ids=["no-subcommand", "missing-down", "up-without-value", "unknown-subcommand",
        "out-without-value"])
def test_usage_errors_print_one_error_line(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["rank", "a\0b"], "error: cannot read a\0b: embedded null byte\n"),
    (["rank", "-", "--config", "a\0b"], "error: config: expected a path, got 'a\\x00b'\n"),
], ids=["input", "config"])
def test_paths_the_os_cannot_take_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", message)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_each_flag_with_its_default_and_choices(capsys, command):
    rc, out, err = run(capsys, command, "--help")
    assert (rc, err) == (0, "")
    text = " ".join(out.split())  # argparse wraps lines at the terminal width
    flags = {**_flags_of(command), "config": None}
    assert set(re.findall(r"--[\w-]+", text)) == {"--help", *(f"--{name}" for name in flags)}
    for name, flag in flags.items():
        assert f"--{name} " in text
        if flag is not None and flag.default is not None:
            assert f"(default {flag.default})" in text
        if flag is not None and isinstance(flag.convert, cli._Choice):
            assert f"--{name} {{{','.join(flag.convert.table)}}}" in text


def test_help_shows_the_defaults_and_choices_of_the_scoring_flags(capsys):
    rc, out, _ = run(capsys, "rank", "--help")
    text = " ".join(out.split())
    assert rc == 0
    assert "--kind {whole,net,positive,negative,upvote,downvote} spotlight index kind (default whole)" in text
    assert "--transform {linear,log,exp,poly} index transform (default linear)" in text
    assert "--z Z normal quantile (default 2)" in text


@pytest.mark.parametrize("argv,expected_err", [
    # these two overflowed float range before maxima had to cover the tally
    (["--up", "10000", "--down", "0", "--n-max", "1", "--transform", "exp"],
     "error: n-max: n_max=1 cannot cover u+d up to 10000 for kind whole\n"),
    (["--up", "10", "--down", "0", "--n-max", "1", "--transform", "poly", "--poly-a", "1e308"],
     "error: n-max: n_max=1 cannot cover u+d up to 10 for kind whole\n"),
    # this one printed si 8103.083928
    (["--up", "10", "--down", "0", "--kind", "upvote", "--transform", "exp", "--u-max", "1",
      "--n-max", "1"], "error: u-max: u_max=1 cannot cover u up to 10 for kind upvote\n"),
    (["--up", "0", "--down", "7", "--kind", "downvote", "--d-max", "6", "--n-max-floor", "5"],
     "error: d-max: d_max=6 cannot cover d up to 7 for kind downvote\n"),
], ids=["exp", "poly", "upvote-exp", "downvote-floored"])
def test_score_maxima_below_the_tally_exit_2(capsys, argv, expected_err):
    rc, out, err = run(capsys, "score", *argv)
    assert (rc, out, err) == (2, "", expected_err)


_COUNT = st.integers(0, 40) | st.integers(0, 2**62)
_ANY_MAXIMUM = st.none() | st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(SiKind)),
       transform=st.sampled_from(["linear", "log", "exp", "poly"]),
       poly_a=st.sampled_from(["0.5", "2.5", "1e-300", "1e308"]),
       up=_COUNT, down=_COUNT, floor=st.integers(1, 5), covers=st.booleans(), data=st.data())
def test_score_exits_0_in_range_or_2_naming_the_maximum_below_the_tally(
        kind, transform, poly_a, up, down, floor, covers, data):
    # the flag of the maximum the kind divides by, and the count it must cover
    flag, needed = {SiKind.UPVOTE: ("u-max", up),
                    SiKind.DOWNVOTE: ("d-max", down)}.get(kind, ("n-max", up + down))
    maxima = {name: data.draw(_ANY_MAXIMUM, label=name) for name in ("n-max", "u-max", "d-max")}
    if covers:
        # the flags are int64, so only the default covers up + down = 2**63
        explicit = st.integers(needed, 2**63 - 1) if needed < 2**63 else st.nothing()
        maxima[flag] = data.draw(st.none() | explicit, label=flag)
    else:
        assume(needed > floor)
        maxima[flag] = data.draw(st.integers(-(2**63), needed - 1), label=flag)
    argv = ["score", "--up", str(up), "--down", str(down), "--kind", kind.value,
            "--transform", transform, "--poly-a", poly_a, "--n-max-floor", str(floor),
            *(arg for name, value in maxima.items() if value is not None
              for arg in (f"--{name}", str(value)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if covers:
        assert (rc, err.getvalue()) == (0, "")
        si = float(out.getvalue().splitlines()[2].removeprefix("si "))
        lo, hi = si_range(kind)
        assert lo <= si <= hi
    else:
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue().startswith(f"error: {flag}: ") and err.getvalue().count("\n") == 1


# --- fuzz ------------------------------------------------------------------------

_FUZZ_KEYS = st.sampled_from([
    "answer_id", "question_id", "up", "down", "up_delta", "down_delta", "ts",
    "up_probability", "arrival_weight",
]) | st.text(max_size=3)
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63 - 1, 2**63, 10**400, 1e308, 5e-324]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_IDS = st.sampled_from(["a", "b", "c", "q"])
# lines of the shape each command reads, so runs also get past the checks
_FUZZ_WELL_FORMED = {
    "rank": st.fixed_dictionaries({"answer_id": _IDS, "up": st.integers(0, 9),
                                   "down": st.integers(0, 9)}),
    "replay": st.fixed_dictionaries({"question_id": _IDS, "answer_id": _IDS,
                                     "up_delta": st.integers(-1, 2),
                                     "down_delta": st.integers(-1, 2),
                                     "ts": st.integers(0, 3)}),
    "simulate": st.fixed_dictionaries({"answer_id": _IDS, "up_probability": st.floats(0, 1),
                                       "arrival_weight": st.floats(1e-300, 1e300)}),
}


def _fuzz_lines(command):
    well_formed = _FUZZ_WELL_FORMED[command].map(json.dumps)
    line = st.one_of(
        well_formed,
        st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=6).map(json.dumps),
        _FUZZ_VALUES.map(json.dumps),
    ).map(lambda text: text.encode("utf-8", "surrogatepass"))
    # half the inputs hold well-formed lines only, so runs also succeed
    return (st.lists(well_formed.map(str.encode), max_size=6)
            | st.lists(line | st.binary(max_size=12), max_size=6))


@pytest.mark.parametrize("command", ["rank", "replay", "simulate"])
def test_main_on_arbitrary_jsonl_exits_0_or_2_with_one_error_line(tmp_path, command):
    path = tmp_path / "input.jsonl"
    outputs = ["--events", "30", "--cadence", "7", "--trajectory-out", str(tmp_path / "t.jsonl"),
               "--report-out", str(tmp_path / "r.json")] if command == "simulate" else []

    @settings(max_examples=150, deadline=None)
    @given(lines=_fuzz_lines(command), newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
    def check(lines, newline):
        path.write_bytes(newline.join(lines) + newline)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path), *outputs])
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert rc == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    check()


_FLAG_TEXT = st.text(max_size=8)


@pytest.mark.parametrize("command", ["score", "rank"])
def test_main_on_arbitrary_flag_values_exits_0_or_2_with_one_error_line(tmp_path, command):
    tallies = tmp_path / "tallies.jsonl"
    write_jsonl(tallies, TRIO)
    head = ["score", "--up", "3", "--down", "1"] if command == "score" else ["rank", str(tallies)]
    names = st.sampled_from(sorted(_flags_of(command))) | _FLAG_TEXT

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(names, _FLAG_TEXT, st.booleans()), max_size=4))
    def check(pairs):
        # "--flag=value" also passes values that start with a dash
        argv = [*head, *(arg for name, value, joined in pairs
                         for arg in ([f"--{name}={value}"] if joined else [f"--{name}", value]))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert rc == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    check()
