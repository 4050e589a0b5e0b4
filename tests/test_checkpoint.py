"""Checkpoint replay: the canonical-record path against the JSON checks.

`cli._canonical_record` replays a record written by `_checkpoint_line`
with one pattern match and one sha256; `cli._checked_record` decodes any
line as JSON and checks it field by field.  The property here is that
whatever the first accepts, the second accepts as the same cell with the
same row and CSV detail.  The other cases lock a resumed sweep's output
bytes in every format and the refusal of disagreeing duplicate records.
"""
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstiff import cli
from mstiff.cli import StateError, main

KIND, M = "classify-deg", 6


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checked(line: str):
    """(d, row) by the JSON checks, or None when they refuse the line."""
    try:
        return cli._checked_record(line, KIND, M, "line")
    except StateError:
        return None


# ---------------------------------------------------------------------------
# the twin property

STAGES = ("bound", "coefficient-screen", "newton-screen", "root-certification",
          "top-screen")
# what the canonical pattern must treat with care: the separators, JSON
# escapes, non-ASCII letters and digits, DEL and control bytes, a line
# separator a JSON string may hold, a no-break space, signs and brackets
SEPARATORS = (", ", ": ")
TRICKY = (",", ":", '"', "\\", "\\u0041", "\\x", "\xe9", "\u0663", "\x7f",
          "\x00", "\u2028", "\xa0", "-", "0", "-0", "9", "{", "}", "[", "]")
tricky = st.sampled_from(SEPARATORS) | st.sampled_from(TRICKY)

safe_words = st.sampled_from(STAGES) | st.from_regex(
    r"[a-z0-9/ ()=<>+*.-]{0,12}", fullmatch=True)
unsafe_words = st.one_of(
    st.builds(lambda a, t, b: a + t + b, safe_words, tricky, safe_words),
    st.text(max_size=8),
)
dims = st.sampled_from([0, 3, 4]) | st.integers(3, 2000) | st.integers()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DETAIL_KEYS = {"exists": "roots", "not_exists": "witness",
               "undecided": "reason"}


@st.composite
def sweep_verdicts(draw, m, strings):
    """A verdict of the shape _sweep_cell writes, at times with the other
    detail keys as well."""
    word = draw(st.sampled_from(cli._CELL_VERDICTS))
    verdict = {"m": m, "d": draw(dims), "verdict": word}
    for key in ("roots", "witness", "reason"):
        if key == DETAIL_KEYS[word] or draw(st.integers(0, 3)) == 0:
            verdict[key] = draw(
                st.lists(strings, max_size=4) if key == "roots"
                else strings)
    return verdict


@st.composite
def arbitrary_verdicts(draw, m):
    keys = st.sampled_from(["d", "m", "verdict", "witness", "reason",
                            "roots", "x"]) | st.text(max_size=4)
    verdict = draw(st.dictionaries(keys, json_values, max_size=6))
    verdict["d"] = draw(dims)
    if draw(st.booleans()):
        verdict["m"] = m
    if draw(st.booleans()):
        verdict["verdict"] = draw(st.sampled_from(cli._CELL_VERDICTS))
    return verdict


def _refresh_digest(line: str, how: str) -> str:
    """The line with its digest recomputed as a forger would: over the
    decoded verdict, or over the verdict's text less the separators'
    spaces, which is only the compact encoding in the canonical form."""
    if how == "decoded":
        try:
            digest = cli._digest(json.loads(line)["verdict"])
        except (ValueError, TypeError, KeyError):
            return line
    else:
        found = re.search(r'"verdict": (\{.*\}), "version"', line)
        if found is None:
            return line
        compact = found.group(1).replace(", ", ",").replace(": ", ":")
        digest = hashlib.sha256(compact.encode()).hexdigest()[:12]
    return re.sub(r'"digest": "[^"]*"', f'"digest": "{digest}"', line,
                  count=1)


def _raw(line: str, key: str, text: str) -> str:
    """The line with the string of `key` swapped for text no encoder
    wrote: unescaped, so it may hold quotes, backslashes, control bytes."""
    return re.sub(f'"{key}": "[^"]*"', lambda _: f'"{key}": "{text}"',
                  line, count=1)


def _negative_zeros(line: str) -> str:
    return re.sub(r"(?<=[ \[])0(?=[,\]}])", "-0", line)


# raw bytes inside a JSON string: some escapes are invalid, some valid
RAW = ("\\", "\\x", "\\u12", "\\u0041", "\\/", "\x00", "\t", "\xe9",
       "\u2028")
FAULTS = ("cell-m", "verdict-m", "cell-d", "kind", "version", "words",
          "raw", "negative-zero", "repeated-key", "digest")


@st.composite
def forged_lines(draw):
    """A record assembled field by field with one or two faults: a wrong
    field or digest, a string of raw text, a zero written -0, a key
    repeated, or strings the canonical form does not reuse; unless the
    digest is the fault, it is then recomputed over the decoded verdict or
    over the verdict's text, or left as it was."""
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    d = 0 if "negative-zero" in faults else draw(dims)
    cell_m = 7 if "cell-m" in faults else M
    verdict = draw(sweep_verdicts(
        M + 1 if "verdict-m" in faults else cell_m,
        unsafe_words if "words" in faults else safe_words))
    verdict["d"] = d
    record = {
        "cell": [cell_m, d + 1 if "cell-d" in faults else d],
        "digest": cli._digest(
            {**verdict, "d": d + 1} if "digest" in faults else verdict),
        "kind": "classify-dim" if "kind" in faults else KIND,
        "ts": "2026-01-01T00:00:00.000001+00:00",
        "verdict": verdict,
        "version": "0.0.0" if "version" in faults else cli.__version__,
    }
    line = json.dumps(record, sort_keys=True)
    if "raw" in faults:
        key = draw(st.sampled_from(
            ["ts", "ts", "kind", "version", "witness", "reason"]))
        line = _raw(line, key, draw(st.sampled_from(RAW) | unsafe_words))
    if "negative-zero" in faults:
        line = _negative_zeros(line)
    if "repeated-key" in faults:
        key = draw(st.sampled_from(["d", "m", "verdict", "witness"]))
        line = line.replace(
            '"verdict": {', f'"verdict": {{"{key}": {d + 1}, ', 1)
    how = "stale" if "digest" in faults else draw(
        st.sampled_from(["slice", "slice", "decoded", "stale"]))
    return line if how == "stale" else _refresh_digest(line, how)


@st.composite
def edited(draw, line: str) -> str:
    """The line after one or two byte edits or a re-encoding, each at
    times followed by a recomputed digest."""
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["delete", "insert", "replace", "reencode"]))
        at = draw(st.integers(0, len(line)))
        char = draw(tricky | st.characters())
        if op == "delete":
            line = line[:at] + line[at + 1:]
        elif op == "insert":
            line = line[:at] + char + line[at:]
        elif op == "replace":
            line = line[:at] + char + line[at + 1:]
        else:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            line = json.dumps(
                record,
                sort_keys=draw(st.booleans()),
                ensure_ascii=draw(st.booleans()),
                separators=draw(st.sampled_from(
                    [(", ", ": "), (",", ":"), (",  ", ":")])),
            )
        if draw(st.booleans()):
            line = _refresh_digest(
                line, draw(st.sampled_from(["decoded", "slice"])))
    return line


@st.composite
def written_lines(draw):
    """(line, pristine): a _checkpoint_line record, edited or not;
    pristine when it is an unedited sweep-shaped record of this sweep whose
    strings hold only the bytes the canonical form reuses."""
    shaped, safe = draw(st.booleans()), draw(st.booleans())
    cell_m = draw(st.sampled_from([M, M, M, 7]))
    if shaped:
        verdict = draw(
            sweep_verdicts(cell_m, safe_words if safe else unsafe_words))
    else:
        verdict = draw(arbitrary_verdicts(cell_m))
    line = cli._checkpoint_line(KIND, cell_m, verdict).rstrip("\n")
    edit = draw(st.sampled_from(["none", "slice-digest", "bytes"]))
    if edit == "slice-digest":
        return _refresh_digest(line, "slice"), False
    if edit == "bytes":
        return draw(edited(line)), False
    return line, shaped and safe and cell_m == M


@settings(max_examples=1000)
@given(written_lines() | forged_lines().map(lambda line: (line, False)))
def test_canonical_records_replay_as_the_json_checks_do(drawn):
    line, pristine = drawn
    fast = cli._canonical_record(line, KIND, M)
    if pristine:
        assert fast is not None, line
    if fast is None:
        return
    assert checked(line) == fast
    verdict = json.loads(line)["verdict"]
    d, row = fast
    assert d == verdict["d"]
    assert row.verdict == verdict["verdict"]
    assert row.row == json.dumps(verdict, sort_keys=True)
    assert row.detail == (
        verdict.get("witness") or verdict.get("reason") or "")


@pytest.mark.parametrize("edit", [
    lambda v: {**v, "witness": "a, b"},
    lambda v: {**v, "witness": "a: b"},
    lambda v: {**v, "witness": "caf\xe9"},
    lambda v: {**v, "witness": "\u0663"},
    lambda v: {**v, "witness": 'say "no"'},
])
def test_records_with_strings_the_row_cannot_reuse_take_the_json_checks(
    edit
):
    verdict = edit({"m": M, "d": 9, "verdict": "not_exists",
                    "witness": "bound"})
    line = cli._checkpoint_line(KIND, M, verdict).rstrip("\n")
    assert cli._canonical_record(line, KIND, M) is None
    d, row = checked(line)
    assert (d, row.detail) == (9, verdict["witness"])


def test_every_record_of_a_degree_6_to_10_sweep_replays_without_json(
    tmp_path, capsys, monkeypatch
):
    """The sweeps the benchmark resumes (m = 6..10, d <= 1000) write only
    records the canonical path replays."""
    argvs = {}
    fresh = {}
    for m in range(6, 11):
        ck = tmp_path / f"m{m}.jsonl"
        argvs[m] = ("classify", "--deg", str(m), "--max-d", "1000",
                    "--format", "json", "--checkpoint", str(ck))
        _, fresh[m], _ = run(capsys, *argvs[m])

    def refuse(line, *args):
        raise AssertionError(f"decoded as JSON: {line}")

    monkeypatch.setattr(cli, "_checked_record", refuse)
    for m in range(6, 11):
        code, resumed, _ = run(capsys, *argvs[m])
        assert code == 0
        assert resumed.splitlines()[:-1] == fresh[m].splitlines()[:-1]
        summary = json.loads(resumed.splitlines()[-1])
        assert (summary["cells_replayed"], summary["cells_examined"]) \
            == (998, 0)


# ---------------------------------------------------------------------------
# a resumed sweep prints what a fresh one does, in every format

PLANTED = {
    4: {"m": M, "d": 4, "verdict": "exists", "roots": ["1/3", "-2/5", "7"]},
    5: {"m": M, "d": 5, "verdict": "undecided",
        "reason": "planted, with a comma: and a colon"},
}


def test_resumed_sweep_prints_the_fresh_bytes_in_every_format(
    tmp_path, capsys, monkeypatch
):
    # cells 4 and 5 are planted, so the grid holds every verdict word
    real = cli._sweep_cell

    def planted(args):
        return PLANTED.get(args[1]) or real(args)

    monkeypatch.setattr(cli, "_sweep_cell", planted)
    ck = tmp_path / "sweep.jsonl"
    lines = [cli._checkpoint_line(KIND, M, planted((M, d)))
             for d in range(3, 13)]
    # the d = 9 record as a compact encoder would write it: valid, but
    # not canonical
    lines[6] = json.dumps(json.loads(lines[6]), separators=(",", ":")) + "\n"
    taken = [cli._canonical_record(x.rstrip("\n"), KIND, M) is not None
             for x in lines]
    assert taken == [True, True, False, True, True, True, False, True,
                     True, True]

    argv = ("classify", "--deg", "6", "--max-d", "15")
    for fmt in ("json", "csv", "text"):
        ck.write_text("".join(lines))
        code, fresh, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        code, resumed, _ = run(capsys, *argv, "--format", fmt,
                               "--checkpoint", str(ck))
        assert code == 0
        if fmt == "csv":
            assert resumed == fresh
            assert "6,4,exists,\r\n" in fresh
            assert '6,5,undecided,"planted, with a comma: and a colon"' \
                in fresh
        elif fmt == "json":
            assert resumed.splitlines()[:-1] == fresh.splitlines()[:-1]
            summary = json.loads(resumed.splitlines()[-1])
            expected = json.loads(fresh.splitlines()[-1])
            assert (summary["cells_replayed"], summary["cells_examined"]) \
                == (10, 3)
            expected.update(cells_replayed=10, cells_examined=3)
            assert summary == expected
            assert expected["admissible"] == [4]
            assert expected["undecided"] == [5]
        else:
            assert [x for x in resumed.splitlines() if "cells:" not in x] \
                == [x for x in fresh.splitlines() if "cells:" not in x]
            assert "  cells: 13 (3 examined, 10 replayed)" in resumed
            assert "  d = 4: exists" in fresh
            assert "  undecided: 5" in fresh


# ---------------------------------------------------------------------------
# duplicate records of one cell

def _sweep_lines(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    argv = ("classify", "--deg", "6", "--max-d", "8", "--format", "json",
            "--checkpoint", str(ck))
    _, fresh, _ = run(capsys, *argv)
    return ck, argv, fresh, ck.read_text().splitlines()


def _reworded(line: str, canonical: bool) -> str:
    """The d = 3 record with another witness and its digest recomputed,
    in the canonical form or in a compact one."""
    record = json.loads(line)
    record["verdict"]["witness"] = "newton-screen"
    record["digest"] = cli._digest(record["verdict"])
    if canonical:
        return json.dumps(record, sort_keys=True)
    return json.dumps(record, separators=(",", ":"))


@pytest.mark.parametrize("canonical", [True, False])
def test_identical_duplicate_records_replay(tmp_path, capsys, canonical):
    # two sweeps of one grid write the same rows under different timestamps
    ck, argv, fresh, lines = _sweep_lines(tmp_path, capsys)
    record = json.loads(lines[0])
    record["ts"] = "2000-01-01T00:00:00+00:00"
    twin = json.dumps(record, sort_keys=True) if canonical else \
        json.dumps(record, indent=None, separators=(",", ":"))
    assert (cli._canonical_record(twin, KIND, M) is not None) == canonical
    ck.write_text("\n".join([*lines, twin]) + "\n")
    code, resumed, _ = run(capsys, *argv)
    assert code == 0
    assert resumed.splitlines()[:-1] == fresh.splitlines()[:-1]
    assert json.loads(resumed.splitlines()[-1])["cells_replayed"] == 6


def test_record_with_a_raw_line_separator_replays(tmp_path, capsys):
    # JSON strings may hold U+2028 unescaped; only "\n" ends a record
    ck, argv, _, lines = _sweep_lines(tmp_path, capsys)
    record = json.loads(lines[0])
    reason = "split\u2028here\x1cand\x85there"
    record["verdict"] = {"d": 3, "m": 6, "reason": reason,
                         "verdict": "undecided"}
    record["digest"] = cli._digest(record["verdict"])
    raw = json.dumps(record, sort_keys=True, ensure_ascii=False)
    assert "\u2028" in raw
    ck.write_text("\n".join([raw, *lines[1:]]) + "\n", encoding="utf-8")
    code, resumed, err = run(capsys, *argv)
    assert code == 0, err
    rows = [json.loads(x) for x in resumed.splitlines()]
    assert rows[0] == record["verdict"]
    assert rows[-1]["cells_replayed"] == 6


@pytest.mark.parametrize("canonical", [True, False])
def test_disagreeing_duplicate_records_are_a_state_error(
    tmp_path, capsys, canonical
):
    ck, argv, _, lines = _sweep_lines(tmp_path, capsys)
    other = _reworded(lines[0], canonical)
    assert (cli._canonical_record(other, KIND, M) is not None) == canonical
    ck.write_text("\n".join([*lines, other]) + "\n")
    before = ck.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "line 7: cell [6, 3] disagrees with line 1" in err
    assert ck.read_bytes() == before
