"""Command-line behavior: output bytes, exit codes, checkpoints, workers.

Most cases drive main(argv) in process and capture stdout; one subprocess
case checks the installed entry point end to end.  Exit codes under test:
0 exists / success, 3 not-exists / failed verification, 2 usage, 4 state.
"""
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mstiff import cli, exact_core, gegenbauer, search, stiffness
from mstiff.cli import _parse_int, main
from mstiff.stiffness import n_upper_bound


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exists


def test_exists_4_23_text(capsys):
    code, out, _ = run(capsys, "exists", "--m", "4", "--d", "23")
    assert code == 0
    assert out.splitlines()[0] == \
        "Exists: a 4-stiff configuration on S^22 (d = 23)"
    assert "section polynomial roots: 5, 45" in out
    assert "+-1/sqrt(5)" in out and "+-1/sqrt(45)" in out
    assert "weights: 11/184, 81/184" in out


def test_exists_4_23_json(capsys):
    code, out, _ = run(
        capsys, "exists", "--m", "4", "--d", "23", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "m": 4,
        "d": 23,
        "verdict": "exists",
        "roots": ["5", "45"],
        "lambdas": ["11/184", "81/184"],
        "witness": None,
    }


def test_exists_5_26_json(capsys):
    code, out, _ = run(
        capsys, "exists", "--m", "5", "--d", "26", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["roots"] == ["4", "16"]
    assert payload["lambdas"] == ["5/273", "64/273", "45/91"]


def test_exists_degree_one(capsys):
    code, out, _ = run(
        capsys, "exists", "--m", "1", "--d", "9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "exists"
    assert payload["roots"] == []
    assert payload["lambdas"] == ["1"]


@pytest.mark.parametrize("m, d", [
    (26, "167571565284788680886349265747"),
    (30, "574476606496815820847242648679"),
])
def test_exists_cells_with_deep_root_isolation(capsys, m, d):
    # their section polynomials need more than a thousand bisection levels
    # to isolate the roots; a recursive bisection ended in RecursionError
    code, out, _ = run(
        capsys, "exists", "--m", str(m), "--d", d, "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "not_exists"
    assert payload["witness"]["type"] == "root"
    assert payload["witness"]["kind"] == "isolated-interval"


def test_exists_circle(capsys):
    code, out, _ = run(capsys, "exists", "--m", "6", "--d", "2")
    assert code == 0
    assert "regular 12-gon" in out
    assert "1/6" in out


def test_exists_not_exists_coefficient(capsys):
    code, out, _ = run(
        capsys, "exists", "--m", "6", "--d", "5", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "not_exists"
    w = payload["witness"]
    assert w["type"] == "coefficient"
    assert w["index"] == 3
    assert w["value"] == "429/5"


def test_exists_not_exists_text_exit(capsys):
    code, out, _ = run(capsys, "exists", "--m", "4", "--d", "10")
    assert code == 3
    assert out.startswith("NotExists: no 4-stiff configuration on S^9")
    assert "witness:" in out


# ---------------------------------------------------------------------------
# usage and state errors


def test_usage_exit_codes(capsys):
    assert run(capsys, "exists", "--m", "0", "--d", "5")[0] == 2
    assert run(capsys, "exists", "--m", "4", "--d", "1")[0] == 2
    assert run(capsys, "exists", "--m", "4", "--d", "23",
               "--precision", "10")[0] == 2
    assert run(capsys, "exists", "--m", "4", "--d", "23",
               "--precision", "10001")[0] == 2
    assert run(capsys, "exists", "--m", "4", "--d", "23",
               "--precision", "1e9")[0] == 2
    # more digits than the interpreter's default int-to-str limit
    assert run(capsys, "exists", "--m", "4", "--d", "23",
               "--precision", "5000")[0] == 0
    assert run(capsys, "classify")[0] == 2
    assert run(capsys, "classify", "--dim", "5", "--deg", "4")[0] == 2
    assert run(capsys, "pell", "--D", "4", "--M", "9")[0] == 2
    assert run(capsys, "pell", "--D", "6", "--M", "0")[0] == 2
    assert run(capsys, "verify", "no-such-claim")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "exists", "--m", "4", "--d", "23",
               "--format", "csv")[0] == 2


def test_exists_past_the_top_screen_limit_is_a_state_error(capsys):
    # neither screen is affordable there, so the cell is undecided at once
    code, out, err = run(capsys, "exists", "--m", "400002", "--d", "1e25")
    assert (code, out) == (4, "")
    assert err == (
        "state error: degree 400002 in dimension 10" + "0" * 24
        + " undecided: degree parameter 200001 exceeds the full-screen "
        "budget and dimension 10" + "0" * 24
        + " the top screen's limit 100000\n"
    )


def test_unknown_theorem_lists_tags(capsys):
    code, _, err = run(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "odd-dim-valuation" in err


@pytest.mark.parametrize("tag", ["odd-dim-valuation",
                                 "even-dim-divisor-product",
                                 "odd-deg-divisor-product", "thm-3.10"])
def test_verify_budget_on_a_family_claim_is_refused(capsys, tag):
    # only branch claims have a below-threshold sweep for --budget to cap,
    # so a family claim refuses it rather than pass on its full scans
    code, out, err = run(capsys, "verify", tag, "--budget", "2")
    assert (code, out) == (2, "")
    assert err == f"error: --budget does not apply to verify {tag}\n"


# a valid call of each subcommand (classify once per mode), so each case
# below differs from one in a single argument
VALID = {
    "exists": ("exists", "--m", "4", "--d", "23"),
    "classify --dim": ("classify", "--dim", "5"),
    "classify --deg low": ("classify", "--deg", "2"),
    "classify --deg sweep": ("classify", "--deg", "6", "--max-d", "10"),
    "classify --deg stream": ("classify", "--deg", "4", "--max-d", "30"),
    "tables": ("tables", "--which", "m4", "--limit", "30"),
    "pell": ("pell", "--D", "6", "--M", "9"),
    "newton": ("newton", "--m", "6", "--d", "6"),
    "bounds": ("bounds", "--d", "9"),
    "verify": ("verify", "dim4-even-deg"),
}
PSI_13 = "3317044064679887385961981"


@pytest.mark.parametrize("base, extra, flag", [
    # formats each subcommand (or classify mode) does not render
    *((base, ("--format", fmt), "--format")
      for base in ("exists", "pell", "newton", "bounds", "verify",
                   "classify --dim", "classify --deg low")
      for fmt in ("csv", "markdown")),
    ("classify --deg sweep", ("--format", "markdown"), "--format"),
    # --precision belongs to exists alone
    *((base, ("--precision", "50"), "--precision")
      for base in ("classify --dim", "tables", "pell", "newton", "bounds",
                   "verify")),
    # every bounded integer, one past its edge
    ("exists", ("--m", "0"), "--m"),
    ("exists", ("--d", "1"), "--d"),
    ("exists", ("--precision", "19"), "--precision"),
    ("exists", ("--precision", "10001"), "--precision"),
    ("classify --dim", ("--dim", "1"), "--dim"),
    ("classify --deg sweep", ("--deg", "0"), "--deg"),
    ("classify --deg sweep", ("--budget", "0"), "--budget"),
    ("classify --deg sweep", ("--workers", "0"), "--workers"),
    ("tables", ("--limit", "0"), "--limit"),
    ("pell", ("--D", "1"), "--D"),
    ("pell", ("--limit", "0"), "--limit"),
    ("newton", ("--m", "1"), "--m"),
    ("newton", ("--d", "1"), "--d"),
    ("newton", ("--p", "1"), "--p"),
    # psi_13 is the least number Miller-Rabin to the first 13 prime bases
    # would call prime wrongly
    ("newton", ("--p", PSI_13), "--p"),
    ("bounds", ("--d", "1"), "--d"),
    ("verify", ("--limit", "-1"), "--limit"),
    ("verify", ("--budget", "0"), "--budget"),
    # flags a classify mode would ignore
    *(("classify --dim", (flag, value), flag)
      for flag, value in (("--max-d", "50"), ("--budget", "3"),
                          ("--workers", "1"), ("--checkpoint", "x.jsonl"))),
    *((base, ("--max-m", "3"), "--max-m")
      for base in ("classify --deg low", "classify --deg stream",
                   "classify --deg sweep")),
    *((base, (flag, value), flag)
      for base in ("classify --deg stream", "classify --deg low")
      for flag, value in (("--budget", "7"), ("--workers", "1"),
                          ("--checkpoint", "x.jsonl"))),
])
def test_parser_refuses_bad_arguments(capsys, base, extra, flag):
    code, out, err = run(capsys, *VALID[base], *extra)
    assert (code, out) == (2, "")
    assert flag in err


def test_budgeted_sweep_does_not_build_the_grid(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "classify", "--deg", "6", "--max-d", "3000000",
            "--budget", "5", "--format", "json"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert (summary["cells"], summary["cells_examined"]) == (2999998, 5)
    assert summary["budget_exhausted"] is True
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# tables


def test_tables_limit_10_only_circle(capsys):
    code, out, _ = run(capsys, "tables", "--which", "m4", "--limit", "10")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2  # header plus the d = 2 row
    assert lines[1].startswith("2 ")


def test_tables_csv_crlf(capsys):
    code, out, _ = run(
        capsys, "tables", "--which", "m5", "--limit", "30",
        "--format", "csv"
    )
    assert code == 0
    assert out.startswith(
        "d,zero1,zero2,zero3,lambda1,lambda2,lambda3\r\n"
    )
    assert "26,1/2,1/4,0,5/273,64/273,45/91\r\n" in out


def test_tables_scientific_limit(capsys):
    code, out, _ = run(
        capsys, "tables", "--which", "m4", "--limit", "1e8",
        "--format", "json"
    )
    assert code == 0
    assert [r["d"] for r in json.loads(out)][-1] == 23049599


def test_scientific_notation_is_exact(capsys):
    assert _parse_int("1e30") == 10**30
    assert _parse_int("2.5e3") == 2500
    # through a float, this odd dimension would round to the even 1e30
    code, out, _ = run(
        capsys, "bounds", "--d", "1.000000000000000000000000000001e30",
        "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["d"] == 10**30 + 1


def test_scientific_notation_rejects_non_integers(capsys):
    for text in ("1.5e0", "5e-1", "1e99999"):
        code, out, err = run(
            capsys, "tables", "--which", "m4", "--limit", text
        )
        assert code == 2, text
        assert out == "" and "--limit" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_dim_2_sentinel(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "2")
    assert code == 0
    assert "every degree is admissible" in out

    code, out, _ = run(capsys, "classify", "--dim", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["all_degrees"] is True
    assert payload["degrees"] == "all"


def test_classify_dim_26_json(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "26", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 2, 3, 5]
    assert payload["complete"] is True
    parities = {b["parity"]: b for b in payload["branches"]}
    assert parities["odd"]["existing"] == [5]
    assert parities["even"]["existing"] == []


def test_classify_dim_max_m_filters_display(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "26", "--max-m", "3")
    assert code == 0
    assert "admissible degrees 1, 2, 3" in out.splitlines()[0]


def test_classify_deg_low_sentinel(capsys):
    code, out, _ = run(capsys, "classify", "--deg", "2")
    assert code == 0
    assert "every dimension d >= 2 is admissible" in out


def test_classify_deg_4_stream(capsys):
    code, out, _ = run(
        capsys, "classify", "--deg", "4", "--max-d", "3000",
        "--format", "json"
    )
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["admissible"] == [2, 23, 241, 2399]
    assert summary["complete"] is True
    row241 = json.loads(lines[2])
    assert row241["lambdas"] == ["125/2651", "2401/5302"]


def test_classify_deg_sweep_json_lines(capsys):
    code, out, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "20",
        "--format", "json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    cells = lines[:-1]
    assert [c["d"] for c in cells] == list(range(3, 21))
    assert all(c["verdict"] == "not_exists" for c in cells)
    assert summary["admissible"] == []
    assert summary["complete_below_max_d"] is True
    assert summary["budget"] is None
    # stdout stays timestamp-free; checkpoints are the only dated artifact
    assert "ts" not in summary


def test_classify_deg_sweep_budget(capsys):
    code, out, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "30",
        "--budget", "4", "--format", "json"
    )
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["cells_examined"] == 4
    assert summary["budget_exhausted"] is True
    assert summary["complete_below_max_d"] is False


def test_classify_deg_sweep_text(capsys):
    code, out, _ = run(capsys, "classify", "--deg", "7", "--max-d", "12")
    assert code == 0
    assert "degree 7 sweep over 3 <= d <= 12" in out
    assert "no admissible dimensions" in out


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_resume_and_replay(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    code, first, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "15",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 0
    assert len(ck.read_text().splitlines()) == 13
    for line in ck.read_text().splitlines():
        record = json.loads(line)
        assert record["kind"] == "classify-deg"
        assert record["cell"][0] == 6
        assert set(record) == {
            "kind", "cell", "verdict", "digest", "ts", "version"
        }

    # a resumed wider run replays all 13 cells and appends only new ones
    code, second, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "18",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 0
    summary = json.loads(second.splitlines()[-1])
    assert summary["cells_replayed"] == 13
    assert summary["cells_examined"] == 3
    assert len(ck.read_text().splitlines()) == 16

    # replayed cell records are byte-identical to a fresh computation
    code, fresh, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "18",
        "--format", "json"
    )
    assert fresh.splitlines()[:-1] == second.splitlines()[:-1]


def test_checkpoint_corruption_is_a_state_error(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    run(capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json")

    lines = ck.read_text().splitlines()
    tampered = lines[2].replace("not_exists", "exists")
    ck.write_text("\n".join(lines[:2] + [tampered] + lines[3:]) + "\n")
    code, _, err = run(
        capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 4
    assert "digest mismatch" in err

    ck.write_text("not json at all\n")
    code, _, err = run(
        capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 4
    assert "invalid JSON" in err


def _resume_with_record(tmp_path, capsys, edit):
    """Exit code and stderr of a degree-6 sweep to d = 5 resumed from its
    own checkpoint after edit(record) rewrote the d = 3 record, with the
    digest recomputed, as a forger would."""
    ck = tmp_path / "sweep.jsonl"
    argv = ("classify", "--deg", "6", "--max-d", "5", "--format", "json",
            "--checkpoint", str(ck))
    run(capsys, *argv)
    lines = ck.read_text().splitlines()
    record = edit(json.loads(lines[0]))
    if isinstance(record, dict) and "verdict" in record:
        record["digest"] = cli._digest(record["verdict"])
    ck.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    code, out, err = run(capsys, *argv)
    assert out == ""
    return code, err


def test_checkpoint_record_that_is_not_an_object_is_a_state_error(
    tmp_path, capsys
):
    code, err = _resume_with_record(tmp_path, capsys, lambda record: 5)
    assert code == 4
    assert "line 1: record is not a JSON object" in err


def test_checkpoint_verdict_that_is_not_an_object_is_a_state_error(
    tmp_path, capsys
):
    code, err = _resume_with_record(
        tmp_path, capsys, lambda record: {**record, "verdict": 5})
    assert code == 4
    assert "line 1: verdict is not an exists/not_exists/undecided " \
        "record of cell [6, 3]" in err


def test_checkpoint_verdict_without_its_dimension_is_a_state_error(
    tmp_path, capsys
):
    def drop_d(record):
        del record["verdict"]["d"]
        return record

    code, err = _resume_with_record(tmp_path, capsys, drop_d)
    assert code == 4
    assert "line 1: verdict is not" in err


def test_checkpoint_verdict_for_another_cell_is_a_state_error(
    tmp_path, capsys
):
    # a record of cell [6, 3] must not replay as an admissible d = 7
    def move(record):
        record["verdict"].update(d=7, verdict="exists")
        return record

    code, err = _resume_with_record(tmp_path, capsys, move)
    assert code == 4
    assert "line 1: verdict is not" in err and "cell [6, 3]" in err


def test_checkpoint_unknown_verdict_word_is_a_state_error(tmp_path, capsys):
    def reword(record):
        record["verdict"]["verdict"] = "maybe"
        return record

    code, err = _resume_with_record(tmp_path, capsys, reword)
    assert code == 4
    assert "line 1: verdict is not" in err


def test_checkpoint_boolean_cell_is_a_state_error(tmp_path, capsys):
    # True is an int to isinstance, but never a degree
    code, err = _resume_with_record(
        tmp_path, capsys, lambda record: {**record, "cell": [True, 3]})
    assert code == 4
    assert "line 1: malformed cell [True, 3]" in err


def test_checkpoint_torn_last_line_is_dropped_on_resume(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    _, fresh, _ = run(capsys, "classify", "--deg", "6", "--max-d", "10",
                      "--checkpoint", str(ck), "--format", "json")
    text = ck.read_text()
    ck.write_text(text[: len(text) - 40])  # a crash mid-append
    code, resumed, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 0
    summary = json.loads(resumed.splitlines()[-1])
    assert summary["cells_replayed"] == 7
    assert summary["cells_examined"] == 1
    assert resumed.splitlines()[:-1] == fresh.splitlines()[:-1]
    lines = ck.read_text().split("\n")
    assert lines[-1] == "" and len(lines) == 9
    for line in lines[:-1]:
        json.loads(line)

    # a torn line anywhere but at the end is still corruption
    ck.write_text(text[: len(text) - 40] + "\n" + text)
    code, _, err = run(
        capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 4
    assert "line 8: invalid JSON" in err


def test_checkpoint_whole_unterminated_last_line_is_kept(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    run(capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json")
    ck.write_text(ck.read_text().rstrip("\n"))
    code, out, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "11",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["cells_replayed"] == 8
    lines = ck.read_text().splitlines()
    assert len(lines) == 9 and [json.loads(x)["cell"] for x in lines][-2:] \
        == [[6, 10], [6, 11]]


def test_refused_checkpoint_with_a_whole_last_line_is_not_modified(
    tmp_path, capsys
):
    # the unterminated last line parses, so it is a record to check, and
    # the file gets no newline before every record is accepted
    ck = tmp_path / "sweep.jsonl"
    argv = ("classify", "--deg", "6", "--max-d", "5", "--format", "json",
            "--checkpoint", str(ck))
    run(capsys, *argv)
    ck.write_bytes(ck.read_bytes() + b"5")
    before = ck.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "line 4: record is not a JSON object" in err
    assert ck.read_bytes() == before


def test_refused_checkpoint_with_a_torn_last_line_is_not_truncated(
    tmp_path, capsys
):
    ck = tmp_path / "sweep.jsonl"
    argv = ("classify", "--deg", "6", "--max-d", "10", "--format", "json",
            "--checkpoint", str(ck))
    run(capsys, *argv)
    lines = ck.read_text().splitlines()
    lines[3] = lines[3].replace("not_exists", "exists")
    text = "\n".join(lines) + "\n"
    ck.write_text(text + lines[4][:40])
    before = ck.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "line 4: digest mismatch" in err
    assert ck.read_bytes() == before


def test_interrupted_sweep_keeps_every_decided_cell(
    tmp_path, capsys, monkeypatch
):
    argv = ("classify", "--deg", "6", "--max-d", "15", "--format", "json")
    _, fresh, _ = run(capsys, *argv)
    ck = tmp_path / "sweep.jsonl"
    decide = cli._sweep_cell
    decided = []

    def crash_after_five(args):
        if len(decided) == 5:
            raise RuntimeError("killed mid-sweep")
        decided.append(args)
        return decide(args)

    monkeypatch.setattr(cli, "_sweep_cell", crash_after_five)
    with pytest.raises(RuntimeError):
        main([*argv, "--checkpoint", str(ck)])
    capsys.readouterr()
    cells = [json.loads(x)["cell"] for x in ck.read_text().splitlines()]
    assert cells == [[6, d] for d in range(3, 8)]

    monkeypatch.undo()
    code, resumed, _ = run(capsys, *argv, "--checkpoint", str(ck))
    assert code == 0
    assert resumed.splitlines()[:-1] == fresh.splitlines()[:-1]
    summary = json.loads(resumed.splitlines()[-1])
    assert (summary["cells_replayed"], summary["cells_examined"]) == (5, 8)
    expected = json.loads(fresh.splitlines()[-1])
    expected.update(cells_replayed=5, cells_examined=8)
    assert summary == expected
    assert len(ck.read_text().splitlines()) == 13

    # the worker path writes the same records, one per decided cell
    ck2 = tmp_path / "workers.jsonl"
    code, parallel, _ = run(
        capsys, *argv, "--workers", "2", "--checkpoint", str(ck2)
    )
    assert code == 0 and parallel == fresh
    assert [json.loads(x)["cell"] for x in ck2.read_text().splitlines()] \
        == [[6, d] for d in range(3, 16)]


def test_checkpoint_wrong_sweep_rejected(tmp_path, capsys):
    ck = tmp_path / "sweep.jsonl"
    run(capsys, "classify", "--deg", "6", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json")
    code, _, err = run(
        capsys, "classify", "--deg", "7", "--max-d", "10",
        "--checkpoint", str(ck), "--format", "json"
    )
    assert code == 4
    assert "different sweep" in err


def test_checkpoint_rejected_outside_sweeps(capsys, tmp_path):
    ck = tmp_path / "x.jsonl"
    code, _, err = run(
        capsys, "classify", "--dim", "5", "--checkpoint", str(ck)
    )
    assert code == 2


# ---------------------------------------------------------------------------
# workers


def test_worker_count_does_not_change_bytes(capsys):
    code, serial, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "25",
        "--format", "json"
    )
    assert code == 0
    code, parallel, _ = run(
        capsys, "classify", "--deg", "6", "--max-d", "25",
        "--workers", "2", "--format", "json"
    )
    assert code == 0
    assert serial == parallel


# ---------------------------------------------------------------------------
# pell


def test_pell_unit_and_single_class(capsys):
    code, out, _ = run(capsys, "pell", "--D", "6", "--M", "9")
    assert code == 0
    assert "fundamental unit of Z[sqrt(6)]: 5+2*sqrt(6) (norm 1)" in out
    assert "solutions of x^2 - 6*y^2 = 9: 1 class" in out
    assert "class 3: orbit 3, 15+6*sqrt(6)" in out


def test_pell_negative_norm_unit(capsys):
    code, out, _ = run(capsys, "pell", "--D", "2", "--M", "1")
    assert code == 0
    assert "1+sqrt(2) (norm -1)" in out
    assert "norm-1 orbit generator: 3+2*sqrt(2)" in out
    assert "orbit 1, 3+2*sqrt(2), 17+12*sqrt(2)" in out


def test_pell_three_classes_json(capsys):
    code, out, _ = run(
        capsys, "pell", "--D", "10", "--M", "9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fundamental_unit"]["str"] == "3+sqrt(10)"
    assert payload["fundamental_unit"]["norm"] == -1
    assert [c["str"] for c in payload["classes"]] == [
        "3", "7-2*sqrt(10)", "7+2*sqrt(10)"
    ]


def test_pell_no_solutions(capsys):
    code, out, _ = run(capsys, "pell", "--D", "3", "--M", "5")
    assert code == 0
    assert "solutions of x^2 - 3*y^2 = 5: none" in out


# ---------------------------------------------------------------------------
# newton


def test_newton_section_polynomial(capsys):
    code, out, _ = run(capsys, "newton", "--m", "6", "--d", "6", "--p", "2")
    assert code == 0
    assert "vertices: (0, 0), (1, 0), (2, 1), (4, 4)" in out
    assert "slopes: 1, 3/2" in out
    assert "non-integer slope 3/2" in out


def test_newton_explicit_polynomial(capsys):
    # x^2 - 1, written leading coefficient first
    code, out, _ = run(capsys, "newton", "1,0,-1", "--p", "2")
    assert code == 0
    assert "all slopes are integers" in out


def test_newton_json(capsys):
    code, out, _ = run(
        capsys, "newton", "--m", "6", "--d", "6", "--p", "2",
        "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [[0, 0], [1, 0], [2, 1], [4, 4]]
    assert payload["slopes"] == ["1", "3/2"]
    assert payload["all_slopes_integer"] is False
    assert payload["fractional_slopes"] == ["3/2"]


def test_newton_usage(capsys):
    assert run(capsys, "newton", "--p", "2")[0] == 2
    assert run(capsys, "newton", "--m", "6", "--p", "4")[0] == 2
    assert run(capsys, "newton", "1,0,-1", "--m", "6", "--d", "6")[0] == 2
    assert run(capsys, "newton", "0,1")[0] == 2


# ---------------------------------------------------------------------------
# bounds


def test_bounds_odd_dimension(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "9")
    assert code == 0
    assert "n >= 23 (odd-dim-valuation, conservative)" in out
    assert "n >= 27 (odd-dim-valuation, conservative)" in out


def test_bounds_circle(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2")
    assert code == 0
    assert out.count("no finite threshold") == 2


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4", "--format", "json")
    payload = json.loads(out)
    by_parity = {b["parity"]: b for b in payload["bounds"]}
    assert by_parity["even"]["threshold"] == 6
    assert by_parity["odd"]["threshold"] == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_threshold_past_the_int_str_limit(capsys, fmt):
    # the even-degree threshold of d = 10000 has more than 4,300 digits,
    # the interpreter's default limit for int-to-str conversion
    code, out, _ = run(capsys, "bounds", "--d", "10000", "--format", fmt)
    assert code == 0
    expected = n_upper_bound(10000, False).threshold
    assert expected > 10**4300
    if fmt == "json":
        by_parity = {b["parity"]: b for b in json.loads(out)["bounds"]}
        assert by_parity["even"]["threshold"] == expected
    else:
        assert int(re.search(r"n >= (\d+)", out).group(1)) == expected


# ---------------------------------------------------------------------------
# verify


def test_verify_alias_passes(capsys):
    code, out, _ = run(capsys, "verify", "thm-4.4")
    assert code == 0
    assert "theorem check dim4-even-deg (alias thm-4.4): PASSED" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "dim6-even-deg", "--limit", "10",
        "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"]


def test_tables_and_verify_factor_only_off_the_table(capsys, monkeypatch):
    # every factorize call stays below 2^16, and Miller-Rabin only checks
    # the Newton screen's primes 2, 3 and 5
    calls = []
    for module in (exact_core, gegenbauer, search, stiffness, cli):
        for name in ("factorize", "is_probable_prime"):
            original = getattr(module, name, None)
            if original is None:
                continue

            def spy(n, name=name, original=original):
                calls.append((name, n))
                return original(n)

            monkeypatch.setattr(module, name, spy)
    argvs = [["tables", "--which", which, "--limit", "1e25"]
             for which in ("m4", "m5")]
    argvs += [["verify", tag] for tag in search.theorem_tags()]
    for argv in argvs:
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert all(abs(n) < 1 << 16 for name, n in calls
                   if name == "factorize"), argv
        assert {n for name, n in calls
                if name == "is_probable_prime"} <= {2, 3, 5}, argv
    assert {name for name, _ in calls} == {"factorize", "is_probable_prime"}


# ---------------------------------------------------------------------------
# Sturm isolation runs only where it must


def sturm_spy(monkeypatch) -> tuple[list, list]:
    """Count exact_core.isolate_real_roots calls, in every module that
    binds it, and record each stiff_exists call, in every module that binds
    that, with the isolations it made: returns (the verdict and count per
    decision, the total count in a one-item list)."""
    decisions, total = [], [0]
    isolate, decide = exact_core.isolate_real_roots, stiffness.stiff_exists

    def isolate_spy(f):
        total[0] += 1
        return isolate(f)

    def decide_spy(*args, **kwargs):
        before = total[0]
        verdict = decide(*args, **kwargs)
        decisions.append((verdict, total[0] - before))
        return verdict

    modules = [mod for name, mod in sys.modules.items()
               if name == "mstiff" or name.startswith("mstiff.")]
    for mod in modules:
        for name, original, spy in (
                ("isolate_real_roots", isolate, isolate_spy),
                ("stiff_exists", decide, decide_spy)):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    return decisions, total


def test_sweeps_and_verify_isolate_no_root_of_a_not_exists_cell(
        capsys, monkeypatch):
    # classify --deg sweeps and every theorem check read only the stage
    # word, so a cell refused at root certification is refused by a prime
    decisions, total = sturm_spy(monkeypatch)
    for m in range(6, 11):
        code, _, _ = run(capsys, "classify", "--deg", str(m), "--max-d",
                         "200", "--format", "json")
        assert code == 0
    swept = len(decisions)
    for tag in search.theorem_tags():
        assert search.verify_theorem(tag).passed, tag
    assert len(decisions) > swept
    refused = [v for v, _ in decisions
               if v.stage == "root-certification"]
    assert len(refused) > 50
    assert all(v.witness.prime is not None for v in refused)
    assert all(calls == 0 for v, calls in decisions if not v.exists)
    assert total[0] == sum(calls for _, calls in decisions)


ROOT_WITNESSES = Path(__file__).with_name("data") / "root_witnesses.jsonl"


@pytest.mark.parametrize("m, d, prime", [
    (4, 25, 5), (5, 9, 5), (4, 131, 23), (5, 69, 23), (4, 271, None),
])
def test_exists_renders_the_sturm_witness_of_a_refused_cell(
        capsys, monkeypatch, m, d, prime):
    # a prime decides the cell, and exists still prints the Sturm witness;
    # (4, 271) splits modulo every prime tried, so Sturm decides it
    golden = {}
    for line in ROOT_WITNESSES.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        golden[obj["m"], obj["d"]] = obj
    decisions, total = sturm_spy(monkeypatch)
    code, out, _ = run(capsys, "exists", "--m", str(m), "--d", str(d),
                       "--format", "json")
    assert code == 3
    assert json.loads(out) == golden[m, d]
    assert golden[m, d]["witness"]["type"] == "root"
    [(verdict, calls)] = decisions
    assert verdict.witness.prime == prime
    if prime is None:
        # Sturm decided it, and its witness renders without a second run
        assert calls > 0 and total[0] == calls
    else:
        # decided without Sturm, which runs only to render the witness
        assert calls == 0 and total[0] > 0
    code, out, _ = run(capsys, "exists", "--m", str(m), "--d", str(d))
    w = golden[m, d]["witness"]
    assert code == 3
    assert out.splitlines()[1] == (
        f"  witness: root certification ({w['kind']}): {w['detail']}")


# ---------------------------------------------------------------------------
# JSON encodings of sweep cells and checkpoint records

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


@given(st.dictionaries(st.text(), json_values, max_size=6), st.integers())
def test_sweep_encodings_match_json_dumps(verdict, d):
    verdict = {**verdict, "d": d}
    compact = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert cli._digest(verdict) == \
        hashlib.sha256(compact.encode("utf-8")).hexdigest()[:12]
    assert cli._SORTED_JSON.encode(verdict) == \
        json.dumps(verdict, sort_keys=True)
    line = cli._checkpoint_line("classify-deg", 6, verdict)
    record = json.loads(line)
    assert line == json.dumps(record, sort_keys=True) + "\n"
    assert record["verdict"] == json.loads(json.dumps(verdict))


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mstiff", "exists", "--m", "5", "--d", "124",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["roots"] == ["16", "208/3"]
    assert payload["lambdas"] == ["41/3255", "2197/9765", "1025/1953"]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_parser_shared_across_calls_prints_what_fresh_parsers_print(capsys):
    # build_parser is cached, so one process reuses the parser that a
    # usage error and --version went through
    calls = (
        ("exists", "--m", "4"),
        ("--version",),
        ("exists", "--m", "6", "--d", "5", "--format", "json"),
    )
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 3]
    assert "required" in shared[0][2] and shared[1][1].strip()
