"""Byte lock on the command line: stdout and exit code of every subcommand.

`data/cli_golden.jsonl` holds one line per invocation of `mstiff.cli.main`:
its argv, its exit code and the sha256 of its stdout.  The grid covers
every subcommand in every format it renders, dimensions up to 10^30 + 1,
scientific-notation arguments and a set of bad inputs (which exit 2 with
empty stdout).  stderr is not locked.  After a deliberate output change,
rewrite the file with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path

from mstiff.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.jsonl"

FORMATS = ("text", "csv", "json", "markdown")
EXISTS_DIMS = ("2", "3", "5", "10", "23", "26", "124", "2399",
               "1.000000000000000000000000000001e30")
# (m, d) of exists branches the grid above misses: the top screen's witness
# (no prime, no value) for an even and two odd degrees, a witness value
# past the bit cap, a conservative bound, and a cell past the top screen's
# dimension limit (exit 4)
EXISTS_CELLS = (("200", "62"), ("201", "62"), ("203", "40"),
                ("322", "10000000000000000000000001"),
                ("100", "5"), ("400002", "1e25"))
VERIFY_TAGS = ("dim4-even-deg", "dim4-odd-deg", "dim6-even-deg", "dim6-odd-deg",
               "dim8-even-deg", "dim8-odd-deg", "dim10-even-deg",
               "dim10-odd-deg", "dim12-odd-deg", "dim14-odd-deg",
               "even-dim-divisor-product", "odd-deg-divisor-product",
               "odd-dim-valuation", "thm-4.4")
BAD_INPUTS = (
    ["nonsense"],
    ["exists", "--m", "4"],
    ["exists", "--m", "0", "--d", "5"],
    ["exists", "--m", "4", "--d", "1"],
    ["exists", "--m", "x", "--d", "5"],
    ["exists", "--m", "4", "--d", "1.5e0"],
    ["exists", "--m", "4", "--d", "1e99999"],
    ["exists", "--m", "4", "--d", "23", "--precision", "19"],
    ["classify"],
    ["classify", "--dim", "5", "--deg", "4"],
    ["classify", "--dim", "1"],
    ["classify", "--deg", "0"],
    ["classify", "--deg", "6", "--max-d", "2"],
    ["classify", "--deg", "6", "--max-d", "20", "--budget", "0"],
    ["classify", "--deg", "6", "--max-d", "20", "--workers", "0"],
    ["classify", "--dim", "5", "--checkpoint", "unused.jsonl"],
    ["classify", "--deg", "4", "--checkpoint", "unused.jsonl"],
    ["tables", "--which", "m6"],
    ["tables", "--which", "m4", "--limit", "0"],
    ["pell", "--D", "4", "--M", "9"],
    ["pell", "--D", "6", "--M", "0"],
    ["pell", "--D", "6", "--M", "9", "--limit", "0"],
    ["newton", "--p", "2"],
    ["newton", "--m", "6", "--d", "6", "--p", "4"],
    ["newton", "--m", "1", "--d", "6"],
    ["newton", "1,0,-1", "--m", "6", "--d", "6"],
    ["newton", "0,1"],
    ["newton", "1,x"],
    ["bounds", "--d", "1"],
    ["verify", "no-such-claim"],
    ["verify", "dim4-even-deg", "--limit", "-1"],
    ["verify", "dim4-even-deg", "--budget", "0"],
    ["verify", "odd-dim-valuation", "--budget", "2"],
    ["verify", "even-dim-divisor-product", "--budget", "2"],
    ["verify", "odd-deg-divisor-product", "--budget", "2"],
)


def golden_argv() -> list[list[str]]:
    cases = [["--version"]]
    for m in range(1, 13):
        for d in EXISTS_DIMS:
            for fmt in ("text", "json"):
                cases.append(["exists", "--m", str(m), "--d", d,
                              "--format", fmt])
    for m, d in EXISTS_CELLS:
        for fmt in ("text", "json"):
            cases.append(["exists", "--m", m, "--d", d, "--format", fmt])
    for precision in ("20", "5000"):
        cases.append(["exists", "--m", "4", "--d", "23",
                      "--precision", precision])
    for dim in [*range(2, 40), *range(40, 201, 2)]:
        for fmt in ("text", "json"):
            cases.append(["classify", "--dim", str(dim), "--format", fmt])
    cases.append(["classify", "--dim", "400", "--format", "json"])
    for dim in range(41, 200, 2):
        for fmt in ("text", "json"):
            cases.append(["classify", "--dim", str(dim), "--format", fmt])
    cases.append(["classify", "--dim", "401", "--format", "json"])
    cases.append(["classify", "--dim", "26", "--max-m", "3"])
    cases.append(["classify", "--dim", "26", "--max-m", "3",
                  "--format", "json"])
    for fmt in ("text", "json"):
        cases.append(["classify", "--dim", "26", "--max-m", "5",
                      "--format", fmt])
    cases.append(["classify", "--dim", "2", "--max-m", "3",
                  "--format", "json"])
    for deg in range(1, 11):
        for fmt in FORMATS:
            cases.append(["classify", "--deg", str(deg), "--max-d", "60",
                          "--format", fmt])
    for fmt in FORMATS:
        cases.append(["classify", "--deg", "5", "--format", fmt])
        cases.append(["classify", "--deg", "6", "--max-d", "40",
                      "--budget", "5", "--format", fmt])
    for which in ("m4", "m5"):
        for limit in ("10", "30", "1e8", "1e25"):
            for fmt in FORMATS:
                cases.append(["tables", "--which", which, "--limit", limit,
                              "--format", fmt])
    cases.append(["tables", "--which", "m4"])
    for big_d, big_m, orbit in (("6", "9", "3"), ("2", "1", "3"),
                                ("10", "9", "2"), ("3", "5", "3"),
                                ("8", "-4", "4"), ("13", "-1", "1")):
        for fmt in FORMATS:
            cases.append(["pell", "--D", big_d, "--M", big_m,
                          "--limit", orbit, "--format", fmt])
    for source in (["--m", "6", "--d", "6", "--p", "2"],
                   ["--m", "10", "--d", "100", "--p", "5"],
                   ["--m", "7", "--d", "1e30", "--p", "3"],
                   ["1,0,-1", "--p", "2"],
                   ["1/2,3,-4/9", "--p", "3"],
                   ["4,0,0,2"]):
        for fmt in FORMATS:
            cases.append(["newton", *source, "--format", fmt])
    for d in ("2", "3", "4", "9", "26", "10000",
              "1.000000000000000000000000000001e30"):
        for fmt in FORMATS:
            cases.append(["bounds", "--d", d, "--format", fmt])
    for tag in VERIFY_TAGS:
        for fmt in FORMATS:
            cases.append(["verify", tag, "--limit", "5", "--format", fmt])
    cases.append(["verify", "dim4-even-deg"])
    cases.append(["verify", "dim8-even-deg", "--limit", "3", "--budget", "2"])
    cases.append(["verify", "dim8-even-deg", "--limit", "3", "--budget", "2",
                  "--format", "json"])
    cases.extend(list(argv) for argv in BAD_INPUTS)
    return cases


def replay(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_cli_output_matches_golden_bytes():
    golden = [json.loads(line)
              for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert [g["argv"] for g in golden] == golden_argv()
    mismatched = [
        g["argv"] for g in golden
        if replay(g["argv"]) != (g["exit"], g["stdout_sha256"])
    ]
    assert mismatched == []


if __name__ == "__main__":
    lines = []
    for argv in golden_argv():
        code, digest = replay(argv)
        lines.append(json.dumps(
            {"argv": argv, "exit": code, "stdout_sha256": digest}
        ))
    GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
