"""Byte lock on the verdicts that reach exact root certification.

`data/root_witnesses.jsonl` holds one line per cell with m = 2..20 and
d = 3..300 whose verdict was settled by `rational_roots` (a root witness)
or by a certificate: the object `mstiff exists --format json` prints for
it, as compact JSON.  After a deliberate change, rewrite the file with
`PYTHONPATH=src python tests/test_root_witnesses.py`.
"""
import json
from pathlib import Path

from mstiff.stiffness import IrrationalRoot, stiff_exists

GOLDEN = Path(__file__).with_name("data") / "root_witnesses.jsonl"


def root_stage_lines() -> dict[tuple[int, int], str]:
    out = {}
    for m in range(2, 21):
        for d in range(3, 301):
            v = stiff_exists(m, d)
            w = v.witness
            if v.exists or (
                isinstance(w, IrrationalRoot) and w.root_witness is not None
            ):
                out[m, d] = json.dumps(v.to_json())
    return out


def test_root_stage_verdicts_match_golden_bytes():
    golden = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        golden[obj["m"], obj["d"]] = line
    assert len(golden) == 991
    got = root_stage_lines()
    assert sorted(got) == sorted(golden)
    for cell, line in golden.items():
        assert got[cell] == line, cell


if __name__ == "__main__":
    lines = root_stage_lines().values()
    GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
