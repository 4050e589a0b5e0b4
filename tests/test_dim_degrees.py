"""Byte lock on the dimension classification of 3 <= d <= 120, the range
the paper settles.

`data/dim_degrees.jsonl` holds one line per dimension: its admissible
degrees and whether the classification is complete.  Each line is also
checked against the recurrence streams, independently of the scan: degree
4 exists exactly on the degree-4 stream, degree 5 on the degree-5 stream,
and no degree from 6 on exists anywhere in the range.  After a deliberate
change, rewrite the file with `PYTHONPATH=src python tests/test_dim_degrees.py`.
"""
import json
from pathlib import Path

from mstiff.diophantine import dims_for_degree4, dims_for_degree5
from mstiff.search import classify_dimension

GOLDEN = Path(__file__).with_name("data") / "dim_degrees.jsonl"
DIMS = range(3, 121)


def line(dim: int) -> str:
    c = classify_dimension(dim)
    return json.dumps(
        {"dim": dim, "degrees": list(c.degrees), "complete": c.complete}
    )


def test_dim_degrees_match_golden_and_streams():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [json.loads(g)["dim"] for g in golden] == list(DIMS)
    for g in golden:
        rec = json.loads(g)
        dim, degrees = rec["dim"], rec["degrees"]
        assert rec["complete"], dim
        assert degrees[:3] == [1, 2, 3], dim
        assert (4 in degrees) == (dim in dims_for_degree4(dim + 1)), dim
        assert (5 in degrees) == (dim in dims_for_degree5(dim + 1)), dim
        assert max(degrees) <= 5, dim
        assert line(dim) == g, dim


if __name__ == "__main__":
    GOLDEN.write_text("".join(line(d) + "\n" for d in DIMS), encoding="utf-8")
