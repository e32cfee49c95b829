"""Regenerate pool_n8.tsv, the pool-(a) lattices of the ssp-brute workload.

    python3 perfbench/make_pool.py

Writes one line per lattice on 8 elements: its covers ("child<parent",
comma-separated, labels 0..7), a tab, and the stdout line of
`latticevc ssp --strategy brute --budget 262144` on it (exit status 0 for
CertifiedSSP, 1 for Violated).  Each pinned verdict is cross-checked
against the benchmark's own exhaustive count over all 256 families, so the
file holds the truth, not just what the program printed.  The file is
committed so that every commit under test receives the same inputs.
"""

import io
import sys
import tempfile
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
from latticevc import cli, search  # noqa: E402


def violating_exists(order, n):
    for size in range(1, n + 1):
        for fam in combinations(range(n), size):
            if order.shattered_count(fam) < size:
                return True
    return False


def main():
    rows = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for i, lattice in enumerate(search.enumerate_lattices(8)):
            covers = lattice.covers
            path = Path(tmp) / f"{i}.lat"
            path.write_text(ops.lattice_text(8, covers), encoding="utf-8")
            out = io.StringIO()
            code = cli.run(["ssp", "--strategy", "brute", "--budget",
                            str(ops.BRUTE_BUDGET), str(path)], out=out)
            line = out.getvalue().rstrip("\n")
            order = ops.OwnOrder([str(v) for v in range(8)], covers)
            if line.startswith("Violated"):
                err = ops.check_witness(line, order)
                if err or code != 1:
                    raise SystemExit(f"lattice {i}: {line}: {err}")
            elif line.startswith("CertifiedSSP"):
                if violating_exists(order, 8) or code != 0:
                    raise SystemExit(f"lattice {i}: certified but violated")
            else:
                raise SystemExit(f"lattice {i}: undecided: {line}")
            pairs = ",".join(f"{c}<{p}" for c, p in covers)
            rows.append(f"{pairs}\t{line}\n")
    (HERE / "pool_n8.tsv").write_text("".join(rows), encoding="utf-8")
    print(f"wrote {len(rows)} lattices")


if __name__ == "__main__":
    main()
