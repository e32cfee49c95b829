"""Workload inputs and output checks for the latticevc benchmark.

An op is one `latticevc` command line.  A workload is a fixed multiset of
ops (a "pass"); the seed draws the pool-(a) lattices and shuffles the order
of every pass, so two seeds always run the same number of ops per pool.

Every op has a pinned exit status and stdout, taken from the seed commit and
cross-checked from the definitions (see make_pool.py).  Every Violated
witness is re-counted here with the benchmark's own meet computation,
without latticevc.shattering.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool_n8.tsv"

BRUTE_BUDGET = 262144
POOL_A_SIZE = 40

# OEIS A006966: lattices on n = 1..8 elements up to isomorphism, and how
# many of them are relatively complemented (all of those are SSP).
A006966 = (1, 1, 1, 2, 5, 15, 53, 222)
RC_COUNTS = (1, 1, 0, 1, 1, 1, 1, 2)
SCAN_MAX_N = 8
INVARIANCE_SCAN_MAX_N = 7
# A scan to n=6 takes about 10 ms and runs every function a scan to n=8 does.
WARMUP_SCAN_MAX_N = 6

# Pool (b): brute force decides these within the budget (0.1-0.45 s).
POOL_B = {
    "boolean:4": "CertifiedSSP (BruteForce), families=65536",
    "subspace:2:3": "CertifiedSSP (BruteForce), families=65536",
    "product(chain:1,boolean:3)": "CertifiedSSP (BruteForce), families=65536",
    "product(chain:1,fig1)": "CertifiedSSP (BruteForce), families=262144",
    "product(fig1,chain:1)": "CertifiedSSP (BruteForce), families=262144",
}

# Pool (c): SSP lattices on which the budget runs out (about 1 s each).  A
# decider that settles them may print CertifiedSSP instead; never Violated.
POOL_C = {
    "fig2": "Inconclusive (budget exhausted), families=363139",
    "boolean:5": "Inconclusive (budget exhausted), families=558469",
    "subspace:3:3": "Inconclusive (budget exhausted), families=405249",
}

# ssp-auto: decided by a Mobius certificate or by the non-RC counterexample.
AUTO = {
    "boolean:7": "CertifiedSSP (NonvanishingMu)",
    "boolean:8": "CertifiedSSP (NonvanishingMu)",
    "boolean:9": "CertifiedSSP (NonvanishingMu)",
    "subspace:2:5": "CertifiedSSP (NonvanishingMu)",
    "subspace:3:4": "CertifiedSSP (NonvanishingMu)",
    "subspace:7:3": "CertifiedSSP (NonvanishingMu)",
    "product(boolean:3,subspace:2:3)": "CertifiedSSP (NonvanishingMu)",
    "product(subspace:2:3,subspace:3:2)": "CertifiedSSP (NonvanishingMu)",
    "fig1": "CertifiedSSP (RcMuVanishingOnce)",
    "fig2": "CertifiedSSP (RcMuVanishingOnce)",
    "fig3b": "Violated, witness {0,1,2,3,5,12,13,23,45,[5]}, |F|=10, |Str|=9",
    "chain:60": "Violated, witness {1,2}, |F|=2, |Str|=1",
    "product(fig3b,fig3b)":
        "Violated, witness {(0|0),(0|1),(0|2),(0|3),(0|5),(0|12),(0|13),"
        "(0|23),(0|45),(0|[5])}, |F|=10, |Str|=9",
    "product(chain:2,boolean:4)": "Violated, witness {(1|0),(2|0)}, |F|=2, |Str|=1",
}

WORKLOADS = ("scan", "ssp-brute", "ssp-auto")

_VIOLATED = re.compile(r"Violated, witness \{(.*)\}, \|F\|=(\d+), \|Str\|=(\d+)")
_INCONCLUSIVE = re.compile(r"Inconclusive \(budget exhausted\), families=\d+")
_CERTIFIED = re.compile(r"CertifiedSSP \([A-Za-z]+\)(, families=\d+)?")


@dataclass(frozen=True)
class Op:
    """One command line with its pinned result.

    ``lattices`` is the number of lattices the op decides; ``undecided_ok``
    marks pool-(c) ops, which may also print a CertifiedSSP line.
    """
    pool: str
    argv: tuple
    source: str | None
    exit: int
    stdout: str
    lattices: int = 1
    undecided_ok: bool = False


def scan_tsv(max_n):
    """The scan report pinned to A006966, with no counterexample."""
    rows = ["n\ttotal\trc\tssp\tinconclusive\tcounterexamples"]
    for n in range(1, max_n + 1):
        total, rc = A006966[n - 1], RC_COUNTS[n - 1]
        rows.append(f"{n}\t{total}\t{rc}\t{rc}\t0\t0")
    return "\n".join(rows) + "\n"


def scan_op(max_n=SCAN_MAX_N, jobs=1):
    argv = ("scan", "--max-n", str(max_n), "--format", "tsv", "--jobs", str(jobs))
    return Op("scan", argv, None, 0, scan_tsv(max_n),
              lattices=sum(A006966[:max_n]))


def ssp_op(pool, source, line, jobs=1):
    """`ssp` with the default strategy for pool "auto", else brute force."""
    argv = ["ssp", source, "--jobs", str(jobs)]
    if pool != "auto":
        argv += ["--strategy", "brute", "--budget", str(BRUTE_BUDGET)]
    code = 0 if line.startswith("CertifiedSSP") else 1
    return Op(pool, tuple(argv), source, code, line + "\n",
              undecided_ok=pool == "c")


def load_pool_a():
    """The 222 lattices on 8 elements as (covers, pinned stdout line)."""
    entries = []
    for raw in POOL_FILE.read_text(encoding="utf-8").splitlines():
        covers, line = raw.split("\t")
        pairs = tuple(tuple(int(v) for v in c.split("<"))
                      for c in covers.split(","))
        entries.append((pairs, line))
    return entries


def lattice_text(n, covers):
    """The program's lattice file format, written by the benchmark."""
    lines = [f"elem {i}" for i in range(n)]
    lines += [f"cover {c} {p}" for c, p in covers]
    return "\n".join(lines) + "\n"


def write_pool_a(indices, entries, inputs):
    """Write the drawn pool-(a) lattices as .lat files; return their ops."""
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in indices:
        covers, line = entries[i]
        path = inputs / f"n8_{i:03d}.lat"
        path.write_text(lattice_text(8, covers), encoding="utf-8")
        rel = path.relative_to(HERE.parent).as_posix()
        ops.append(ssp_op("a", rel, line))
    return ops


def workload_ops(workload, seed, inputs):
    """The ops of one pass, unshuffled, plus the fixed warm-up op."""
    if workload == "scan":
        return [scan_op()], scan_op(WARMUP_SCAN_MAX_N)
    if workload == "ssp-auto":
        ops = [ssp_op("auto", s, line) for s, line in AUTO.items()]
        return ops, ops[0]
    if workload != "ssp-brute":
        raise ValueError(f"unknown workload {workload!r}")
    entries = load_pool_a()
    drawn = sorted(random.Random(seed).sample(range(len(entries)), POOL_A_SIZE))
    ops = write_pool_a(drawn, entries, inputs)
    ops += [ssp_op("b", s, line) for s, line in POOL_B.items()]
    ops += [ssp_op("c", s, line) for s, line in POOL_C.items()]
    warm = write_pool_a([0], entries, inputs / "warmup")[0]
    return ops, warm


def passes(ops, seed):
    """Endless stream of shuffled passes over the same op multiset."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class OwnOrder:
    """Order closure and meets recomputed from a lattice's covers."""

    def __init__(self, names, covers):
        self.names = list(names)
        down = [1 << x for x in range(len(names))]
        changed = True
        while changed:
            changed = False
            for c, p in covers:
                grown = down[p] | down[c]
                if grown != down[p]:
                    down[p] = grown
                    changed = True
        self.down = down

    def meet(self, a, b):
        common = self.down[a] & self.down[b]
        rest = common
        while rest:
            m = rest.bit_length() - 1
            if self.down[m] == common:
                return m
            rest &= ~(1 << m)
        raise ValueError(f"{self.names[a]!r} and {self.names[b]!r} have no meet")

    def shattered_count(self, family):
        """|Str(F)|: y counts when every x <= y is z ^ y for some z in F."""
        count = 0
        for y in range(len(self.names)):
            realized = 0
            for z in family:
                realized |= 1 << self.meet(z, y)
            if self.down[y] & ~realized == 0:
                count += 1
        return count


def check_witness(line, order):
    """Error text for a Violated line whose witness does not hold, else None."""
    m = _VIOLATED.fullmatch(line)
    if m is None:
        return None
    labels = m.group(1).split(",") if m.group(1) else []
    index = {nm: i for i, nm in enumerate(order.names)}
    try:
        family = {index[nm] for nm in labels}
    except KeyError as exc:
        return f"witness names unknown element {exc.args[0]!r}"
    size = order.shattered_count(family)
    if len(family) != int(m.group(2)) or size != int(m.group(3)):
        return f"witness counts differ: |F|={len(family)}, |Str|={size}"
    if size >= len(family):
        return f"witness shatters {size} >= |F|={len(family)} elements"
    return None


def check_output(op, code, out, order_of):
    """Error text when an op's result is wrong, else None.

    ``order_of(source)`` returns the OwnOrder of the op's lattice.
    """
    line = out[:-1] if out.endswith("\n") else out
    pinned = (code, out) == (op.exit, op.stdout)
    settled = (op.undecided_ok and code == 0 and out.endswith("\n")
               and _CERTIFIED.fullmatch(line) is not None)
    if not (pinned or settled):
        return f"{' '.join(op.argv)}: exit {code}, stdout {out!r}"
    if op.source is not None and line.startswith("Violated"):
        err = check_witness(line, order_of(op.source))
        if err:
            return f"{' '.join(op.argv)}: {err}"
    return None


def outcome(op, out):
    """Lattices the op decided, read from its output."""
    if op.pool == "scan":
        decided = 0
        for row in out.splitlines()[1:]:
            _, total, _, _, inconclusive, _ = row.split("\t")
            decided += int(total) - int(inconclusive)
        return decided
    return 0 if _INCONCLUSIVE.fullmatch(out.rstrip("\n")) else 1
