"""Traced per-layer replay of benchmark ops.

Each op is replayed as calls into the public functions of the layer modules
on the same input.  Every call is a span (op id, span id, parent id, name,
start, end, counts) kept in memory; the caller writes them out at the end.
The verdict rebuilt from the replayed calls must equal the verb's output.

Two spans are probes that the verb does not make on its own: the lattice is
rebuilt from its covers (core.from_covers), and canonical_key is timed again
on every emitted lattice.  They are left out when the verb's own time is
split into layer time and cli.run self time.
"""

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PROBES = ("core.from_covers", "search.canonical_key")


class Tracer:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self.spans = []
        self._op = None
        self._parent = None

    def begin_op(self, op_id):
        self._op = op_id

    def _open(self, name):
        span = {"op": self._op, "id": len(self.spans), "parent": self._parent,
                "name": name, "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """Time the body as a span that is the parent of spans opened in it."""
        span = self._open(name)
        outer, self._parent = self._parent, span["id"]
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._parent = outer

    def call(self, name, fn, *args, **counts):
        """Run fn(*args) as a span; ``counts`` maps names to fn(result)."""
        span = self._open(name)
        result = fn(*args)
        span["end"] = perf_counter()
        span["counts"] = {k: f(result) for k, f in counts.items()}
        return result


def _family_text(lattice, fam):
    return "{" + ",".join(lattice.names[i] for i in sorted(fam)) + "}"


def _verdict_line(lv, lattice, verdict, tracer):
    ssp = lv.ssp
    if verdict.outcome == ssp.CERTIFIED:
        line = f"CertifiedSSP ({verdict.certificate_kind})"
        if verdict.certificate_kind == ssp.CERT_BRUTE:
            line += f", families={verdict.families_examined}"
        return 0, line
    if verdict.outcome == ssp.VIOLATED:
        return 1, _violated_line(lv, lattice, verdict.witness, tracer)
    return 1, f"Inconclusive (budget exhausted), families={verdict.families_examined}"


def _violated_line(lv, lattice, fam, tracer):
    sset = tracer.call("shattering.shattered_set", lv.shattering.shattered_set,
                       lattice, fam)
    return (f"Violated, witness {_family_text(lattice, fam)}, "
            f"|F|={len(fam)}, |Str|={len(sset)}")


def _rebuild(lv, lattice, tracer):
    tracer.call("core.from_covers", lv.core.from_covers,
                lattice.n, lattice.names, lattice.covers,
                entries=lambda lat: lat.n * lat.n)


def _family_search(lv, lattice, budget, tracer):
    return tracer.call("ssp.family_search", lv.ssp.is_ssp, lattice, "brute",
                       budget, families=lambda v: v.families_examined)


def _auto(lv, lattice, budget, tracer):
    """The `auto` route: certificates, the non-RC counterexample, search."""
    ssp = lv.ssp
    table = tracer.call("mobius.mobius_table", lv.mobius.mobius_table, lattice,
                        pairs=len)
    vanishing = tracer.call("mobius.vanishing_pairs", lv.mobius.vanishing_pairs,
                            lattice, table)
    if not vanishing:
        return ssp.SspVerdict(ssp.CERTIFIED, ssp.CERT_NONVANISHING, None, 0)
    if (lattice.top is not None
            and set(vanishing) <= {(lattice.bottom, lattice.top)}
            and tracer.call("ssp.is_rc", ssp.is_rc, lattice) is None):
        return ssp.SspVerdict(ssp.CERTIFIED, ssp.CERT_RC_ONCE, None, 0)
    witness = tracer.call("ssp.is_rc", ssp.is_rc, lattice)
    if witness is not None:
        return ssp.SspVerdict(ssp.VIOLATED, None,
                              ssp.non_rc_family(lattice, witness), 1)
    return _family_search(lv, lattice, budget, tracer)


def replay_ssp(lv, op, budget, tracer):
    """Replay `latticevc ssp`; returns (exit status, stdout)."""
    lattice = tracer.call("cli.load_source", lv.cli.load_source, op.source)
    _rebuild(lv, lattice, tracer)
    if op.pool == "auto":
        verdict = _auto(lv, lattice, budget, tracer)
    else:
        verdict = _family_search(lv, lattice, budget, tracer)
    code, line = _verdict_line(lv, lattice, verdict, tracer)
    return code, line + "\n"


def replay_scan(lv, max_n, budget, tracer):
    """Replay `latticevc scan --format tsv`; returns (exit status, stdout)."""
    ssp = lv.ssp
    search = lv.search
    rows = ["n\ttotal\trc\tssp\tinconclusive\tcounterexamples"]
    bad = 0
    for n in range(1, max_n + 1):
        lattices = tracer.call("search.enumerate_lattices",
                               lambda k: list(search.enumerate_lattices(k)), n,
                               lattices=len)
        rc = certified = inconclusive = counterexamples = 0
        for lattice in lattices:
            tracer.call("search.canonical_key", search.canonical_key, lattice)
            _rebuild(lv, lattice, tracer)
            witness = tracer.call("ssp.is_rc", ssp.is_rc, lattice)
            if witness is not None:
                fam = ssp.non_rc_family(lattice, witness)
                sset = tracer.call("shattering.shattered_set",
                                   lv.shattering.shattered_set, lattice, fam)
                counterexamples += len(sset) >= len(fam)
                continue
            rc += 1
            verdict = _auto(lv, lattice, budget, tracer)
            if verdict.outcome == ssp.CERTIFIED:
                certified += 1
            elif verdict.outcome == ssp.VIOLATED:
                counterexamples += 1
            else:
                inconclusive += 1
        bad += counterexamples
        rows.append(f"{n}\t{len(lattices)}\t{rc}\t{certified}\t{inconclusive}"
                    f"\t{counterexamples}")
    return (1 if bad else 0), "\n".join(rows) + "\n"


# Per-layer metric -> (span name, what): "s" for seconds, "calls", or the
# name of a count recorded on the span.
LAYER_METRICS = {
    "cli.load_source.s": ("cli.load_source", "s"),
    "cli.load_source.calls": ("cli.load_source", "calls"),
    "core.from_covers.s": ("core.from_covers", "s"),
    "core.from_covers.calls": ("core.from_covers", "calls"),
    "core.from_covers.entries": ("core.from_covers", "entries"),
    "mobius.mobius_table.s": ("mobius.mobius_table", "s"),
    "mobius.mobius_table.pairs": ("mobius.mobius_table", "pairs"),
    "mobius.vanishing_pairs.s": ("mobius.vanishing_pairs", "s"),
    "ssp.is_rc.s": ("ssp.is_rc", "s"),
    "ssp.is_rc.calls": ("ssp.is_rc", "calls"),
    "ssp.family_search.s": ("ssp.family_search", "s"),
    "ssp.families_examined": ("ssp.family_search", "families"),
    "shattering.shattered_set.s": ("shattering.shattered_set", "s"),
    "shattering.shattered_set.calls": ("shattering.shattered_set", "calls"),
    "search.enumerate_lattices.s": ("search.enumerate_lattices", "s"),
    "search.enumerate_lattices.lattices": ("search.enumerate_lattices", "lattices"),
    "search.canonical_key.s": ("search.canonical_key", "s"),
    "search.canonical_key.calls": ("search.canonical_key", "calls"),
}


def layer_metrics(spans, passes):
    """Per-layer metrics per pass: run totals divided by ``passes``.

    cli.run.self_s is the median over ops of the verb's time minus the
    op's replayed (non-probe) spans, times the ops in a pass: a difference
    of two timings of the same search is too noisy to total.
    """
    totals = defaultdict(float)
    verb = defaultdict(float)
    replayed = defaultdict(float)
    replay = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        if name == "cli.run":
            verb[s["op"]] += dur
        elif name == "replay":
            replay += dur
        else:
            totals[name, "s"] += dur
            totals[name, "calls"] += 1
            for k, v in s["counts"].items():
                totals[name, k] += v
            if name not in PROBES:
                replayed[s["op"]] += dur
    self_s = statistics.median(verb[op] - replayed[op] for op in verb)
    values = {"cli.run.self_s": (self_s * len(verb) / passes, "s")}
    for metric, (name, what) in LAYER_METRICS.items():
        values[metric] = (totals[name, what] / passes,
                          "s" if what == "s" else "count")
    search_s = totals["ssp.family_search", "s"]
    families = totals["ssp.family_search", "families"]
    values["ssp.families_per_s"] = (families / search_s if search_s else 0.0,
                                    "1/s")
    values["trace.overhead_ratio"] = (replay / sum(verb.values()), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
