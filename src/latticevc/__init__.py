"""Finite-lattice combinatorics: Mobius functions, shattering, SSP checks.

The building blocks are immutable :class:`~latticevc.core.Lattice` objects
over dense integer indices; families of elements are plain frozensets of
indices.  See the module docstrings for the individual areas:

- :mod:`latticevc.core`       lattices, intervals, products, text format
- :mod:`latticevc.mobius`     exact Mobius tables, inversion, sign checks
- :mod:`latticevc.shattering` Str(F), VC dimension, characteristic rows,
                              spanning certificates
- :mod:`latticevc.linalg`     exact rational rank / solve
- :mod:`latticevc.ssp`        RC decision and SSP verification
- :mod:`latticevc.builders`   Boolean/chain/subspace/matroid lattices
- :mod:`latticevc.search`     isomorph-free enumeration and the RC scan
- :mod:`latticevc.cli`        command-line front end
"""

from .builders import (
    MatroidSpec,
    boolean,
    chain,
    critical_family,
    fig1,
    fig2,
    fig3b,
    from_matroid,
    qbinom,
    qbinom_bounds_check,
    subspace_lattice,
)
from .core import (
    Lattice,
    atoms,
    count_by_rank,
    count_up_to,
    emit_lattice_text,
    from_covers,
    interval,
    is_atomic,
    parse_lattice_text,
    product,
)
from .mobius import MobiusTable, check_inversion, mobius_table, vanishing_pairs, weisner_check
from .search import (
    ScanReport,
    canonical_key,
    conjecture_scan,
    enumerate_lattices,
    is_isomorphic,
)
from .shattering import (
    EliminationCert,
    basis_check,
    char_rows,
    elimination,
    elimination_rc,
    shattered_set,
    shatters,
    spanning_certificate,
    vc_dim,
)
from .ssp import (
    RcWitness,
    SspVerdict,
    antichain_check,
    is_rc,
    is_ssp,
    non_rc_family,
    one_minimal_check,
    product_ssp_witness,
)

__version__ = "0.1.0"
