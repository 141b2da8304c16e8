"""Non-crossing words, their cooperadic decomposition, and cumulants.

The package models words over finite alphabets with a two-rule reduction
to normal form, decomposes reduced pangrammatic words along canonical
surjections of their alphabet, restricts the decomposition to the
non-crossing quotient, and solves the resulting triangular systems to
compute word cumulants.  Specializing the word recovers free cumulants
(ascending word) and Boolean cumulants (peak word).  A non-crossing
partition sum for free cumulants, closed recursions for Boolean and
classical cumulants, and the forward free moment map are included for
comparison and cross-checking.  All arithmetic is exact rational.
"""

from .words import (
    Alphabet,
    CrossingWordError,
    EmptyRestrictionError,
    Word,
    apply_map,
    enumerate_nc_basis,
    enumerate_word_basis,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    is_reduced,
    parse_word,
    peak_word,
    random_basis_word,
    reduce_word,
    render_word,
    restrict,
)
from .surjections import (
    CanonicalSurjection,
    enumerate_canonical_surjections,
    enumerate_nc_partitions,
)
from .probability import (
    MissingMomentError,
    MomentFunctional,
    MomentTableError,
    format_rational,
    load_moments,
    parse_rational,
    semicircular_family,
)
from .cumulants import (
    CumulantTable,
    boolean_cumulant,
    classical_cumulant,
    free_cumulant,
    free_cumulant_direct,
    moments_from_free_cumulants,
    word_cumulant,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    # PEP 562: the cooperad, and its names here, load on first use, since
    # no cumulant or word command runs it.  Every public name that is not
    # bound yet is one of the cooperad's.
    if name != "cooperad" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cooperad import __dict__ as namespace

    bound = globals()
    bound.update({n: namespace[n] for n in __all__ if n not in bound})
    return bound[name]


__all__ = [
    "Alphabet",
    "CanonicalSurjection",
    "CrossingWordError",
    "CumulantTable",
    "DecompositionTerm",
    "EmptyRestrictionError",
    "MissingMomentError",
    "MomentFunctional",
    "MomentTableError",
    "Word",
    "apply_map",
    "boolean_cumulant",
    "check_coassociativity",
    "classical_cumulant",
    "crossing_ideal_witness",
    "decompose",
    "decompose_along",
    "decompose_noncrossing",
    "enumerate_canonical_surjections",
    "enumerate_nc_basis",
    "enumerate_nc_partitions",
    "enumerate_word_basis",
    "format_rational",
    "format_term",
    "free_cumulant",
    "free_cumulant_direct",
    "is_noncrossing",
    "is_noncrossing_seq",
    "is_pangrammatic",
    "is_reduced",
    "load_moments",
    "moments_from_free_cumulants",
    "parse_rational",
    "parse_word",
    "peak_word",
    "random_basis_word",
    "reduce_word",
    "render_word",
    "restrict",
    "semicircular_family",
    "word_cumulant",
]
