"""Exact Frobenius computations over F_p[x_1..x_n].

The package provides sparse exact polynomial arithmetic over prime fields,
reduced Groebner bases, Frobenius bracket powers and their left adjoints
(Frobenius roots), cyclic modules with a Frobenius-semilinear structural
map together with their certified minimal models, generalized test ideals
of principal ideals, and F-pure threshold brackets.  A command line front
end (``fsing``) exposes the same operations; brute-force oracles for
cross-checking the fast paths ship in :mod:`fsing.oracle`.
"""

from .errors import (
    DomainError,
    FSingError,
    InvariantError,
    ParseError,
    ResourceError,
    RingMismatchError,
    ValidationError,
)
from .frobmod import Certificate, FrobModule, MinimalizeReport, iterate_exponent
from .frobroot import ideal_root, poly_root
from .groebner import Ideal, buchberger, normal_form, poly_division
from .polyring import Poly, Ring, parse_poly
from .testideals import (
    ChainLevel,
    FptBracket,
    MinimalityFptReport,
    fpt_bracket,
    je_chain,
    minimality_vs_fpt,
    nu,
    test_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChainLevel",
    "DomainError",
    "FSingError",
    "FptBracket",
    "FrobModule",
    "Ideal",
    "InvariantError",
    "MinimalityFptReport",
    "MinimalizeReport",
    "ParseError",
    "Poly",
    "ResourceError",
    "Ring",
    "RingMismatchError",
    "ValidationError",
    "buchberger",
    "fpt_bracket",
    "ideal_root",
    "iterate_exponent",
    "je_chain",
    "minimality_vs_fpt",
    "normal_form",
    "nu",
    "parse_poly",
    "poly_division",
    "poly_root",
    "test_ideal",
    "__version__",
]
