"""Exact arithmetic in subrings of Q[x] cut out by p-adic residue conditions.

A choice of one p-adic integer per prime determines which denominators an
integer polynomial may carry; the resulting subring of Q[x] supports a
division with remainder, terminating division chains, Bezout GCDs, and the
chain rewriting and degree-retention constructions exposed here.
"""

from .adversary import (
    AdversaryReport,
    adversarial_pair,
    degree_retention_check,
    hat,
    integer_mod,
)
from .chains import (
    ChainComparison,
    ComparisonRow,
    DivisionChain,
    build_chain,
    compare_to_qe,
    fib_pair_for,
    fibonacci,
    fibonacci_witness,
    normalize_positive,
    normalize_steps,
    rewrite_measure,
    t1,
    t2,
)
from .classify import (
    NonUfdWitness,
    PrimeHit,
    ShScan,
    make_zero_on,
    non_ufd_witness,
    scan_sh,
)
from .padic import (
    FactorBudgetExceeded,
    HenselLiftError,
    PredicateTau,
    ResidueClass,
    TauSpec,
    constant,
    crt_combine,
    factorize,
    hensel,
    hensel_lift,
    is_prime,
    log_generic,
    piecewise,
    poly_eval_mod,
    primes_upto,
    stream,
    tau_from_json,
    zero,
)
from .poly import ONE, X, ZERO, RingElement, as_element, compare, format_element, qdiv
from .ring import NormTuple, NotMemberError, RingContext, StepBudgetExceeded, phi
from .syntax import ParseError, parse_element

__version__ = "0.1.0"

__all__ = [
    "AdversaryReport",
    "ChainComparison",
    "ComparisonRow",
    "DivisionChain",
    "FactorBudgetExceeded",
    "HenselLiftError",
    "NonUfdWitness",
    "NormTuple",
    "NotMemberError",
    "ONE",
    "ParseError",
    "PredicateTau",
    "PrimeHit",
    "ResidueClass",
    "RingContext",
    "RingElement",
    "ShScan",
    "StepBudgetExceeded",
    "TauSpec",
    "X",
    "ZERO",
    "adversarial_pair",
    "as_element",
    "build_chain",
    "compare",
    "compare_to_qe",
    "constant",
    "crt_combine",
    "degree_retention_check",
    "factorize",
    "fib_pair_for",
    "fibonacci",
    "fibonacci_witness",
    "format_element",
    "hat",
    "hensel",
    "hensel_lift",
    "integer_mod",
    "is_prime",
    "log_generic",
    "make_zero_on",
    "non_ufd_witness",
    "normalize_positive",
    "normalize_steps",
    "parse_element",
    "phi",
    "piecewise",
    "poly_eval_mod",
    "primes_upto",
    "qdiv",
    "rewrite_measure",
    "scan_sh",
    "stream",
    "t1",
    "t2",
    "tau_from_json",
    "zero",
]
