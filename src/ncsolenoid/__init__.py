"""Exact invariants of twisted algebras over the 2-fold N-adic solenoid.

The carrier of a choice sequence lives in nadic, the sequences
themselves in sequences, multipliers and symmetrizers in multiplier,
the ordered K0 picture in ktheory, classification in classify, and the
brute-force cross checks in oracle.
"""

from .nadic import NadicInteger, QnRational, multiplicative_order, prime_factors
from .sequences import Angle, AngleSequence
from .multiplier import (
    SequenceKind,
    Symmetrizer,
    bicharacter,
    classify_type,
    is_simple,
    psi_phase,
    symmetrizer,
    theta_phase,
)
from .ktheory import (
    ExtensionElement,
    GeneratorCochain,
    KPairElement,
    cohomologous,
    coboundary,
    k_member,
    mu_cochain,
    trace,
    xi_cocycle,
    zeta_cocycle,
)
from .classify import (
    AngleMatrix,
    BundleData,
    IsoVerdict,
    bundle_data,
    isomorphic,
    prime_case_isomorphic,
    replay_witness,
)
from .oracle import (
    DEFAULT_SEED,
    FuzzReport,
    brute_symmetrizer,
    coboundary_solve,
    cocycle_fuzz,
    colimit_report,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AngleMatrix",
    "AngleSequence",
    "BundleData",
    "DEFAULT_SEED",
    "ExtensionElement",
    "FuzzReport",
    "GeneratorCochain",
    "IsoVerdict",
    "KPairElement",
    "NadicInteger",
    "QnRational",
    "SequenceKind",
    "Symmetrizer",
    "bicharacter",
    "brute_symmetrizer",
    "bundle_data",
    "classify_type",
    "coboundary",
    "coboundary_solve",
    "cocycle_fuzz",
    "cohomologous",
    "colimit_report",
    "isomorphic",
    "is_simple",
    "k_member",
    "mu_cochain",
    "multiplicative_order",
    "prime_case_isomorphic",
    "prime_factors",
    "psi_phase",
    "replay_witness",
    "symmetrizer",
    "theta_phase",
    "trace",
    "xi_cocycle",
    "zeta_cocycle",
]
