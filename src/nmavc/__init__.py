"""Exact verification lab for non-malleable coding over binary
arbitrarily varying channels.

Everything on a verification path runs in exact rational arithmetic;
floating point appears only inside Monte-Carlo estimators.
"""

__version__ = "0.1.0"

from .channels import (
    Channel,
    ElementaryDecomposition,
    StateSequence,
    channel_from_json,
    decompose,
    elementary_channel,
    feasible_interval,
)
from .composed import (
    ComposedScheme,
    certify_induced_family,
    induced_family,
    recovery_probability,
    special_channel,
    verify_composed,
)
from .distributions import all_bitstrings, format_rational, parse_rational
from .gf2 import (
    GF2Matrix,
    ReconstructionSet,
    delta_exact,
    delta_monte_carlo,
    ecc_decode,
)
from .tampering import (
    AffineFunction,
    BITFunction,
    enumerate_bit_functions,
)
from .verifier import (
    BOT_MAP,
    FamilyCertificate,
    NMReport,
    SearchResult,
    StochasticCode,
    TransferReport,
    certify_bit_family,
    certify_family,
    channel_map,
    optimal_simulator,
    search_nm_code,
    tamper_map,
    verify_transfer,
)
