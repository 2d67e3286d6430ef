"""Central numeric tolerance defaults.

Every module pulls its default tolerances from the single record below so
that precision policy lives in one place.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    unitarity: float = 1e-12
    hermiticity: float = 1e-12
    psd_floor: float = -1e-12
    norm: float = 1e-12
    input_norm: float = 1e-9
    rank_one: float = 1e-9
    completeness: float = 1e-10
    synthesis_roundtrip: float = 1e-9
    plate_product: float = 1e-10
    # tolerance for the SO(3) pattern tests inside decompose; final results
    # are always re-verified against the unitary at plate_product
    so3_pattern: float = 1e-8
    distribution: float = 1e-9


DEFAULT = Tolerances()
