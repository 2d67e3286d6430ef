"""Quantum-walk realisation of single-qubit generalized measurements.

Subpackages cover exact walk simulation (:mod:`walkpovm.walk`), POVM
circuit construction/synthesis/extraction (:mod:`walkpovm.povm`),
lowering to wave-plate and beam-displacer hardware
(:mod:`walkpovm.optics`) and counting-statistics reproduction with
optical imperfections (:mod:`walkpovm.experiment`).
"""

from .walk import (
    CoinSchedule,
    ValidationError,
    WalkState,
    position_distribution,
    run,
)
from .povm import (
    IterationPair,
    PovmElement,
    PovmSet,
    SynthesisInfeasibleError,
    build_circuit,
    extract_povm,
    scenario_port_map,
    scenario_schedule,
    sic_scenario,
    synthesize,
    trine_scenario,
    usd_scenario,
    usd_success_probability,
)
from .optics import (
    OpticalNetlist,
    WavePlate,
    compile_netlist,
    decompose,
    hwp,
    qwp,
    state_prep_angles,
    usd_plate_angle,
)
from .experiment import (
    CountTable,
    ImperfectionConfig,
    apply_efficiencies,
    run_density,
    sample_counts,
    usd_sweep,
)

__all__ = [
    "CoinSchedule",
    "CountTable",
    "ImperfectionConfig",
    "IterationPair",
    "OpticalNetlist",
    "PovmElement",
    "PovmSet",
    "SynthesisInfeasibleError",
    "ValidationError",
    "WalkState",
    "WavePlate",
    "apply_efficiencies",
    "build_circuit",
    "compile_netlist",
    "decompose",
    "extract_povm",
    "hwp",
    "position_distribution",
    "qwp",
    "run",
    "run_density",
    "sample_counts",
    "scenario_port_map",
    "scenario_schedule",
    "sic_scenario",
    "state_prep_angles",
    "synthesize",
    "trine_scenario",
    "usd_plate_angle",
    "usd_scenario",
    "usd_success_probability",
    "usd_sweep",
]

__version__ = "0.1.0"
