"""1-D quantum wavepacket simulator with information-entropy balance diagnostics."""

from .config import (
    BinningConfig,
    ConfigError,
    RunConfig,
    SweepSpec,
    parse_binning_config,
    parse_config,
    parse_oracle_config,
    parse_sweep_config,
)
from .entropy import (
    BalanceReport,
    BinRow,
    DensityFields,
    SignWitness,
    Snapshot,
    balance_residual,
    binned_entropy,
    binning_limit_study,
    density,
    entropy_rate_check,
    info_density,
    info_entropy,
    rate_identity_residual,
    sign_witness,
    take_snapshot,
)
from .grid import (
    Grid1D,
    PhysicalParams,
    RealField,
    derivative,
    integrate,
)
from .oracle import CoherentOracle, GaussianOracle
from .propagate import (
    Potential,
    WaveFunction,
    evolve,
    init_gaussian,
    kinetic_phase,
    step,
)
from .report import SweepReport, SweepRow, run_oracle, run_simulation, run_sweep

__version__ = "0.1.0"
