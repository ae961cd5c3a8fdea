"""Simulation and parameter estimation for a single-atom fiber-cavity QED system.

Forward-models transmission spectra (vacuum Rabi splitting), reflection
ring-down, and the guided-mode coupling rate of a fiber Fabry-Perot cavity;
fits synthetic or measured data to recover coupling and decay rates; and
Monte Carlo-simulates the full detection/classification/lifetime measurement
pipeline.
"""

__version__ = "0.1.0"

from .units import (
    AngularRate,
    CavityGeometry,
    ParameterError,
    SystemParams,
    from_two_pi_mhz,
    two_pi_mhz,
    validate,
)
from .steady import (
    NormalModes,
    cooperativity,
    empty_cavity_peak_transmission,
    mirror_to_rate,
    normal_modes,
    normalized_transmission,
    rate_to_mirror,
    transmission,
    transmission_peak_detunings,
)
from .ringdown import (
    IntegrationError,
    RingdownParams,
    RingdownTrace,
    analytic_trace,
    integrate_ringdown,
    kappa_from_lifetime,
    lifetime_from_kappa,
    reflected_intensity_analytic,
)
from .fibermode import (
    AtomSpec,
    FiberSpec,
    ModeSolution,
    NoGuidedModeError,
    coupling_rate,
    cs_d2_atom,
    mode_volume,
    sellmeier_fused_silica,
    solve_fundamental_mode,
    solve_lp01,
)
from .estimation import (
    FitError,
    FitResult,
    Spectrum,
    fit_empty_cavity,
    fit_exponential_recovery,
    fit_least_squares,
    fit_rabi_g,
    fit_ringdown_tail,
)
from .experiment import (
    Ensemble,
    ProbeConfig,
    SequenceConfig,
    accumulate_spectra,
    classify_level,
    expected_count_rate,
    level_occupancy,
    local_g_cdf,
    run_ensemble,
    sample_local_g,
)

__all__ = [name for name in dir() if not name.startswith("_")]
