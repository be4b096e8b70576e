"""Matter-wave double-slit interference by three methods.

A small numpy library that computes electron double-slit patterns by
intuitive wavefront counting, by stationary-phase path weights, and by
direct time-summed slit propagators, together with the kinematic identities
(single-path phase pi L/lambda, group vs phase velocity, equal-duration
phase differences) that explain when and why the methods agree -- and the
near-field regime where they differ by pi.

Modules:
    kinematics   constants, wavelengths, closed-form phases
    propagator   free and two-step propagators, stationary crossing time
    faddeeva     w(z) = exp(-z^2) erfc(-iz), closed-form and asymptotic time sums
    timesum      the slit-time integral over a window of crossing times
    wavepacket   Gaussian packet snapshots, group/phase velocity
    doubleslit   screen patterns and near-field phase records
    cli          presets, JSON configs, CSV/JSON result envelopes
"""

__version__ = "0.1.0"

from .kinematics import (
    ELECTRON,
    ELECTRON_MASS,
    HBAR,
    PLANCK_H,
    ParticleSpecies,
    PhaseValue,
    TwoPathPhaseDifference,
    de_broglie_wavelength,
    expanded_wavelength,
    far_field_maxima,
    matter_phase,
    naive_equal_velocity_phase_diff,
    optical_phase,
    two_path_phase_difference,
)
from .propagator import (
    ComplexAmplitude,
    SpaceTimeEvent,
    TwoLegPath,
    free_propagator,
    path_phase,
    slit_phase,
    stationary_phase,
    stationary_slit_time,
    time_sum_prefactor,
    two_step_amplitude,
)
from .faddeeva import (
    AsymptoticAmplitude,
    faddeeva_w,
    normalized_argument,
    timesum_asymptotic,
    timesum_closed_form,
)
from .timesum import QuadratureInfo, TimeSumConfig, evaluate_window
from .wavepacket import (
    WavePacketParams,
    group_velocity,
    packet_amplitude,
    packet_carrier_phase,
    phase_velocity,
)
from .doubleslit import (
    DiscrepancyReport,
    IntuitivePhaseDiff,
    Method,
    ScreenPattern,
    SlitGeometry,
    Timing,
    TimingConvention,
    discrepancy_report,
    leg_lengths,
    near_field_phase_diff_intuitive,
    near_field_phase_diff_path_integral,
    pattern,
    pattern_from_amplitudes,
    transit_points,
)
from .errors import NodeBudgetError, NonFiniteResultError
