"""Joint azimuth/delay estimation for ultra-wideband ring arrays.

Sensor rings (elliptical, circular, concentric, pseudorandomly perturbed)
feed a phase-mode expansion with Bessel-based frequency-invariant filters;
a 2-D transform of the mode-frequency matrix then maps incident paths to
peaks in an azimuth-delay spectrum.
"""

__version__ = "0.1.0"

from .beamform import (
    FilterBank,
    ModeMatrix,
    build_bank,
    concentric_expand,
    expand_array,
    mode_limit,
    phase_mode_expand,
)
from .channel import (
    ChannelMatrix,
    FrequencyGrid,
    IncidentWave,
    add_awgn,
    export_channel,
    ingest_channel,
    superpose,
    wave_response_center,
)
from .constants import SPEED_OF_LIGHT
from .geometry import (
    EllipseSpec,
    SensorArray,
    build_concentric,
    build_ellipse,
    nyquist_audit,
    rotate_sensors,
)
from .specfun import bessel_j, bessel_j_prime, bessel_j_table
from .spectrum import JointSpectrum, PeakReport, find_peaks, joint_spectrum

__all__ = [
    "__version__",
    "SPEED_OF_LIGHT",
    "bessel_j", "bessel_j_prime", "bessel_j_table",
    "EllipseSpec", "SensorArray", "build_ellipse", "build_concentric",
    "rotate_sensors", "nyquist_audit",
    "IncidentWave", "FrequencyGrid", "ChannelMatrix", "wave_response_center",
    "superpose", "add_awgn",
    "export_channel", "ingest_channel",
    "FilterBank", "ModeMatrix", "build_bank", "mode_limit",
    "phase_mode_expand", "concentric_expand", "expand_array",
    "JointSpectrum", "PeakReport", "joint_spectrum", "find_peaks",
]
