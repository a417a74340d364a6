"""Seeded statistical simulator of monostatic indoor RF backscatter."""

__version__ = "0.1.0"

from .antennas import (
    AntennaPattern,
    gaussian_horn,
    load_pattern_csv,
    omni,
    pattern_autocorrelation,
    tabulated,
)
from .clutter import (
    AzimuthField,
    ClutterParams,
    DelayAzimuthField,
    DelayAzimuthResponse,
    DelayGrid,
    ProbeWaveform,
    SpunSpectrum,
    band_limit,
    gen_azimuth_channel,
    gen_azimuth_channels,
    gen_delay_azimuth_channel,
    location_phase,
    pdp_envelope,
    spin_response,
    spun_channels,
    uniform_pointings,
)
from .core import (
    SPEED_OF_LIGHT,
    CarrierSpec,
    ConfigurationError,
    RoomSpec,
    average_backscatter_ratio,
    clutter_integral_quadrature,
    fresnel_average_reflectivity,
    from_db,
    material_reflectivity,
    to_db,
)
from .randomfields import (
    AzimuthGrid,
    LognormalFieldParams,
    RandomStream,
    complex_gaussian_series,
    derive_stream,
    lognormal_mean_offset,
)
from .stats import (
    SurveyReport,
    SurveyRow,
    azimuth_autocorrelation,
    correlation_half_width,
    fit_reverberation,
    load_room_survey,
    spatial_correlation,
    survey_report,
)
from .target import (
    SceneSpec,
    TargetSpec,
    TimeAzimuthMap,
    Trajectory,
    compose_scene,
    target_response,
    trajectory_state,
)

# The acceptance suite loads scipy.stats, about 1 s of import that only
# ``validate`` needs, so it is imported when one of its names is first used.
_VALIDATION_NAMES = ("CheckResult", "ValidationReport", "run_checks")


def __getattr__(name):
    if name in _VALIDATION_NAMES:
        from . import validation

        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
