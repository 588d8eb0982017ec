"""BLE advertising-channel identification and channel-aware RSSI ranging.

Scanners toggle through the advertising channels on a fixed schedule, so a
packet's arrival time alone reveals the channel it was received on; knowing
the channel in turn removes several dB of channel-dependent bias from RSSI
distance estimates.  The package bundles the timing classifier, an
event-level simulator to exercise it against well-behaved and misbehaving
scanner implementations, the calibration and ranging maths, and a CLI for
trace handling and the canned experiments.
"""

from types import ModuleType as _ModuleType

from .core import (
    ADVERTISING_CHANNELS,
    APP_CLOCK,
    CHANNEL_FREQ_HZ,
    RADIO_CLOCK,
    AdvSettings,
    AndroidMode,
    Channel,
    Duration,
    ScanSettings,
    TimeInstant,
    channel_frequency,
    next_channel,
    preset_settings,
)
from .detector import (
    Classification,
    ClassifiedPacket,
    ClassKind,
    DetectorConfig,
    DetectorSession,
    classify_time,
    classify_trace,
    session_on_packet,
    session_on_tick,
)
from .errors import (
    ClockMismatchError,
    ConfigError,
    FitError,
    NoDataError,
    TraceOrderError,
    TraceParseError,
)
from .harness import (
    AccuracyBucket,
    AccuracyCurve,
    ExperimentConfig,
    MatrixResult,
    MatrixRow,
    RangingResult,
    TraceFile,
    build_accuracy_curve,
    read_trace,
    run_accuracy_experiment,
    run_compatibility_matrix,
    run_ranging_experiment,
    simulate_scenario,
    write_trace,
)
from .ranging import (
    CalibrationModel,
    EstimatorComparison,
    RadioLink,
    RangingSample,
    balanced_average,
    calibrate,
    compare_estimators,
    estimate_distance,
    friis_rx_power,
    path_loss_db,
)
from .simkit import (
    AdvertisingEvent,
    ClockModel,
    LossModel,
    PacketRecord,
    RssiModel,
    ScannerBehavior,
    ScanWindow,
    attach_rssi,
    behavior_from_tag,
    gen_advertising,
    gen_scan_windows,
    simulate_reception,
    substream,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
