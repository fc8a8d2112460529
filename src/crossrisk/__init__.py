"""Road-crossing risk assessment from multi-sensor distance streams.

The pipeline: raw distance recordings become :class:`TimeSeries`, are
smoothed and aligned onto a uniform grid, differentiated into kinematic
tracks, scored by the danger function, fused across sensors by three
architectures, and evaluated against the motion-tracker ground truth.
A scenario simulator generates synthetic recordings so the whole chain
is verifiable without hardware.
"""

from .config import RunConfig, load_run_config, run_config_from_dict
from .danger import (
    DangerParams,
    Decision,
    accel_transform,
    danger_series,
    danger_value,
    decide,
    decisions_from_series,
    speed_transform,
)
from .fusion import (
    CAMERA_AW,
    CAMERA_DRONE,
    RSU,
    TRACKER,
    FusionTrace,
    SensorSet,
    fuse_all,
    sensor_set_from_streams,
)
from .kinematics import (
    CrossingModel,
    KinematicTrack,
    SafetyCheck,
    differentiate,
    kinematic_safety_check,
    numeric_collision_check,
    time_to_cross,
)
from .metrics import (
    EvaluationReport,
    InsufficientDataError,
    evaluate_run,
    evaluate_source,
    rmse,
)
from .simulate import (
    CameraSensorModel,
    RangeSensorModel,
    ScenarioConfig,
    SimulatedRun,
    bbox_width_px,
    distance_from_bbox,
    generate_run,
    generate_truth,
    load_scenario,
    sample_sensor,
    scenario_from_dict,
    simulate_recording,
)
from .timeseries import (
    TimeSeries,
    UniformGrid,
    align,
    smooth_trailing,
)

__version__ = "0.1.0"
