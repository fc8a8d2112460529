"""Road-crossing risk assessment from multi-sensor distance streams.

The pipeline: raw distance recordings are smoothed and aligned onto a
uniform grid as one sensors × time frame, differentiated into closing
speed and acceleration, scored by the danger function, fused across
sensors by three architectures, and evaluated against the motion-tracker
ground truth.  A scenario simulator generates synthetic recordings so the
whole chain is verifiable without hardware.

The top level re-exports what the demos, README's quick start and the
acceptance criteria use; every other name is imported from its module.
"""

from .config import RunConfig
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
from .fusion import TRACKER, SensorSet, fuse_all, sensor_set_from_streams
from .kinematics import (
    CrossingModel,
    kinematic_safety_check,
    numeric_collision_check,
    time_to_cross,
)
from .metrics import evaluate_run, evaluate_source, rmse
from .simulate import (
    CameraSensorModel,
    RangeSensorModel,
    ScenarioConfig,
    generate_run,
    simulate_recording,
)

__version__ = "0.1.0"
