"""Road-crossing risk assessment from multi-sensor distance streams.

The pipeline: raw distance recordings are smoothed and aligned onto a
uniform grid as one sensors × time frame, differentiated into closing
speed and acceleration, scored by the danger function, fused across
sensors by three architectures, and evaluated against the motion-tracker
ground truth.  A scenario simulator generates synthetic recordings so the
whole chain is verifiable without hardware.

The top level re-exports what the demos and README's quick start use;
every other name is imported from its module.
"""

from .danger import DangerParams, Decision, accel_transform, danger_value, decide, speed_transform
from .fusion import TRACKER, fuse_all, sensor_set_from_streams
from .kinematics import (
    CrossingModel,
    kinematic_safety_check,
    numeric_collision_check,
    time_to_cross,
)
from .metrics import evaluate_run
from .simulate import ScenarioConfig, simulate_recording

__version__ = "0.1.0"
