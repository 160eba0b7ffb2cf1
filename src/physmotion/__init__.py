"""Scene-aware physics-based refinement of world-frame human motion.

Given per-frame kinematic pose estimates, a scene mesh, and foot-contact
labels, a per-frame constrained quadratic program over floating-base
dynamics produces physically plausible world-frame motion together with
joint torques and ground reaction forces, evaluated by a standard motion
metric suite.
"""

from .errors import (
    ConfigError,
    EmptySceneError,
    InvalidInputError,
    InvalidStateError,
    InvalidTransformError,
    MotionFormatError,
    PhysmotionError,
    QPInfeasibleError,
    SolverError,
    UndefinedMetricError,
)
from .frames import (
    FilterParams,
    RigidTransform,
    Trajectory,
    camera_to_world,
    hand_eye_calibrate,
    one_euro_filter,
)
from .humanoid import (
    GeneralizedState,
    HumanoidModel,
    default_model,
    forward_kinematics,
    integrate,
)
from .metrics import MetricReport, evaluate
from .motion import MotionSequence, load_motion, save_motion
from .optimizer import (
    FrameSetup,
    FrameSolution,
    PDGains,
    QPSettings,
    ReferenceFrameInput,
    refine_sequence,
    root_supervision_accel,
    solve_frame,
)
from .pipeline import RunConfig, run_pipeline
from .scene import (
    HeightMap,
    TriangleMesh,
    build_height_map,
    query_height,
)
from .synth import ScenarioBundle, SyntheticScenario, generate_scenario

__version__ = "0.1.0"
