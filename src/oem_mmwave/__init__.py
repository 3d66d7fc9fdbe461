"""OAM-embedded massive-MIMO mmWave link simulation toolkit."""

__version__ = "0.1.0"

from .antenna import (
    DishDesign,
    PatchDesign,
    PatchSpec,
    design_dish,
    design_patch,
    feed_impedance,
)
from .capacity import (
    SePoint,
    ergodic_se_mimo,
    ergodic_se_oem,
    instantaneous_se,
    sweep,
)
from .channel import (
    ModeChannel,
    bessel_j,
    build_mode_channels,
    mode_power_profile,
)
from .config import OemConfig
from .geometry import (
    ElementLayout,
    ScenarioReport,
    adjacent_distances,
    build_layout,
    scenario_check,
)
from .transceiver import (
    DecomposedSignal,
    decompose_modes,
    propagate,
    synthesize_elements,
    zf_detect,
)
from .waterfill import (
    PowerPolicy,
    SnrGrid,
    classify_region,
    waterfill_ergodic,
    waterfill_instantaneous,
)
