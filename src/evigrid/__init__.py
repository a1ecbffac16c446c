"""Map-aided evidential occupancy-grid perception.

Fuses lidar sensor grids with priors rasterized from vector maps using
Dempster-Shafer theory, maintains a temporal perception grid, and classifies
each cell as free space, mapped/unmapped infrastructure, stopped object or
moving object.
"""

from .dst import (FrameOfDiscernment, MassFunction, Refining, TotalConflictError,
                  combine_conjunctive, combine_dempster, combine_disjunctive,
                  discount, pignistic, refine, specialize)
from .frames import PERCEPTION_FRAME, SENSOR_FRAME, SENSOR_REFINING
from .fusion import (ConflictPair, FusionParams, apply_accumulator_specialization,
                     combine_prior, decide, decide_grid, fuse_pg,
                     refine_sg, step_cell, step_with_conflicts,
                     update_accumulator)
from .grid import EvidentialGrid, GridSpec, PerceptionGrid
from .map_ingest import (MapConfidence, VectorMap, load_map, point_in_polygon,
                         rasterize_gg)
from .sensor import Beam, LidarScan, Pose, SensorGridParams, build_sg
from .simulator import (ObjectTrack, ScenarioConfig, SensorSpec, run_scenario,
                        simulate_scan)

__version__ = "0.1.0"

__all__ = [
    "FrameOfDiscernment", "MassFunction", "Refining", "TotalConflictError",
    "combine_conjunctive", "combine_dempster", "combine_disjunctive",
    "discount", "pignistic", "refine", "specialize",
    "PERCEPTION_FRAME", "SENSOR_FRAME", "SENSOR_REFINING",
    "ConflictPair", "FusionParams", "apply_accumulator_specialization",
    "combine_prior", "decide", "decide_grid", "fuse_pg",
    "refine_sg", "step_cell", "step_with_conflicts", "update_accumulator",
    "EvidentialGrid", "GridSpec", "PerceptionGrid",
    "MapConfidence", "VectorMap", "load_map", "point_in_polygon", "rasterize_gg",
    "Beam", "LidarScan", "Pose", "SensorGridParams", "build_sg",
    "ObjectTrack", "ScenarioConfig", "SensorSpec", "run_scenario", "simulate_scan",
]
