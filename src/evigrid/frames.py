"""The two fixed frames of the perception pipeline and their refining.

Sensor evidence lives on a binary free/occupied frame; the perception and
map-prior grids live on a 5-class frame:

    F  free space
    I  mapped infrastructure (buildings)
    U  unmapped infrastructure
    S  temporarily stopped object
    M  moving object

The occupied sensor hypothesis refines into the four non-free classes.
"""

from __future__ import annotations

from .dst import FrameOfDiscernment, Refining

SENSOR_FRAME = FrameOfDiscernment(("F", "O"))
PERCEPTION_FRAME = FrameOfDiscernment(("F", "I", "U", "S", "M"))

# Subset bitmasks on the sensor frame.
SG_FREE = SENSOR_FRAME.mask("F")
SG_OCCUPIED = SENSOR_FRAME.mask("O")
SG_OMEGA = SENSOR_FRAME.omega

# Subset bitmasks on the perception frame.
PG_FREE = PERCEPTION_FRAME.mask("F")
PG_MOVING = PERCEPTION_FRAME.mask("M")
PG_OMEGA = PERCEPTION_FRAME.omega

# Map contexts, in the order of the map-prior grid's palette, so that a
# prior cell's palette id is its context, and their focal sets: a building
# cell supports I, a road cell supports anything that can be on a road, the
# intermediate space (pavements, courtyards) excludes only mapped
# infrastructure.
MAP_CONTEXTS = ("building", "road", "intermediate")
BUILDING_SET = PERCEPTION_FRAME.mask("I")
ROAD_SET = PERCEPTION_FRAME.mask("FSM")
INTERMEDIATE_SET = PERCEPTION_FRAME.mask("FUSM")
CONTEXT_SETS = (BUILDING_SET, ROAD_SET, INTERMEDIATE_SET)

# Everything that is not free space.
OCCUPIED_SET = PERCEPTION_FRAME.mask("IUSM")

SENSOR_REFINING = Refining(SENSOR_FRAME, PERCEPTION_FRAME,
                           {"F": "F", "O": "IUSM"})
