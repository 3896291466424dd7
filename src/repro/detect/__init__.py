"""Dynamic data-race detection over deterministic replay.

An extension in the spirit of the paper's related work (Tallam et al.,
"Dynamic slicing of multithreaded programs for race detection", ICSM'08):
since a pinball replays deterministically, a happens-before race detector
can run as just another replay tool, and every race it reports is
*concrete* — the two access instances exist in the recorded execution and
can immediately become slicing criteria in the same session.

The detector implements vector-clock happens-before in the FastTrack
style (per-thread clocks, scalar epochs per access), with the guest's
synchronization vocabulary: ``spawn``/``join``/``lock``/``unlock``.

Typical use::

    from repro.detect import detect_races
    reports = detect_races(pinball, program)
    for race in reports:
        print(race.describe(program))
        # each endpoint is a (tid, tindex) instance — sliceable directly.
"""

from repro.detect.vector_clock import VectorClock
from repro.detect.race_detector import (
    RaceDetectorTool,
    RaceReport,
    detect_races,
)
from repro.detect.online import (
    OnlineRaceDetector,
    detect_races_online,
)

__all__ = [
    "OnlineRaceDetector",
    "RaceDetectorTool",
    "RaceReport",
    "VectorClock",
    "detect_races",
    "detect_races_online",
]
