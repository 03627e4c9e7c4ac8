"""POI360 reproduction: panoramic mobile video telephony over LTE.

A trace-driven reimplementation of *POI360: Panoramic Mobile Video
Telephony over LTE Cellular Networks* (Xie & Zhang, CoNEXT 2017): the
adaptive ROI spatial compression (§4.2), the firmware-buffer-aware
congestion control FBCC (§4.3), the GCC / Conduit / Pyramid baselines,
and a subframe-level LTE uplink + end-to-end path simulator standing in
for the paper's hardware prototype (see DESIGN.md).

Quickstart::

    from repro import SessionConfig, run_session

    result = run_session(SessionConfig(scheme="poi360", transport="fbcc",
                                       duration=60.0, seed=1))
    print(result.summary.to_dict())
"""

from repro.config import (
    CellConfig,
    ChannelConfig,
    CompressionConfig,
    FbccConfig,
    FecConfig,
    FleetConfig,
    GccConfig,
    LteConfig,
    PathConfig,
    SCHEMES,
    SessionConfig,
    TRANSPORTS,
    ViewerConfig,
    VideoConfig,
    WirelineConfig,
)
from repro.metrics.summary import SessionLog, SessionSummary
from repro.obs import (
    EVENT_CATALOGUE,
    METRIC_CATALOGUE,
    SessionMeter,
    TraceBus,
    TraceEvent,
)
from repro.roi.users import USER_PROFILES, UserProfile, profile_by_name
from repro.telephony.fleet import CellResult, CellSession, member_configs, run_cell
from repro.telephony.session import SessionResult, TelephonySession, run_session

__version__ = "1.0.0"

__all__ = [
    "CellConfig",
    "ChannelConfig",
    "CompressionConfig",
    "FbccConfig",
    "FecConfig",
    "FleetConfig",
    "GccConfig",
    "LteConfig",
    "PathConfig",
    "SCHEMES",
    "SessionConfig",
    "TRANSPORTS",
    "ViewerConfig",
    "VideoConfig",
    "WirelineConfig",
    "SessionLog",
    "SessionSummary",
    "SessionResult",
    "EVENT_CATALOGUE",
    "METRIC_CATALOGUE",
    "SessionMeter",
    "TraceBus",
    "TraceEvent",
    "TelephonySession",
    "run_session",
    "CellResult",
    "CellSession",
    "member_configs",
    "run_cell",
    "USER_PROFILES",
    "UserProfile",
    "profile_by_name",
    "__version__",
]
