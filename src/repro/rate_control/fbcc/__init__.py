"""Firmware-Buffer-aware Congestion Control — POI360's transport (§4.3)."""

from repro.rate_control.fbcc.detector import CongestionDetector
from repro.rate_control.fbcc.bandwidth import TbsBandwidthEstimator
from repro.rate_control.fbcc.encoding import EncodingRateControl
from repro.rate_control.fbcc.rtp import RtpRateControl, SweetSpotLearner
from repro.rate_control.fbcc.controller import FbccLoop, FbccTransport

__all__ = [
    "CongestionDetector",
    "TbsBandwidthEstimator",
    "EncodingRateControl",
    "RtpRateControl",
    "SweetSpotLearner",
    "FbccLoop",
    "FbccTransport",
]
