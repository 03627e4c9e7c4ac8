"""Saccade-and-dwell head-motion model for an HMD viewer.

Replaces the paper's five human participants.  The model alternates:

- **dwell** — the gaze stays put apart from a small continuous drift
  (an Ornstein-Uhlenbeck velocity), which matters because razor-sharp
  compression profiles (Conduit) are exposed even by small head motion;
- **pursuit** — smooth tracking of moving content at a few-to-tens of
  deg/s for seconds at a time; this is what keeps the ROI crossing tile
  boundaries during a 360° video call and makes laggy ROI updates hurt;
- **saccade** — the head turns to a new target with an
  acceleration-capped velocity profile using the Oculus-reported
  statistics the paper quotes in §8 (average ≈60 deg/s, acceleration up
  to 500 deg/s²).

Yaw is unbounded (wraps at rendering time); pitch is clamped.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import ViewerConfig
from repro.sim.engine import Simulation


class HeadMotion:
    """Continuous (yaw, pitch) head pose process."""

    def __init__(self, sim: Simulation, config: ViewerConfig, rng: np.random.Generator):
        self._sim = sim
        self._config = config
        self._rng = rng
        self.yaw = float(rng.uniform(0.0, 360.0))
        self.pitch = 0.0
        self._velocity = 0.0          # current saccade yaw velocity (deg/s)
        self._drift_velocity = 0.0    # OU drift velocity (deg/s)
        self._pursuit_pitch_velocity = 0.0
        self._target_yaw = self.yaw
        self._target_pitch = 0.0
        self._peak_velocity = config.saccade_velocity_mean
        self._saccading = False
        self._pursuit_velocity = 0.0
        self._pursuit_until = float("-inf")
        self._next_saccade = sim.now + self._draw_dwell()
        self.saccades = 0
        self.pursuits = 0
        sim.every(config.update_interval, self._update)

    def _draw_dwell(self) -> float:
        return max(
            self._config.dwell_min, self._rng.exponential(self._config.dwell_mean)
        )

    def _start_saccade(self) -> None:
        config = self._config
        magnitude = min(
            config.saccade_yaw_max, self._rng.exponential(config.saccade_yaw_mean)
        )
        direction = 1.0 if self._rng.random() < 0.5 else -1.0
        self._target_yaw = self.yaw + direction * magnitude
        limit = config.pitch_limit
        self._target_pitch = min(
            limit, max(-limit, float(self._rng.normal(0.0, config.saccade_pitch_std)))
        )
        self._peak_velocity = max(
            10.0,
            self._rng.normal(config.saccade_velocity_mean, config.saccade_velocity_std),
        )
        self._saccading = True
        self.saccades += 1

    def _start_pursuit(self) -> None:
        config = self._config
        low, high = config.pursuit_velocity_range
        speed = float(self._rng.uniform(low, high))
        direction = 1.0 if self._rng.random() < 0.5 else -1.0
        self._pursuit_velocity = direction * speed
        #: Tracked objects rarely move along the horizon exactly.
        self._pursuit_pitch_velocity = float(self._rng.normal(0.0, 0.3 * speed))
        dur_low, dur_high = config.pursuit_duration_range
        self._pursuit_until = self._sim.now + float(self._rng.uniform(dur_low, dur_high))
        self.pursuits += 1

    def _update(self) -> None:
        dt = self._config.update_interval
        if self._saccading:
            self._advance_saccade(dt)
            return
        if self._sim._now <= self._pursuit_until:
            self.yaw += self._pursuit_velocity * dt
            limit = self._config.pitch_limit
            self.pitch = min(
                limit, max(-limit, self.pitch + self._pursuit_pitch_velocity * dt)
            )
            return
        self._advance_drift(dt)
        if self._sim._now >= self._next_saccade:
            if self._rng.random() < self._config.pursuit_probability:
                self._start_pursuit()
                self._next_saccade = self._sim.now + self._draw_dwell()
            else:
                self._start_saccade()

    def _advance_saccade(self, dt: float) -> None:
        config = self._config
        remaining = self._target_yaw - self.yaw
        direction = math.copysign(1.0, remaining) if remaining else 1.0
        # Accelerate toward the peak, decelerate when close to target
        # (kinematic braking distance at the acceleration cap).
        braking = self._velocity**2 / (2.0 * config.max_acceleration)
        if abs(remaining) <= braking:
            desired = direction * max(10.0, abs(self._velocity) - config.max_acceleration * dt)
        else:
            desired = direction * self._peak_velocity
        cap = config.max_acceleration * dt
        self._velocity += min(cap, max(-cap, desired - self._velocity))
        step = self._velocity * dt
        pitch_step = (self._target_pitch - self.pitch) * min(1.0, 3.0 * dt)
        self.pitch += pitch_step
        if abs(step) >= abs(remaining):
            self.yaw = self._target_yaw
            self.pitch = self._target_pitch
            self._velocity = 0.0
            self._saccading = False
            self._next_saccade = self._sim.now + self._draw_dwell()
        else:
            self.yaw += step

    def _advance_drift(self, dt: float) -> None:
        config = self._config
        tau = 0.5
        decay = math.exp(-dt / tau)
        sigma = config.drift_deg_per_s
        self._drift_velocity = self._drift_velocity * decay + sigma * math.sqrt(
            max(0.0, 1.0 - decay * decay)
        ) * self._rng.normal()
        self.yaw += self._drift_velocity * dt
        limit = config.pitch_limit
        self.pitch = min(
            limit, max(-limit, self.pitch + 0.3 * self._drift_velocity * dt)
        )

    @property
    def angular_velocity(self) -> float:
        """Instantaneous yaw velocity (deg/s), saccade + drift."""
        return self._velocity if self._saccading else self._drift_velocity

    @property
    def in_saccade(self) -> bool:
        return self._saccading
