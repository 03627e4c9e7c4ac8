"""Session runners shared by the per-figure harnesses.

The paper runs every micro-benchmark as 5-minute sessions repeated 10
times across 5 users.  That is ≈25 simulated minutes per condition —
reproducible here, but slow for a test suite — so the settings scale:
``ExperimentSettings.quick()`` (default for pytest benches) uses shorter
sessions with fewer users, ``ExperimentSettings.paper()`` matches the
paper's durations.

Finished conditions are cached twice over: an in-process dict (L1,
returns the *same* result objects) in front of the persistent
content-addressed store in ``repro.experiments.cache`` (L2, shared by
every process and invalidated automatically when the simulator code
changes).  Independent sessions fan out across worker processes when
``jobs`` (argument, ``--jobs``, or ``REPRO_JOBS``) allows — results are
bit-identical to serial execution because each session is a sealed
simulation with an unchanged seed derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments import cache as _disk_cache
from repro.experiments.parallel import SessionTask, run_tasks
from repro.roi.users import USER_PROFILES, UserProfile
from repro.telephony.session import SessionResult


@dataclass(frozen=True)
class ExperimentSettings:
    """How much simulated time an experiment spends per condition."""

    duration: float = 120.0
    warmup: float = 40.0
    repetitions: int = 1
    num_users: int = 2
    base_seed: int = 1

    @staticmethod
    def quick() -> "ExperimentSettings":
        """Bench-friendly scale (minutes of wall clock for all figures)."""
        return ExperimentSettings()

    @staticmethod
    def paper() -> "ExperimentSettings":
        """The paper's scale: 5-minute sessions, 5 users, 10 repetitions."""
        return ExperimentSettings(
            duration=300.0, warmup=40.0, repetitions=10, num_users=5
        )

    def users(self) -> Tuple[UserProfile, ...]:
        return USER_PROFILES[: max(1, min(self.num_users, len(USER_PROFILES)))]


#: L1 cache of already-run conditions, keyed by (settings, scenario,
#: scheme, transport).  Hits return the identical result objects.
_CACHE: Dict[Tuple, List[SessionResult]] = {}


def clear_cache(disk: bool = False) -> None:
    """Drop cached session results (in-memory; ``disk=True`` adds L2)."""
    _CACHE.clear()
    if disk:
        _disk_cache.clear()


def _condition_tasks(
    scenario_name: str,
    scheme: str,
    transport: str,
    settings: ExperimentSettings,
) -> List[SessionTask]:
    """The condition's session tasks, in canonical (user, rep) order.

    Seed derivation — ``base_seed + 1000 * user_index + repetition`` —
    is the compatibility contract with every previously published
    number; do not reorder or reformulate it.
    """
    tasks: List[SessionTask] = []
    for user_index, profile in enumerate(settings.users()):
        for repetition in range(settings.repetitions):
            seed = settings.base_seed + 1000 * user_index + repetition
            tasks.append(
                SessionTask(
                    scenario_name=scenario_name,
                    scheme=scheme,
                    transport=transport,
                    duration=settings.duration,
                    warmup=settings.warmup,
                    seed=seed,
                    profile_name=profile.name,
                )
            )
    return tasks


def _disk_key(
    scenario_name: str, scheme: str, transport: str, settings: ExperimentSettings
) -> str:
    return _disk_cache.condition_key(
        settings,
        scenario_name,
        scheme,
        transport,
        (profile.name for profile in settings.users()),
    )


def run_sessions(
    scenario_name: str,
    scheme: str,
    transport: str,
    settings: Optional[ExperimentSettings] = None,
    jobs: Optional[int] = None,
) -> List[SessionResult]:
    """Run (or fetch cached) sessions for one experimental condition.

    One session per (user, repetition) pair, each with an independent
    seed and its own synthetic video (content seed follows the session
    seed, mirroring the paper's one-video-per-user setup).
    """
    settings = settings or ExperimentSettings.quick()
    key = (settings, scenario_name, scheme, transport)
    if key in _CACHE:
        return _CACHE[key]
    disk_key = _disk_key(scenario_name, scheme, transport, settings)
    results = _disk_cache.load(disk_key)
    if results is None:
        tasks = _condition_tasks(scenario_name, scheme, transport, settings)
        results = run_tasks(tasks, jobs=jobs)
        _disk_cache.store(disk_key, results)
    _CACHE[key] = results
    return results


def run_grid(
    scenarios: Tuple[str, ...],
    schemes: Tuple[str, ...],
    transport: str = "gcc",
    settings: Optional[ExperimentSettings] = None,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], List[SessionResult]]:
    """Run every (scenario, scheme) condition; returns keyed results.

    All sessions still missing after the cache lookups are pooled into
    one task list before fanning out, so workers stay busy across
    condition boundaries (a grid of short conditions parallelises as
    well as one long condition).  Results stream back in task order, and
    each condition is cached (L1 and L2) as soon as its last session
    returns: a run killed part-way keeps every condition it finished.
    """
    settings = settings or ExperimentSettings.quick()
    grid: Dict[Tuple[str, str], List[SessionResult]] = {}
    # (scenario, scheme, session count) of every condition still to run.
    missing: List[Tuple[str, str, int]] = []
    pooled_tasks: List[SessionTask] = []
    for scenario_name in scenarios:
        for scheme in schemes:
            key = (settings, scenario_name, scheme, transport)
            if key in _CACHE:
                grid[(scenario_name, scheme)] = _CACHE[key]
                continue
            results = _disk_cache.load(
                _disk_key(scenario_name, scheme, transport, settings)
            )
            if results is not None:
                _CACHE[key] = results
                grid[(scenario_name, scheme)] = results
                continue
            tasks = _condition_tasks(scenario_name, scheme, transport, settings)
            missing.append((scenario_name, scheme, len(tasks)))
            pooled_tasks.extend(tasks)
    finished: List[SessionResult] = []

    def store_finished() -> None:
        """Cache every leading condition whose sessions have all returned."""
        while missing and len(finished) >= missing[0][2]:
            scenario_name, scheme, count = missing.pop(0)
            results = finished[:count]
            del finished[:count]
            _CACHE[(settings, scenario_name, scheme, transport)] = results
            _disk_cache.store(
                _disk_key(scenario_name, scheme, transport, settings), results
            )
            grid[(scenario_name, scheme)] = results

    def checkpoint(done: int, total: int, result: SessionResult) -> None:
        finished.append(result)
        store_finished()

    if missing:
        run_tasks(pooled_tasks, jobs=jobs, progress=checkpoint)
        store_finished()  # conditions with no sessions
    return grid


def pooled_mos(results: List[SessionResult]) -> Dict[str, float]:
    """MOS PDF pooled over every frame of every session."""
    from repro.video.quality import MOS_ORDER, mos_band

    counts = {band: 0 for band in MOS_ORDER}
    total = 0
    for result in results:
        for psnr in result.log.roi_psnrs:
            counts[mos_band(psnr)] += 1
            total += 1
    if total == 0:
        return {band: 0.0 for band in MOS_ORDER}
    return {band: counts[band] / total for band in MOS_ORDER}


def mean_of(results: List[SessionResult], attribute: str) -> float:
    """Mean of a scalar SessionSummary attribute across sessions."""
    values = [getattr(result.summary, attribute) for result in results]
    return sum(values) / len(values)


def pooled_values(results: List[SessionResult], field: str) -> List[float]:
    """Concatenate a per-frame log list across sessions."""
    pooled: List[float] = []
    for result in results:
        pooled.extend(getattr(result.log, field))
    return pooled
