"""The two draw policies of :mod:`repro.sim.blocks`.

:class:`CallDraws` is what keeps every event-engine number fixed: the
channel, cell-load and scheduler of one UE share a generator, so each
draw function must consume it exactly as the per-call expressions below
do, in call order — including the scheduler's 4096 burst uniforms,
drawn when the function is built and again at every refill.
:class:`BlockDraws` must read exactly what a :class:`BlockStream` on the
same named stream reads.
"""

import numpy as np
import pytest

from repro.sim.blocks import (
    _CALL_BATCH,
    BlockDraws,
    BlockStream,
    CallDraws,
    exponential_transform,
    lognormal_transform,
    neglog_uniform_transform,
    normal_transform,
    uniform_range_transform,
    uniform_transform,
)
from repro.sim.rng import RngRegistry


def test_call_draws_replay_the_per_call_draw_order():
    rng = np.random.default_rng(11)
    draws = CallDraws(rng)
    twin = np.random.default_rng(11)
    burst = draws.neglog_uniform("sched.burst")
    batch = twin.random(_CALL_BATCH)
    cursor = 0
    normal = draws.normal("channel.z")
    uniform = draws.uniform("channel.handover")
    exponential = draws.exponential("channel.fade_depth", 9.0)
    uniform_range = draws.uniform_range("channel.fade_duration", 0.8, 2.5)
    lognormal = draws.lognormal("sched.fading", 0.3)
    # More calls than one burst batch holds: the refill must draw from
    # the shared generator at the moment of the call, between the others.
    for _ in range(_CALL_BATCH + 200):
        assert normal() == twin.normal()
        assert uniform() == twin.random()
        assert exponential() == twin.exponential(9.0)
        assert uniform_range() == twin.uniform(0.8, 2.5)
        assert lognormal() == float(np.exp(twin.normal(0, 0.3)))
        value = burst()
        if cursor == _CALL_BATCH:
            batch = twin.random(_CALL_BATCH)
            cursor = 0
        assert value == -np.log(max(1e-12, batch[cursor]))
        cursor += 1
    # Nothing else was drawn from the shared generator.
    assert rng.random() == twin.random()


@pytest.mark.parametrize(
    "method, args, transform",
    [
        ("normal", (), normal_transform()),
        ("uniform", (), uniform_transform()),
        ("exponential", (9.0,), exponential_transform(9.0)),
        ("uniform_range", (0.8, 2.5), uniform_range_transform(0.8, 2.5)),
        ("lognormal", (0.3,), lognormal_transform(0.3)),
        ("neglog_uniform", (), neglog_uniform_transform()),
    ],
)
def test_block_draws_read_the_named_block_stream(method, args, transform):
    registry = RngRegistry(5)
    draws = BlockDraws(lambda name: registry.stream("batch." + name), block=7)
    draw = getattr(draws, method)("channel.z", *args)
    other = getattr(draws, method)("cell.z", *args)
    twin = BlockStream(RngRegistry(5).stream("batch.channel.z"), transform, 7)
    values = [draw() for _ in range(30)]
    assert values == [twin.next() for _ in range(30)]
    assert [other() for _ in range(30)] != values
