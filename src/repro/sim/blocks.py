"""Block-drawn random streams shared by the scalar and batched engines.

The batched lockstep engine (:mod:`repro.sim.batch`) must reproduce its
scalar reference (:mod:`repro.telephony.uplink`) **bit-for-bit**.  Two
things threaten that:

1. *Draw granularity* — a vectorised engine wants whole arrays of
   variates, a scalar one draws one value at a time; ``Generator``
   state would diverge immediately.
2. *Transcendental ULPs* — numpy may evaluate ``np.exp``/``np.log``
   through different code paths (SIMD vs scalar) for arrays and Python
   floats, so ``exp(x)`` computed per-element and ``exp(array)[i]`` can
   differ in the last ulp.

Both are solved the same way: every stream pre-draws a *block* of
variates and applies its transform (``exp``, ``-log``, affine) **to the
whole block** at refill time.  The scalar engine then consumes the block
one value at a time through :class:`BlockStream`; the batched engine
holds one block per session in :class:`BlockStreamArray` and gathers by
cursor.  Given the same per-session generator and transform, both read
the exact same float64 sequence.

Transforms receive ``(generator, size)`` and return a float64 array —
the constructors below build the common ones.

The scalar model classes (channel, cell load, scheduler) do not pick
their own streams: they take a *draw policy* and ask it for one
zero-argument draw function per named variate.  :class:`BlockDraws` is
the lockstep engines' policy (one block stream per name, as above);
:class:`CallDraws` is the event engine's (every variate drawn per call
from one shared generator, in call order, names ignored).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

#: Variates per refill of every block stream in both lockstep engines:
#: enough to amortise the refill, few enough that a batched block's
#: value arrays stay small (9 streams × 256 × 8 B = 18 KB per session).
DEFAULT_BLOCK = 256

#: Transform signature: ``fn(rng, size) -> np.ndarray`` of float64.
BlockTransform = Callable[[np.random.Generator, int], np.ndarray]


def uniform_transform() -> BlockTransform:
    """Raw uniforms in [0, 1)."""
    return lambda rng, size: rng.random(size)


def normal_transform() -> BlockTransform:
    """Raw standard normals."""
    return lambda rng, size: rng.standard_normal(size)


def lognormal_transform(sigma: float) -> BlockTransform:
    """``exp(sigma * z)`` applied block-wise (per-grant fast fading)."""
    return lambda rng, size: np.exp(sigma * rng.standard_normal(size))


def neglog_uniform_transform() -> BlockTransform:
    """``-log(max(1e-12, u))`` block-wise (geometric burst lengths)."""
    return lambda rng, size: -np.log(np.maximum(1e-12, rng.random(size)))


def exponential_transform(scale: float) -> BlockTransform:
    """Inverse-transform exponential: ``scale * -log(1 - u)``.

    ``u`` in [0, 1) keeps the argument in (0, 1] so the log is finite;
    ``u == 0`` maps to exactly 0.0.
    """
    return lambda rng, size: scale * -np.log(1.0 - rng.random(size))


def uniform_range_transform(low: float, high: float) -> BlockTransform:
    """Inverse-transform uniform on [low, high): ``low + (high-low)*u``."""
    span = high - low
    return lambda rng, size: low + span * rng.random(size)


class BlockStream:
    """Scalar consumer of one block-transformed stream."""

    __slots__ = ("_rng", "_transform", "_block", "_values", "_cursor")

    def __init__(
        self,
        rng: np.random.Generator,
        transform: BlockTransform,
        block: int = DEFAULT_BLOCK,
    ):
        self._rng = rng
        self._transform = transform
        self._block = int(block)
        self._values = transform(rng, self._block)
        self._cursor = 0

    def next(self) -> float:
        """The next variate (refills transparently)."""
        if self._cursor >= self._block:
            self._values = self._transform(self._rng, self._block)
            self._cursor = 0
        value = float(self._values[self._cursor])
        self._cursor += 1
        return value


class BlockStreamArray:
    """Per-session blocks of one stream, gathered by cursor.

    ``take(idx)`` returns one variate per listed session and advances
    only those sessions' cursors — exactly mirroring data-dependent
    scalar consumption.  The blocks lie end to end in one flat column
    and each session's cursor is a flat index into it, so a take is one
    1-D gather.  ``aligned=True`` asserts all sessions consume in
    lockstep (e.g. the channel's every-update normal draw) and keeps a
    single shared cursor, which makes :meth:`take_all` a plain column
    read.
    """

    def __init__(
        self,
        rngs: Sequence[np.random.Generator],
        transforms: Sequence[BlockTransform],
        block: int = DEFAULT_BLOCK,
        aligned: bool = False,
    ):
        if len(rngs) != len(transforms):
            raise ValueError("one transform per session required")
        self._rngs: List[np.random.Generator] = list(rngs)
        self._transforms: List[BlockTransform] = list(transforms)
        self._block = int(block)
        self._n = len(self._rngs)
        self._aligned = bool(aligned)
        self._flat = np.empty(self._n * self._block, dtype=np.float64)
        #: ``(sessions, block)`` view of the flat column.
        self._values = self._flat.reshape(self._n, self._block)
        for s in range(self._n):
            self._values[s] = self._transforms[s](self._rngs[s], self._block)
        if aligned:
            self._cursor = 0
        else:
            #: Flat index of each session's next variate; a block is
            #: used up when it reaches the session's ``_ends`` entry.
            self._cursors = np.arange(self._n, dtype=np.int64) * self._block
            self._ends = self._cursors + self._block

    def take_all(self) -> np.ndarray:
        """One variate for every session (aligned streams only)."""
        if not self._aligned:
            raise RuntimeError("take_all() requires an aligned stream")
        if self._cursor >= self._block:
            for s in range(self._n):
                self._values[s] = self._transforms[s](self._rngs[s], self._block)
            self._cursor = 0
        column = self._values[:, self._cursor].copy()
        self._cursor += 1
        return column

    def take(self, idx: np.ndarray) -> np.ndarray:
        """One variate per session in ``idx`` (unaligned streams)."""
        if self._aligned:
            raise RuntimeError("take() requires an unaligned stream")
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        cursors = self._cursors
        c = cursors[idx]
        spent = c >= self._ends[idx]
        if spent.any():
            for s in idx[spent].tolist():
                self._values[s] = self._transforms[s](self._rngs[s], self._block)
                cursors[s] = s * self._block
            c = cursors[idx]
        out = self._flat[c]
        cursors[idx] = c + 1
        return out


class BlockDraws:
    """Draw policy of the lockstep engines: one block stream per name.

    ``stream(name)`` must return the named per-session generator; every
    draw function reads its own :class:`BlockStream`, so the batched
    ``*Array`` twins consume the exact same float64 sequences.
    """

    __slots__ = ("_stream", "_block")

    def __init__(
        self, stream: Callable[[str], np.random.Generator], block: int = DEFAULT_BLOCK
    ):
        self._stream = stream
        self._block = int(block)

    def _draw(self, name: str, transform: BlockTransform) -> Callable[[], float]:
        return BlockStream(self._stream(name), transform, self._block).next

    def normal(self, name: str) -> Callable[[], float]:
        return self._draw(name, normal_transform())

    def uniform(self, name: str) -> Callable[[], float]:
        return self._draw(name, uniform_transform())

    def exponential(self, name: str, scale: float) -> Callable[[], float]:
        return self._draw(name, exponential_transform(scale))

    def uniform_range(self, name: str, low: float, high: float) -> Callable[[], float]:
        return self._draw(name, uniform_range_transform(low, high))

    def lognormal(self, name: str, sigma: float) -> Callable[[], float]:
        return self._draw(name, lognormal_transform(sigma))

    def neglog_uniform(self, name: str) -> Callable[[], float]:
        return self._draw(name, neglog_uniform_transform())


#: Uniforms :meth:`CallDraws.neglog_uniform` pre-draws per batch.
_CALL_BATCH = 4096


class _NeglogBatch:
    """``-log(max(1e-12, u))`` per call over pre-drawn uniform batches."""

    __slots__ = ("_rng", "_values", "_cursor")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._values = rng.random(_CALL_BATCH)
        self._cursor = 0

    def next(self) -> float:
        if self._cursor >= _CALL_BATCH:
            self._values = self._rng.random(_CALL_BATCH)
            self._cursor = 0
        value = self._values[self._cursor]
        self._cursor += 1
        return -np.log(max(1e-12, value))


class CallDraws:
    """Draw policy of the event engine: per-call draws from one generator.

    Every model of a UE shares the generator, so the draw order is the
    order of the calls; stream names are ignored.  Transcendentals are
    applied per value, and :meth:`neglog_uniform` draws its first batch
    of 4096 uniforms when it is asked for the function.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def normal(self, name: str) -> Callable[[], float]:
        return self._rng.normal

    def uniform(self, name: str) -> Callable[[], float]:
        return self._rng.random

    def exponential(self, name: str, scale: float) -> Callable[[], float]:
        exponential = self._rng.exponential
        return lambda: exponential(scale)

    def uniform_range(self, name: str, low: float, high: float) -> Callable[[], float]:
        uniform = self._rng.uniform
        return lambda: uniform(low, high)

    def lognormal(self, name: str, sigma: float) -> Callable[[], float]:
        normal = self._rng.normal
        return lambda: float(np.exp(normal(0.0, sigma)))

    def neglog_uniform(self, name: str) -> Callable[[], float]:
        return _NeglogBatch(self._rng).next
