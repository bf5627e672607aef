"""Deterministic random streams built on the splitmix64 mixer.

Every stochastic choice in the package (weight init, epoch shuffling,
random pruning scores, synthetic data) draws from these functions, so a
seed pins the whole experiment bit-for-bit on any platform and any numpy
version.

Scheme: output i of the stream with seed s is mix64(s + i * GAMMA), where
mix64 is the splitmix64 finalizer and GAMMA its golden-ratio increment.
Because output i depends only on (s, i) the streams vectorize, arrays
of outputs are generated block by block with the same bits as in one
piece, and substreams are derived by folding integer path components
into the seed (see `derive`). The blocks of a large call may run on
several threads, each taking a contiguous range of whole blocks (`_blockwise`).
A block is made by the same numpy calls on the same elements wherever it
runs, so the bits do not depend on the thread count or the split.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_U2_POW_NEG53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """Splitmix64 finalizer on a 64-bit integer."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX_A) & _M64
    z = ((z ^ (z >> 27)) * _MIX_B) & _M64
    return (z ^ (z >> 31)) & _M64


def derive(seed: int, *path: int) -> int:
    """Derive a child seed from `seed` and an integer path.

    Used to give each consumer (per-layer init, per-epoch shuffle, ...)
    its own independent stream: child = mix64((state + GAMMA) ^ mix64(c))
    folded left to right over the path components.
    """
    state = seed & _M64
    for c in path:
        state = mix64(((state + _GAMMA) & _M64) ^ mix64(c))
    return state


# Elements per block of the array generators, which write their output
# through a few block-sized buffers per thread, never through a temporary
# the size of the output. A multiple of 8, so that the elements a SIMD loop
# leaves to its tail are the ones it leaves in one call over the whole array.
_BLOCK = 1 << 16


# Blocks each thread must get before `_blockwise` starts a helper. A helper
# pays for itself only while the other CPUs are idle, as when data is built:
# right after a BLAS call, OpenBLAS's worker threads still spin on them, and
# a helper started then makes the call no faster and its time uneven. The
# draws of a LeNet training run (a layer's init, random scores, shuffles)
# have at most 4 blocks, so they stay on the calling thread.
_THREAD_BLOCKS = 3


def _usable_cpus() -> int:
    """CPUs this process may run on; `_blockwise` runs at most this many threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(blocks: int) -> int:
    """Threads for a call of `blocks` blocks: one per usable CPU while each gets
    at least `_THREAD_BLOCKS` blocks, and never fewer than one."""
    return max(1, min(_usable_cpus(), blocks // _THREAD_BLOCKS))


def _blockwise(n: int, block: int, fill: Callable, scratch: Callable[[], tuple] = tuple) -> None:
    """Call `fill(start, stop, *scratch())` over contiguous ranges of whole blocks
    of `block` items, which together cover range(n).

    There are `_workers(blocks)` ranges: the calling thread fills
    the first and a helper thread each of the others, all joined before this
    returns or raises. The first exception a helper raised is raised here, so
    a caller never returns an output that a range left unwritten. Every
    scratch buffer is made here, on the calling thread: memory freed on a
    helper stays in that thread's malloc arena. `fill` calls numpy and private
    functions only, never a public function, which a caller may have wrapped
    in something that is not thread-safe.
    """
    blocks = -(-n // block)
    if blocks == 0:
        return
    workers = _workers(blocks)
    cuts = [min(n, block * (blocks * w // workers)) for w in range(workers + 1)]
    buffers = [scratch() for _ in range(workers)]
    errors = []

    def run(w: int) -> None:
        try:
            fill(cuts[w], cuts[w + 1], *buffers[w])
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helpers = []
    try:
        for w in range(1, workers):
            helper = threading.Thread(target=run, args=(w,), name=f"ticketlab-rng-{w}")
            helper.start()
            helpers.append(helper)
        fill(cuts[0], cuts[1], *buffers[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _steps(n: int) -> np.ndarray:
    """i * GAMMA for i < min(n, _BLOCK): the offsets of a block's outputs from its first."""
    return np.arange(min(n, _BLOCK), dtype=np.uint64) * _GAMMA_U64


def _mix_block(seed: int, start: int, steps: np.ndarray, z: np.ndarray, tmp: np.ndarray) -> None:
    """Write outputs start+1 .. start+len(z) of the stream into `z` (at most one
    block), using `tmp` (at least as long) as scratch."""
    k = z.shape[0]
    np.add(steps[:k], np.uint64((seed + (start + 1) * _GAMMA) & _M64), out=z)
    t = tmp[:k]
    for shift, factor in ((30, _MIX_A_U64), (27, _MIX_B_U64), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        if factor is not None:
            z *= factor


def _to_uniform(z: np.ndarray, out: np.ndarray) -> None:
    """Write the uniforms of raw outputs `z` into `out`; shifts `z` in place."""
    z >>= np.uint64(11)
    np.multiply(z, _U2_POW_NEG53, out=out)


def raw64(seed: int, n: int) -> np.ndarray:
    """First `n` outputs of the stream, as uint64."""
    out = np.empty(n, dtype=np.uint64)
    steps = _steps(n)

    def fill(start: int, stop: int, tmp: np.ndarray) -> None:
        for s in range(start, stop, _BLOCK):
            _mix_block(seed, s, steps, out[s : min(s + _BLOCK, stop)], tmp)

    _blockwise(n, _BLOCK, fill, lambda: (np.empty_like(steps),))
    return out


def uniforms(seed: int, n: int) -> np.ndarray:
    """`n` i.i.d. uniforms in [0, 1) with 53-bit resolution."""
    out = np.empty(n)
    steps = _steps(n)

    def fill(start: int, stop: int, z_buf: np.ndarray, tmp: np.ndarray) -> None:
        for s in range(start, stop, _BLOCK):
            e = min(s + _BLOCK, stop)
            z = z_buf[: e - s]
            _mix_block(seed, s, steps, z, tmp)
            _to_uniform(z, out[s:e])

    _blockwise(n, _BLOCK, fill, lambda: (np.empty_like(steps), np.empty_like(steps)))
    return out


def normals(seed: int, n: int) -> np.ndarray:
    """`n` i.i.d. standard normals via Box-Muller on two substreams.

    Pair j turns uniforms u1[j], u2[j] into r*cos(theta) at position j and
    r*sin(theta) at position m + j, m = ceil(n/2); the last sine is dropped
    when n is odd.
    """
    m = (n + 1) // 2
    out = np.empty(n)
    steps = _steps(m)
    seed1, seed2 = derive(seed, 0), derive(seed, 1)

    def fill(start: int, stop: int, z_buf: np.ndarray, tmp_buf: np.ndarray) -> None:
        for s in range(start, stop, _BLOCK):
            e = min(s + _BLOCK, stop)
            z, tmp = z_buf[: e - s], tmp_buf[: e - s]
            # r = sqrt(-2 log1p(-u1)), made in the slots of the cosine terms;
            # 1 - u1 is in (0, 1], so the log is finite.
            r = out[s:e]
            _mix_block(seed1, s, steps, z, tmp)
            _to_uniform(z, r)
            np.negative(r, out=r)
            np.log1p(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            # theta and cos(theta) take the memory of the raw outputs once read.
            _mix_block(seed2, s, steps, z, tmp)
            theta, cos = tmp.view(np.float64), z.view(np.float64)
            _to_uniform(z, theta)
            theta *= 2.0 * np.pi
            np.cos(theta, out=cos)
            np.sin(theta, out=theta)
            theta *= r
            sin = out[m + s : m + e]
            sin[...] = theta[: sin.shape[0]]
            r *= cos

    _blockwise(m, _BLOCK, fill, lambda: (np.empty_like(steps), np.empty_like(steps)))
    return out


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of stream keys.

    Stable sort makes the (astronomically unlikely) key collision
    deterministic too.
    """
    return np.argsort(raw64(seed, n), kind="stable")
