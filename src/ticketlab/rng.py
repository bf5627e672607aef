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
into the seed (see `derive`).
"""

from __future__ import annotations

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
# through a few block-sized buffers made once per call, never through a
# temporary the size of the output. A multiple of 8, so that the elements
# a SIMD loop leaves to its tail are the ones it leaves in one call over
# the whole array.
_BLOCK = 1 << 16


def _raw64_blocks(seed: int, n: int):
    """Yield (start, stop, z) per block: z holds outputs start+1 .. stop as uint64,
    in a buffer that the next block reuses."""
    steps = np.arange(min(n, _BLOCK), dtype=np.uint64) * _GAMMA_U64
    buf, tmp = np.empty_like(steps), np.empty_like(steps)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        k = stop - start
        z = buf[:k]
        np.add(steps[:k], np.uint64((seed + (start + 1) * _GAMMA) & _M64), out=z)
        t = tmp[:k]
        for shift, factor in ((30, _MIX_A_U64), (27, _MIX_B_U64), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            if factor is not None:
                z *= factor
        yield start, stop, z


def _to_uniform(z: np.ndarray, out: np.ndarray) -> None:
    """Write the uniforms of raw outputs `z` into `out`; shifts `z` in place."""
    z >>= np.uint64(11)
    np.multiply(z, _U2_POW_NEG53, out=out)


def raw64(seed: int, n: int) -> np.ndarray:
    """First `n` outputs of the stream, as uint64."""
    out = np.empty(n, dtype=np.uint64)
    for start, stop, z in _raw64_blocks(seed, n):
        out[start:stop] = z
    return out


def uniforms(seed: int, n: int) -> np.ndarray:
    """`n` i.i.d. uniforms in [0, 1) with 53-bit resolution."""
    out = np.empty(n)
    for start, stop, z in _raw64_blocks(seed, n):
        _to_uniform(z, out[start:stop])
    return out


def normals(seed: int, n: int) -> np.ndarray:
    """`n` i.i.d. standard normals via Box-Muller on two substreams.

    Pair j turns uniforms u1[j], u2[j] into r*cos(theta) at position j and
    r*sin(theta) at position m + j, m = ceil(n/2); the last sine is dropped
    when n is odd.
    """
    m = (n + 1) // 2
    out = np.empty(n)
    r_buf = np.empty(min(m, _BLOCK))
    theta_buf = np.empty_like(r_buf)
    pairs = zip(_raw64_blocks(derive(seed, 0), m), _raw64_blocks(derive(seed, 1), m))
    for (start, stop, z1), (_, _, z2) in pairs:
        r, theta = r_buf[: stop - start], theta_buf[: stop - start]
        # r = sqrt(-2 log1p(-u1)); 1 - u1 is in (0, 1], so the log is finite.
        _to_uniform(z1, r)
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        _to_uniform(z2, theta)
        theta *= 2.0 * np.pi
        cos = out[start:stop]
        np.cos(theta, out=cos)
        cos *= r
        np.sin(theta, out=theta)
        theta *= r
        sin = out[m + start : m + stop]
        sin[...] = theta[: sin.shape[0]]
    return out


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of stream keys.

    Stable sort makes the (astronomically unlikely) key collision
    deterministic too.
    """
    return np.argsort(raw64(seed, n), kind="stable")
