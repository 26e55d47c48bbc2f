"""Ground-truth linear-Gaussian plant with deterministic seeded noise.

The plant is x_{k+1} = A x_k + B u_k + w_k starting from x_1 = 0, with
w_k ~ N(0, W). Noise is produced by a counter-based generator addressed by
(seed, step, lane) and read in blocks of consecutive steps, so any block of
any trial can be regenerated bit-for-bit without replaying the stream, and
parallel trials never share generator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control_math import CostWeights, SystemMatrices, spectral_radius, _check_spd, _clean_matrix
from .errors import UnstableMatrix

# a trial fails at the first step whose state norm passes this guard
STATE_NORM_GUARD = 1e12

NOISE_CHUNK = 4096
_LANES = {"w": 0, "v": 1}


@dataclass(frozen=True)
class PlantSpec:
    """True system, noise covariance, and stage-cost weights for one plant.

    Requires an open-loop stable A (spectral radius < 1) and W > 0.
    """

    sys: SystemMatrices
    W: np.ndarray
    cost: CostWeights

    def __post_init__(self):
        W = _check_spd(_clean_matrix(self.W, "W"), "W")
        if W.shape[0] != self.sys.n:
            raise ValueError(f"W is {W.shape} but the system has n={self.sys.n}")
        if self.cost.Q.shape[0] != self.sys.n:
            raise ValueError(
                f"Q is {self.cost.Q.shape} but the system has n={self.sys.n}")
        if self.cost.R.shape[0] != self.sys.m:
            raise ValueError(
                f"R is {self.cost.R.shape} but the system has m={self.sys.m}")
        sr = spectral_radius(self.sys.A)
        if sr >= 1.0:
            raise UnstableMatrix(f"open-loop spectral radius {sr:.6f} >= 1")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "_chol_W", np.linalg.cholesky(W))

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def m(self) -> int:
        return self.sys.m

    @property
    def chol_W(self) -> np.ndarray:
        """Lower Cholesky factor of W, computed once at construction."""
        return self._chol_W


class NoiseStream:
    """Counter-addressable standard-normal source with two independent lanes.

    Lane "w" serves state-noise draws of dimension n, lane "v" serves probe
    draws of dimension m. The value at (seed, step k, lane) is a pure
    function of those three coordinates: draws are generated in fixed-size
    chunks by a counter-mode bit generator whose key encodes (seed, lane)
    and whose counter encodes the chunk index. Noise is read in blocks of
    consecutive steps (block), which generate only the chunks they cover,
    so a block at any step is identical no matter what was read before.
    """

    def __init__(self, seed: int, state_dim: int, input_dim: int):
        if state_dim < 1 or input_dim < 1:
            raise ValueError("dimensions must be >= 1")
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._dims = {"w": state_dim, "v": input_dim}

    def _chunk(self, lane: str, chunk_index: int, rows: int) -> np.ndarray:
        key = (self.seed << 1) | _LANES[lane]
        bitgen = np.random.Philox(key=key, counter=chunk_index << 64)
        return np.random.Generator(bitgen).standard_normal(
            (rows, self._dims[lane]))

    def block(self, lane: str, start_k: int, count: int) -> np.ndarray:
        """Rows for steps start_k .. start_k+count-1 (1-based) on the given
        lane, as a (count, dim) array."""
        if lane not in _LANES:
            raise ValueError(f"unknown lane {lane!r}")
        if start_k < 1:
            raise ValueError("step index is 1-based")
        out = np.empty((count, self._dims[lane]))
        filled = 0
        while filled < count:
            i = start_k - 1 + filled
            offset = i % NOISE_CHUNK
            take = min(NOISE_CHUNK - offset, count - filled)
            # the chunk's rows up to the last one read: a fresh generator
            # fills in order, so they are the whole chunk's first rows
            chunk = self._chunk(lane, i // NOISE_CHUNK, offset + take)
            out[filled:filled + take] = chunk[offset:]
            filled += take
        return out


def draw_process_noise(stream: NoiseStream, spec: PlantSpec,
                       k: int) -> np.ndarray:
    """State noise L g at step k (1-based), where L = spec.chol_W."""
    return spec.chol_W @ stream.block("w", k, 1)[0]


def draw_probe_noise(stream: NoiseStream, m: int, k: int) -> np.ndarray:
    """Standard-normal probe vector at step k (1-based)."""
    g = stream.block("v", k, 1)[0]
    if g.shape[0] != m:
        raise ValueError(f"stream provisions {g.shape[0]} probe dims, asked {m}")
    return g


def step(x: np.ndarray, u: np.ndarray, w: np.ndarray, spec: PlantSpec,
         out: np.ndarray | None = None) -> np.ndarray:
    """One transition x' = A x + B u + w; pure in all arguments but ``out``.

    ``x``, ``u`` and ``w`` are 1-D float arrays, or (N, n), (N, m) and
    (N, n) row stacks of them for N trials in lockstep, and x' has x's
    shape. It is written to ``out`` when given (x itself allowed), else to
    a new array, and returned. Every row of x' is the 1-D step of that
    row, bit for bit. No bound is checked here (see overflow_failures).
    This is the reference form of the dynamics and the regret audit's
    boundary step (regret.TrialFold derives the state after a log's last
    row with it). run_trials steps the same map in its kernel form,
    x' = (A + B Khat) x + (B u_pr + w), whose states agree with this one
    to rounding.
    """
    out = np.matvec(spec.sys.A, x, out)
    out += np.matvec(spec.sys.B, u)
    out += w
    return out


def overflow_failures(X: np.ndarray,
                      first_step: int) -> dict[int, tuple[int, str]]:
    """Rows of a state block that pass the overflow guard, and where.

    X[r, j] of the (N, L, n) block is row r's state after step
    first_step + j. Each row with a state whose norm passes
    STATE_NORM_GUARD (a NaN norm too) maps to its first such step and the
    message naming it.
    """
    # per state, the dot product np.linalg.norm takes of a 1-D float array
    norms = np.sqrt(np.vecdot(X, X))
    bad = ~(norms <= STATE_NORM_GUARD)
    failures = {}
    for r in np.flatnonzero(bad.any(axis=1)):
        j = int(np.argmax(bad[r]))
        k = first_step + j
        failures[int(r)] = (
            k, f"state norm {norms[r, j]:.3e} passed the overflow guard "
               f"at step {k}")
    return failures


def plant_spec_to_dict(spec: PlantSpec) -> dict:
    """Row-major JSON-ready form with keys A, B, W, Q, R."""
    return {
        "A": spec.sys.A.tolist(),
        "B": spec.sys.B.tolist(),
        "W": spec.W.tolist(),
        "Q": spec.cost.Q.tolist(),
        "R": spec.cost.R.tolist(),
    }

