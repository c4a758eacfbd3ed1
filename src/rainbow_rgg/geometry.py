"""Points in the unit cube and l_p geometry.

Vertices are points sampled i.i.d. uniformly from [0,1]^d and edge lengths
are measured in an l_p norm, p in [1, inf] with inf represented exactly by
math.inf.  Everything downstream (edge processes, tessellation, builders)
works through the helpers here so the norm handling lives in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PointSet",
    "BallVolumes",
    "check_norm",
    "sample_points",
    "lp_lengths",
    "distance",
    "pairwise_distances",
    "unit_ball_volume",
    "mc_unit_ball_volume",
    "ball_volumes",
    "cube_diameter",
    "save_points",
    "load_points",
    "json_safe",
]


def check_norm(p) -> float:
    """Validate a norm parameter and return it as a float.

    Accepts any real p >= 1; math.inf is the exact max-norm sentinel.
    p = 1 is legal but several threshold results switch to connectivity
    based radii there; callers that care check ``p == 1`` themselves.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm parameter must satisfy p >= 1, got {p}")
    return p


@dataclass
class PointSet:
    """n points in [0,1]^d, in vertex order, plus the norm they live under.

    The row order of ``points`` is the vertex indexing: row k is vertex k
    (files use 1-based ids, arrays are 0-based).  ``seed`` records how the
    set was sampled; hand-built sets may leave it None.
    """

    points: np.ndarray
    seed: int | None = None
    p: float = 2.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if pts.shape[1] < 2:
            raise ValueError("dimension must be at least 2")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        self.points = pts
        self.p = check_norm(self.p)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_points(n: int, d: int, seed, p: float = 2.0) -> PointSet:
    """Sample n i.i.d. uniform points in [0,1]^d with a reproducible seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 2:
        raise ValueError("need d >= 2")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    seed_record = seed if isinstance(seed, int) else None
    return PointSet(points=pts, seed=seed_record, p=p)


def lp_lengths(diff, p) -> np.ndarray:
    """l_p norms along the last axis of ``diff``, an array of absolute
    coordinate differences (p = math.inf for the max norm).

    Every length in the package, event lengths, k-NN radii and cell offsets
    alike, goes through this one reduction, so lengths compared with ``==``
    or used as cutoffs agree bit for bit wherever they are computed.  The
    root goes through the ufunc (``np.sqrt`` at p = 2, as numpy's array
    ``** 0.5`` does), never through ``np.float64.__pow__``, whose libm pow
    can differ in the last ulp when a single pair is reduced to a scalar.
    """
    if math.isinf(p):
        return diff.max(axis=-1)
    if p == 1.0:
        return diff.sum(axis=-1)
    s = (diff ** p).sum(axis=-1)
    return np.sqrt(s) if p == 2.0 else np.power(s, 1.0 / p)


def distance(a, b, p) -> float:
    """l_p distance between two points (p = math.inf for the max norm)."""
    p = check_norm(p)
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    return float(lp_lengths(diff, p))


def pairwise_distances(points: np.ndarray, p: float) -> np.ndarray:
    """Dense (n, n) l_p distance matrix; fine for n up to a few thousand."""
    p = check_norm(p)
    return lp_lengths(np.abs(points[:, None, :] - points[None, :, :]), p)


def unit_ball_volume(d: int, p) -> float:
    """Volume of the unit l_p ball in R^d, closed form.

    vol = (2 Gamma(1 + 1/p))^d / Gamma(1 + d/p); the p = inf limit is 2^d
    and p = 1 gives 2^d / d!.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    p = check_norm(p)
    if math.isinf(p):
        return float(2 ** d)
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** d / math.gamma(1.0 + d / p)


def mc_unit_ball_volume(d: int, p, samples: int = 10 ** 6, seed=0) -> float:
    """Monte Carlo estimate of the unit l_p ball volume.

    Independent of the closed form on purpose: uniform samples in [-1,1]^d,
    acceptance fraction times 2^d.  Used as the cross-check oracle.
    """
    if d < 1 or samples < 1:
        raise ValueError("need d >= 1 and samples >= 1")
    p = check_norm(p)
    rng = np.random.default_rng(seed)
    inside = 0
    chunk = 200_000
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        norms = lp_lengths(np.abs(rng.uniform(-1.0, 1.0, size=(m, d))), p)
        inside += int((norms <= 1.0).sum())
        remaining -= m
    return (2.0 ** d) * inside / samples


@dataclass(frozen=True)
class BallVolumes:
    """theta = unit ball volume in dimension d, theta_prime in dimension d-1."""

    d: int
    p: float
    theta: float = field(init=False)
    theta_prime: float = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need d >= 2 (theta_prime uses d - 1)")
        object.__setattr__(self, "p", check_norm(self.p))
        object.__setattr__(self, "theta", unit_ball_volume(self.d, self.p))
        object.__setattr__(self, "theta_prime", unit_ball_volume(self.d - 1, self.p))


def ball_volumes(d: int, p) -> BallVolumes:
    return BallVolumes(d=d, p=p)


def cube_diameter(d: int, p) -> float:
    """Largest l_p distance inside [0,1]^d (corner to corner), d^{1/p}."""
    p = check_norm(p)
    if math.isinf(p):
        return 1.0
    return d ** (1.0 / p)


def json_safe(x):
    """``x`` with every infinite float replaced by the string "inf" and numpy
    scalars by Python numbers, recursing into dicts, lists and tuples, so
    that ``json.dumps`` of the result is strict JSON."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def save_points(path, ps: PointSet) -> None:
    """Write a point set as text: header ``n d p seed``, one point per line.

    Vertex ids are implicit in line order (1-based when talked about in
    files).  Floats are written with repr so the round trip is exact.
    """
    seed_s = "none" if ps.seed is None else str(ps.seed)
    lines = [f"{ps.n} {ps.dim} {_fmt_float(ps.p)} {seed_s}"]
    for row in ps.points:
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_points(path) -> PointSet:
    """Read a point set written by save_points."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("bad point file header, expected 'n d p seed'")
        n, d = int(header[0]), int(header[1])
        p = float(header[2])
        seed = None if header[3] == "none" else int(header[3])
        pts = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if pts.shape != (n, d):
        raise ValueError(f"point file body {pts.shape} disagrees with header ({n}, {d})")
    return PointSet(points=pts, seed=seed, p=p)
