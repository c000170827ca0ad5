"""Monte Carlo realization of the equilibrium measure and desk-scale verification.

Sampling draws words with the exact cylinder law of the measure: pick one of
the two Gibbs chains with its lift mass, start the chain in the unshifted
half of the doubled alphabet (stationary law conditioned there), run it for
the requested depth, and reduce symbols modulo d.  Points are the composed
maps applied to the center of the unit square, which pins every point inside
its cylinder rectangle up to the reported accuracy bound.

All randomness flows through a counter-based generator seeded once per
sample set, with a fixed draw schedule (one branch draw, one initial-state
draw, then one transition draw per step, each vectorized over points), so
identical inputs give bit-identical outputs regardless of worker counts.

Local dimensions are estimated on sup-metric squares: the empirical measure
of the square of half-side r around a center is the fraction of sample
points within sup-distance r, and the slope of log measure against log r is
the estimate.

The strip oracle checks, at finite enumeration depth, the upper bound on the
measure of a thin sub-strip of a cylinder rectangle by the product of the
cylinder mass and a projected measure of the blown-up strip interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coding import as_word, encode_tau, product_signature, signature_arrays
from .errors import InternalMismatch, IoFailure, NoCertificate, TooFewHits, TooLarge
from .ifs import AffineMap2D, IfsSpec, Rect, check_strong_separation
from .thermo import ENUMERATION_CAP, kaenmaki_measure, log_cylinder_measure_mt


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class Projection(Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class SampleSet:
    """Points drawn from the measure, with their generating words.

    words is an (N, depth) array over 1..d; points is (N, 2) in the closed
    unit square; accuracy bounds the sup distance from each point to the set
    of true addresses extending its word.
    """

    points: np.ndarray
    words: np.ndarray
    seed: int
    depth: int
    accuracy: float

    def __post_init__(self):
        self.points.setflags(write=False)
        self.words.setflags(write=False)


def sample_symbolic(spec: IfsSpec, s: float, count: int, depth: int, seed: int) -> SampleSet:
    """Draw ``count`` words of length ``depth`` with exact cylinder law, plus points."""
    if depth < 1 or count < 1:
        raise ValueError("count and depth must be >= 1")
    nu = kaenmaki_measure(spec, s)
    d = spec.d
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))

    p1 = nu.tau_start_mass()
    branch_one = rng.random(count) < p1
    init1 = nu.m1.stationary[:d] / nu.m1.stationary[:d].sum()
    init2 = nu.m2.stationary[:d] / nu.m2.stationary[:d].sum()
    u0 = rng.random(count)
    states = np.empty((count, depth), dtype=np.int64)
    # clip guards the 1-ulp case where a cumulative row tops out below a draw
    states[:, 0] = np.minimum(np.where(branch_one,
                                       np.searchsorted(np.cumsum(init1), u0),
                                       np.searchsorted(np.cumsum(init2), u0)), d - 1)
    cum1 = np.cumsum(nu.m1.stochastic, axis=1)
    cum2 = np.cumsum(nu.m2.stochastic, axis=1)
    for t in range(1, depth):
        u = rng.random(count)
        prev = states[:, t - 1]
        nxt1 = (u[:, None] > cum1[prev]).sum(axis=1)
        nxt2 = (u[:, None] > cum2[prev]).sum(axis=1)
        states[:, t] = np.minimum(np.where(branch_one, nxt1, nxt2), 2 * d - 1)

    words = states % d + 1  # decode the lift: reduce mod d into 1..d

    a = np.asarray(spec.a)
    b = np.asarray(spec.b)
    tx = np.array([m.tx for m in spec.maps])
    ty = np.array([m.ty for m in spec.maps])
    anti = np.array([m.anti for m in spec.maps])
    x = np.full(count, 0.5)
    y = np.full(count, 0.5)
    for t in range(depth - 1, -1, -1):
        j = words[:, t] - 1
        swap = anti[j]
        nx = a[j] * np.where(swap, y, x) + tx[j]
        ny = b[j] * np.where(swap, x, y) + ty[j]
        x, y = nx, ny
    points = np.column_stack([x, y])

    log_a1, _, _ = signature_arrays(words, spec)
    accuracy = float(np.exp(log_a1.max()) * math.sqrt(2.0) / 2.0)
    return SampleSet(points=points, words=words, seed=int(seed),
                     depth=int(depth), accuracy=accuracy)


def project_point(spec: IfsSpec, w) -> tuple[float, float]:
    """Image of the square center under the composed map of a word.

    Lies within the cylinder rectangle of the word, hence within
    alpha1 * sqrt(2)/2 of every address extending the word (see
    projection_error_bound).
    """
    w = as_word(w, spec.d)
    x, y = 0.5, 0.5
    for i in reversed(w):
        x, y = spec.map(i).apply(x, y)
    return x, y


def projection_error_bound(spec: IfsSpec, w) -> float:
    return product_signature(as_word(w, spec.d), spec).alpha1 * math.sqrt(2.0) / 2.0


def csv_lines(samples: SampleSet):
    """Yield the x,y,word header and rows; the word column is the digit string of
    the sample's word, joined by '-' when a symbol has two digits (d >= 10): 4-10-3."""
    sep = "-" if samples.words.max() >= 10 else ""
    yield "x,y,word\n"
    for point, word in zip(samples.points, samples.words):
        x, y = point.tolist()
        yield f"{x!r},{y!r},{sep.join(map(str, word.tolist()))}\n"


def write_csv(samples: SampleSet, path) -> None:
    """Write csv_lines(samples) to path."""
    try:
        with open(path, "w") as fh:
            fh.writelines(csv_lines(samples))
    except OSError as e:
        raise IoFailure(str(e)) from None


# -- dimension estimators ------------------------------------------------------

def _slope_with_stderr(slopes: list[float]) -> tuple[float, float]:
    arr = np.asarray(slopes, dtype=float)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def _count_fractions(values: np.ndarray, center, radii: np.ndarray) -> np.ndarray:
    if values.ndim == 2:
        dist = np.maximum(np.abs(values[:, 0] - center[0]),
                          np.abs(values[:, 1] - center[1]))
    else:
        dist = np.abs(values - center)
    counts = np.array([(dist <= r).sum() for r in radii], dtype=float)
    if (counts < 50).any():
        raise TooFewHits(
            f"fewer than 50 sample hits at center {center} for the radius grid; "
            "enlarge the radii or the sample count")
    return counts / values.shape[0]


def _fit_slopes(values: np.ndarray, centers, radii) -> tuple[float, float]:
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise ValueError("need at least 3 radii")
    log_r = np.log(radii)
    slopes = []
    for c in centers:
        frac = _count_fractions(values, c, radii)
        slopes.append(float(np.polyfit(log_r, np.log(frac), 1)[0]))
    return _slope_with_stderr(slopes)


def estimate_local_dimension(samples: SampleSet, centers, radii) -> tuple[float, float]:
    """Average slope of log empirical square measure against log radius.

    Raises TooFewHits when any (center, radius) pair captures fewer than 50
    sample points, which marks the radius grid as unusable.
    """
    return _fit_slopes(samples.points, list(centers), radii)


def default_centers(samples: SampleSet, k: int = 20) -> np.ndarray:
    """Deterministic center selection: evenly strided sample points."""
    idx = np.linspace(0, len(samples.points) - 1, k).astype(np.int64)
    return samples.points[idx]


def estimate_projected_dim(samples: SampleSet, axis: Projection,
                           centers=None, radii=None) -> tuple[float, float]:
    """Local dimension estimate for the 1-D projection of the sample points."""
    coords = samples.points[:, 0] if axis is Projection.X else samples.points[:, 1]
    if radii is None:
        radii = 2.0 ** np.arange(-4, -10, -1)
    if centers is None:
        idx = np.linspace(0, len(coords) - 1, 20).astype(np.int64)
        centers = coords[idx]
    return _fit_slopes(coords, list(centers), radii)


def box_count(samples: SampleSet, scales) -> float:
    """Slope of log occupied-box count against log inverse scale."""
    scales = np.asarray(scales, dtype=float)
    if scales.size < 3:
        raise ValueError("need at least 3 scales")
    counts = []
    for sc in scales:
        cells = np.floor(samples.points / sc).astype(np.int64)
        keys = cells[:, 0] << 32 | (cells[:, 1] & 0xFFFFFFFF)
        counts.append(np.unique(keys).size)
    return float(np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0])


# -- primary strips ------------------------------------------------------------

@dataclass(frozen=True)
class _Affine:
    """Composed map with diagonal or anti-diagonal linear part, linear space."""

    odd: bool
    p: float
    q: float
    tx: float
    ty: float

    def compose(self, m: AffineMap2D) -> "_Affine":
        if self.odd:
            ntx = self.p * m.ty + self.tx
            nty = self.q * m.tx + self.ty
            np_, nq = self.p * m.b, self.q * m.a
        else:
            ntx = self.p * m.tx + self.tx
            nty = self.q * m.ty + self.ty
            np_, nq = self.p * m.a, self.q * m.b
        return _Affine(odd=self.odd ^ m.anti, p=np_, q=nq, tx=ntx, ty=nty)

    def rect(self) -> Rect:
        return Rect(self.tx, self.tx + self.p, self.ty, self.ty + self.q)

    def fixed_point(self) -> tuple[float, float]:
        if self.odd:
            x = (self.p * self.ty + self.tx) / (1.0 - self.p * self.q)
            return x, self.q * x + self.ty
        return self.tx / (1.0 - self.p), self.ty / (1.0 - self.q)


_IDENTITY = _Affine(odd=False, p=1.0, q=1.0, tx=0.0, ty=0.0)


def _compose_word(spec: IfsSpec, w) -> _Affine:
    st = _IDENTITY
    for i in w:
        st = st.compose(spec.map(i))
    return st


@dataclass(frozen=True)
class StripQuery:
    """A cylinder prefix with a strip half-width through its fixed point.

    The strip is the set of points of the cylinder rectangle whose coordinate
    along the primary axis (the longer side; vertical on ties) lies within
    r/2 of that coordinate of the fixed point of the composed map.  The
    secondary projection is the coordinate of the unit-square frame that the
    composed map sends to the primary axis: equal to the primary one when the
    composition preserves axes, swapped otherwise.
    """

    word_prefix: tuple[int, ...]
    r: float
    primary_axis: Axis
    secondary_projection: Projection


def make_strip_query(spec: IfsSpec, prefix, r: float) -> StripQuery:
    prefix = as_word(prefix, spec.d)
    st = _compose_word(spec, prefix)
    alpha1 = max(st.p, st.q)
    if not (0.0 < r <= alpha1 * (1.0 + 1e-12)):
        raise ValueError(f"strip width r={r} must lie in (0, alpha1={alpha1}]")
    horizontal = st.p > st.q
    primary = Axis.HORIZONTAL if horizontal else Axis.VERTICAL
    if not st.odd:
        secondary = Projection.X if horizontal else Projection.Y
    else:
        secondary = Projection.Y if horizontal else Projection.X
    return StripQuery(word_prefix=prefix, r=float(r),
                      primary_axis=primary, secondary_projection=secondary)


@dataclass(frozen=True)
class StripOracleResult:
    mu_lower: float
    mu_upper: float
    bound: float
    proj_lower: float
    proj_upper: float
    submult_const: float
    covered: bool
    undecided: bool


def _extent(rect: Rect, horizontal: bool) -> tuple[float, float]:
    return (rect.x0, rect.x1) if horizontal else (rect.y0, rect.y1)


def _enumerate_interval_mass(spec: IfsSpec, start: _Affine, interval, horizontal: bool,
                             cap: int, log_mass, prefix: tuple[int, ...]):
    """Stopping-time sum of word masses over cells against an interval.

    Walks extensions of ``prefix`` depth-first from the composed state
    ``start``; a cell whose extent along the chosen axis is inside the
    interval contributes its mass and stops, a disjoint cell stops with
    nothing, and a straddling cell recurses until the cap, where it lands in
    the undecided part of the bracket.  Returns (decided, undecided).
    """
    lo_i, hi_i = interval
    decided = 0.0
    undecided = 0.0
    stack = [(prefix, start, 0)]
    while stack:
        word, st, depth = stack.pop()
        lo, hi = _extent(st.rect(), horizontal)
        if lo >= lo_i and hi <= hi_i:
            decided += math.exp(log_mass(word))
        elif hi < lo_i or lo > hi_i:
            continue
        elif depth == cap:
            undecided += math.exp(log_mass(word))
        else:
            for i in range(1, spec.d + 1):
                stack.append((word + (i,), st.compose(spec.map(i)), depth + 1))
    return decided, undecided


def strip_measure_oracle(spec: IfsSpec, s: float, q: StripQuery,
                         extension_cap: int) -> StripOracleResult:
    """Check the strip upper bound by exhaustive enumeration of both sides.

    The strip mass is bracketed by summing the measure over extension cells
    inside the strip; the bound is C * nu([prefix]) * (projected mass of the
    strip interval blown up by 1/alpha1, enumerated on the interval system),
    where C = up / lo^2 comes from the two-sided cylinder envelope and
    dominates every ratio nu([uv]) / (nu([u]) nu([v])).  The upper bracket of
    the left side never exceeds the bound built from the upper bracket of the
    right side.
    """
    if spec.d ** extension_cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{extension_cap} exceeds the enumeration cap")
    if not check_strong_separation(spec).strong_separation:
        raise NoCertificate("strip enumeration requires certified strong separation")
    nu = kaenmaki_measure(spec, s)
    lo_env, up_env = nu.envelope()
    c_sub = up_env / lo_env ** 2

    prefix = q.word_prefix
    st0 = _compose_word(spec, prefix)
    alpha1 = max(st0.p, st0.q)
    horizontal = q.primary_axis is Axis.HORIZONTAL
    fx, fy = st0.fixed_point()
    center_p = fx if horizontal else fy
    strip = (center_p - q.r / 2.0, center_p + q.r / 2.0)

    cyl_lo, cyl_hi = _extent(st0.rect(), horizontal)
    covered = strip[0] <= cyl_lo and cyl_hi <= strip[1]
    if covered:
        mass = nu.cylinder(prefix)
        return StripOracleResult(mu_lower=mass, mu_upper=mass,
                                 bound=c_sub * mass, proj_lower=1.0, proj_upper=1.0,
                                 submult_const=c_sub, covered=True, undecided=False)

    mu_dec, mu_und = _enumerate_interval_mass(
        spec, st0, strip, horizontal, extension_cap,
        log_mass=nu.log_cylinder, prefix=prefix)

    sec_x = q.secondary_projection is Projection.X
    c_s = fx if sec_x else fy
    blown = (c_s - q.r / (2.0 * alpha1), c_s + q.r / (2.0 * alpha1))
    pr_dec, pr_und = _enumerate_interval_mass(
        spec, _IDENTITY, blown, sec_x, extension_cap,
        log_mass=lambda w: 0.0 if not w else nu.log_cylinder(w), prefix=())

    mass_prefix = nu.cylinder(prefix)
    bound = c_sub * mass_prefix * (pr_dec + pr_und)
    total = mu_dec + mu_und
    if total > bound * (1.0 + 1e-9):
        raise InternalMismatch(
            f"strip mass {total!r} exceeds its product bound {bound!r}; "
            "the stopped families on the two sides disagree")
    return StripOracleResult(
        mu_lower=mu_dec, mu_upper=total, bound=bound,
        proj_lower=pr_dec, proj_upper=pr_dec + pr_und, submult_const=c_sub,
        covered=False, undecided=mu_und > mu_dec)


@dataclass(frozen=True)
class StripReverseResult:
    mu_lower: float
    mu_upper: float
    rhs_lower: float
    rhs_upper: float
    chain_const: float


def strip_reverse_oracle(spec: IfsSpec, s: float, q: StripQuery, extension_cap: int,
                         t: int = 1) -> StripReverseResult:
    """Lower-bound counterpart for one lifted Gibbs chain, at axis-preserving prefixes.

    Valid only when the prefix composition preserves the axes (even number of
    anti-diagonal letters), where concatenation of lifts is again a lift and
    the chain's own comparison constant c = min P(i,j)/pi(j) over allowed
    transitions applies: chain mass of the strip >= c * chain mass of the
    prefix * projected chain mass of the blown interval, bracket by bracket.
    """
    if spec.d ** extension_cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{extension_cap} exceeds the enumeration cap")
    prefix = q.word_prefix
    n_anti = sum(1 for i in prefix if i >= spec.l)
    if n_anti % 2 != 0:
        raise ValueError("reverse bound applies only to axis-preserving prefixes")
    nu = kaenmaki_measure(spec, s)
    g = nu.m1 if t == 1 else nu.m2

    def log_mt(w):
        return log_cylinder_measure_mt(g, encode_tau(w, spec))

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = g.stochastic / g.stationary[None, :]
    c_chain = float(np.min(np.where(g.stochastic > 0.0, ratios, np.inf)))

    st0 = _compose_word(spec, prefix)
    alpha1 = max(st0.p, st0.q)
    horizontal = q.primary_axis is Axis.HORIZONTAL
    fx, fy = st0.fixed_point()
    center_p = fx if horizontal else fy
    strip = (center_p - q.r / 2.0, center_p + q.r / 2.0)
    mu_dec, mu_und = _enumerate_interval_mass(
        spec, st0, strip, horizontal, extension_cap, log_mass=log_mt, prefix=prefix)

    sec_x = q.secondary_projection is Projection.X
    c_s = fx if sec_x else fy
    blown = (c_s - q.r / (2.0 * alpha1), c_s + q.r / (2.0 * alpha1))
    pr_dec, pr_und = _enumerate_interval_mass(
        spec, _IDENTITY, blown, sec_x, extension_cap,
        log_mass=lambda w: 0.0 if not w else log_mt(w), prefix=())

    mass_prefix = math.exp(log_mt(prefix))
    return StripReverseResult(
        mu_lower=mu_dec, mu_upper=mu_dec + mu_und,
        rhs_lower=c_chain * mass_prefix * pr_dec,
        rhs_upper=c_chain * mass_prefix * (pr_dec + pr_und),
        chain_const=c_chain)


# -- rendering -----------------------------------------------------------------

def render_attractor(samples: SampleSet, px: int, path) -> None:
    """Write a binary PGM (P5, maxval 255) heat map of the sample points.

    Row 0 is the top of the square (y = 1); intensity is the log-scaled hit
    count.  Deterministic for a given sample set.
    """
    if not (16 <= px <= 8192):
        raise ValueError(f"px={px} must lie in [16, 8192]")
    counts = np.zeros((px, px), dtype=np.int64)
    if len(samples.points):
        cols = np.clip((samples.points[:, 0] * px).astype(np.int64), 0, px - 1)
        rows = px - 1 - np.clip((samples.points[:, 1] * px).astype(np.int64), 0, px - 1)
        np.add.at(counts, (rows, cols), 1)
    cmax = counts.max()
    if cmax > 0:
        img = np.rint(255.0 * np.log1p(counts) / np.log1p(cmax)).astype(np.uint8)
    else:
        img = counts.astype(np.uint8)
    header = f"P5\n{px} {px}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(img.tobytes())
    except OSError as e:
        raise IoFailure(str(e)) from None
