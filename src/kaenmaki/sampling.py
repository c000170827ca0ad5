"""Monte Carlo realization of the equilibrium measure and desk-scale verification.

Sampling draws words with the exact cylinder law of the measure: pick one of
the two Gibbs chains with its lift mass, start the chain in the unshifted
half of the doubled alphabet (stationary law conditioned there), run it for
the requested depth, and reduce symbols modulo d.  Points are the composed
maps applied to the center of the unit square (composed, with the side
lengths, by coding.signature_arrays), which pins every point inside its
cylinder rectangle up to the reported accuracy bound.

All randomness flows through a counter-based generator seeded once per
sample set, with a fixed draw schedule (one branch draw, one initial-state
draw, then one transition draw per step, each vectorized over points and
inverting a cumulative row by one gather per threshold), so identical inputs
give bit-identical outputs.  Words are column-major; CSV rows are built by column.

Local dimensions are estimated on sup-metric squares: the empirical measure
of the square of half-side r around a center is the fraction of sample
points within sup-distance r, and the slope of log measure against log r is
the estimate.

The strip oracle checks, at finite enumeration depth, the upper bound on the
measure of a thin sub-strip of a cylinder rectangle by the product of the
cylinder mass and a projected measure of the blown-up strip interval.  Both
strip oracles enumerate level by level, with cylinder rectangles from
signature_arrays and batch log masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coding import as_word, product_signature, signature_arrays, tau_arrays
from .errors import InternalMismatch, IoFailure, NoCertificate, TooFewHits, TooLarge
from .ifs import IfsSpec, check_strong_separation
from .thermo import ENUMERATION_CAP, _log_normalized, kaenmaki_measure

CSV_BLOCK_ROWS = 1 << 13  # rows per block yielded by csv_lines


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class Projection(Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class SampleSet:
    """Points drawn from the measure, with their generating words.

    words is an (N, depth) array over 1..d, column-major from sample_symbolic,
    of dtype np.min_scalar_type(2d) (uint8 for d <= 127), so that its tau
    lift (symbols up to 2d) fits the same dtype;
    points is (N, 2) in the closed unit square, each the centre of its word's
    cylinder rectangle; accuracy is sqrt(2)/2 times the longest side of those
    rectangles, max(p, q) over the set, so it bounds the Euclidean (hence
    also the sup) distance from each point to every address extending its word.
    """

    points: np.ndarray
    words: np.ndarray
    seed: int
    depth: int
    accuracy: float

    def __post_init__(self):
        self.points.setflags(write=False)
        self.words.setflags(write=False)


def _lifted_columns(nu, count: int, depth: int, rng):
    """Yield the 0-based lifted states of ``count`` sampled words, column by column.

    Follows the draw schedule: one branch draw, one initial-state draw, then
    one transition draw per further column.  Rows of one class c of a chain
    are equal and move into half c, so the next state is c * d + j: c is the
    anti-diagonal parity so far, and j = #{k < d - 1 : u > row[k]} is the inverse
    CDF of the (nondecreasing) cumulative (chain, c) row at u, capped at d - 1.
    """
    d = nu.spec.d
    chain = (rng.random(count) >= nu.tau_start_mass()).astype(np.int64)  # 0: m1, 1: m2
    # cumulative rows by key, one column each: 0, 1 the initial laws of m1, m2;
    # 2 + 2 chain + class the chain's row of that class
    chains = (nu.m1, nu.m2)
    laws = ([_log_normalized(g.log_stationary[:d]) for g in chains]
            + [row for g in chains for row in g.log_rows])
    cum = np.cumsum(np.exp(laws), axis=1).T.copy()
    key, cls = chain, np.zeros(count, dtype=np.int64)
    for _ in range(depth):
        u = rng.random(count)
        j = np.zeros(count, dtype=np.int64)
        for thresholds in cum[:d - 1]:
            j += u > thresholds[key]
        yield cls * d + j
        cls ^= j >= nu.spec.l - 1
        key = 2 + 2 * chain + cls


def sample_symbolic(spec: IfsSpec, s: float, count: int, depth: int, seed: int) -> SampleSet:
    """Draw ``count`` words of length ``depth`` with exact cylinder law, plus points."""
    if depth < 1 or count < 1:
        raise ValueError("count and depth must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    words = np.empty((count, depth), dtype=np.min_scalar_type(2 * spec.d), order="F")
    for t, state in enumerate(_lifted_columns(kaenmaki_measure(spec, s), count, depth, rng)):
        words[:, t] = state % spec.d + 1  # decode the lift: reduce mod d into 1..d
    log_p, log_q, _, x, y = signature_arrays(words, spec)
    accuracy = float(np.exp(np.maximum(log_p, log_q).max()) * math.sqrt(2.0) / 2.0)
    return SampleSet(points=np.column_stack([x, y]), words=words, seed=int(seed),
                     depth=int(depth), accuracy=accuracy)


def csv_lines(samples: SampleSet):
    """Yield the x,y,word header, then blocks of CSV_BLOCK_ROWS rows built column
    by column: the repr of each coordinate, and the word's digit string, sliced
    from one ASCII buffer, or joined by '-' from a symbol table when a symbol
    has two digits (d >= 10): 4-10-3."""
    words = samples.words
    symbols = np.array([str(k) for k in range(words.max(initial=0) + 1)], dtype=object)
    yield "x,y,word\n"
    for lo in range(0, len(words), CSV_BLOCK_ROWS):
        block, n = words[lo:lo + CSV_BLOCK_ROWS], words.shape[1]
        if len(symbols) > 10:
            col = map("-".join, symbols[block].tolist())
        else:
            text = (block + ord("0")).astype(np.uint8).tobytes().decode("ascii")
            col = (text[i:i + n] for i in range(0, len(text), n))
        x, y = samples.points[lo:lo + CSV_BLOCK_ROWS].T.tolist()
        yield "\n".join(map(",".join, zip(map(repr, x), map(repr, y), col))) + "\n"


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
    sig = product_signature(prefix, spec)
    if not (0.0 < r <= sig.alpha1 * (1.0 + 1e-12)):
        raise ValueError(f"strip width r={r} must lie in (0, alpha1={sig.alpha1}]")
    horizontal = sig.p > sig.q
    primary = Axis.HORIZONTAL if horizontal else Axis.VERTICAL
    if not sig.antidiagonal_parity:
        secondary = Projection.X if horizontal else Projection.Y
    else:
        secondary = Projection.Y if horizontal else Projection.X
    return StripQuery(word_prefix=prefix, r=float(r),
                      primary_axis=primary, secondary_projection=secondary)


@dataclass(frozen=True)
class StripOracleResult:
    mu_lower: float
    mu_upper: float
    log_mu_upper: float
    bound: float
    log_bound: float
    proj_lower: float
    proj_upper: float
    submult_const: float
    covered: bool
    undecided: bool


def _strip_setup(spec: IfsSpec, q: StripQuery):
    """(parity, primary extent, strip, blown-up interval) of a query's prefix.

    The strip has half-width r/2 around the primary coordinate of the fixed
    point of the prefix's composed map, and the blown-up interval half-width
    r / (2 alpha1) around its secondary coordinate.
    """
    log_p, log_q, parity, x, y = signature_arrays(np.array([q.word_prefix]), spec)
    p, h, cx, cy = (float(v[0]) for v in (np.exp(log_p), np.exp(log_q), x, y))
    tx, ty = cx - p / 2.0, cy - h / 2.0  # image of the origin
    if parity[0]:
        fx = (p * ty + tx) / (1.0 - p * h)
        fy = h * fx + ty
    else:
        fx, fy = tx / (1.0 - p), ty / (1.0 - h)
    c, side, fp = (cx, p, fx) if q.primary_axis is Axis.HORIZONTAL else (cy, h, fy)
    fs = fx if q.secondary_projection is Projection.X else fy
    half = q.r / (2.0 * max(p, h))
    return (bool(parity[0]), (c - side / 2.0, c + side / 2.0),
            (fp - q.r / 2.0, fp + q.r / 2.0), (fs - half, fs + half))


def _interval_mass(spec: IfsSpec, prefix, interval, horizontal: bool, cap: int, log_mass):
    """Stopping-time sum of word masses over cells against an interval, in logs.

    Walks the extensions of ``prefix`` level by level: a cell whose extent
    along the chosen axis is inside the interval contributes its mass and
    stops, a disjoint cell stops with nothing, and a straddling cell is
    extended by every letter until the cap, where it lands in the undecided
    part of the bracket.  ``log_mass`` maps an (N, n) batch of words with
    n >= 1 to log masses; the empty word has mass 1.  Returns the logs of
    (decided, undecided), -inf for an empty part.
    """
    def log_total(words):
        if words.shape[1] == 0:
            return 0.0 if len(words) else -np.inf
        return float(np.logaddexp.reduce(log_mass(words)))

    lo_i, hi_i = interval
    words = np.array([prefix], dtype=np.int64)
    decided = -np.inf
    for depth in range(cap + 1):
        log_p, log_q, _, x, y = signature_arrays(words, spec)
        centre, side = (x, np.exp(log_p)) if horizontal else (y, np.exp(log_q))
        lo, hi = centre - side / 2.0, centre + side / 2.0
        inside = (lo >= lo_i) & (hi <= hi_i)
        decided = float(np.logaddexp(decided, log_total(words[inside])))
        words = words[~inside & (hi >= lo_i) & (lo <= hi_i)]
        if depth < cap:
            words = np.column_stack([np.repeat(words, spec.d, axis=0),
                                     np.tile(np.arange(1, spec.d + 1), len(words))])
    return decided, log_total(words)


def strip_measure_oracle(spec: IfsSpec, s: float, q: StripQuery,
                         extension_cap: int) -> StripOracleResult:
    """Check the strip upper bound by exhaustive enumeration of both sides.

    The strip mass is bracketed by summing the measure over extension cells
    inside the strip; the bound is C * nu([prefix]) * (projected mass of the
    strip interval blown up by 1/alpha1, enumerated on the interval system),
    where C = up / lo^2 comes from the two-sided cylinder envelope and
    dominates every ratio nu([uv]) / (nu([u]) nu([v])).  The upper bracket of
    the left side never exceeds the bound built from the upper bracket of the
    right side.  Both sides are formed and compared in logs: C alone can
    overflow and the masses underflow at tiny ratios; the linear fields are
    their exp.
    """
    if spec.d ** extension_cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{extension_cap} exceeds the enumeration cap")
    if not check_strong_separation(spec).strong_separation:
        raise NoCertificate("strip enumeration requires certified strong separation")
    nu = kaenmaki_measure(spec, s)
    prefix = q.word_prefix
    log_lo, log_up = nu.log_envelope()
    log_c_sub = log_up - 2.0 * log_lo
    log_mass = nu.log_cylinder(prefix)

    _, (cyl_lo, cyl_hi), strip, blown = _strip_setup(spec, q)
    covered = strip[0] <= cyl_lo and cyl_hi <= strip[1]
    if covered:
        (mu_dec, mu_und), (pr_dec, pr_und) = (log_mass, -np.inf), (0.0, -np.inf)
    else:
        mu_dec, mu_und = _interval_mass(spec, prefix, strip, q.primary_axis is Axis.HORIZONTAL,
                                        extension_cap, nu.log_cylinder_batch)
        pr_dec, pr_und = _interval_mass(spec, (), blown, q.secondary_projection is Projection.X,
                                        extension_cap, nu.log_cylinder_batch)
    log_mu, log_proj = np.logaddexp([mu_dec, pr_dec], [mu_und, pr_und]).tolist()
    log_bound = log_c_sub + log_mass + log_proj
    if not covered and log_mu > log_bound + np.log1p(1e-9):
        raise InternalMismatch(
            f"log strip mass {log_mu!r} exceeds its log product bound {log_bound!r}; "
            "the stopped families on the two sides disagree")
    with np.errstate(over="ignore"):  # C may overflow where the logs do not
        mu_lower, mu_upper, bound, proj_lower, proj_upper, c_sub = np.exp(
            [mu_dec, log_mu, log_bound, pr_dec, log_proj, log_c_sub]).tolist()
    return StripOracleResult(
        mu_lower=mu_lower, mu_upper=mu_upper, log_mu_upper=log_mu,
        bound=bound, log_bound=log_bound, proj_lower=proj_lower, proj_upper=proj_upper,
        submult_const=c_sub, covered=covered, undecided=mu_und > mu_dec)


@dataclass(frozen=True)
class StripReverseResult:
    mu_lower: float
    mu_upper: float
    log_mu_lower: float
    log_mu_upper: float
    rhs_lower: float
    rhs_upper: float
    log_rhs_lower: float
    log_rhs_upper: float
    chain_const: float


def strip_reverse_oracle(spec: IfsSpec, s: float, q: StripQuery, extension_cap: int,
                         t: int = 1) -> StripReverseResult:
    """Lower-bound counterpart for one lifted Gibbs chain, at axis-preserving prefixes.

    Valid only when the prefix composition preserves the axes (even number of
    anti-diagonal letters), where concatenation of lifts is again a lift and
    the chain's own comparison constant c = min P(i,j)/pi(j) over allowed
    transitions (P(i,j) depends on j alone) applies: chain mass of the strip
    >= c * chain mass of the prefix * projected chain mass of the blown
    interval, bracket by bracket.  Formed in logs; the linear fields are their exp.
    """
    if spec.d ** extension_cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{extension_cap} exceeds the enumeration cap")
    prefix = q.word_prefix
    odd, _, strip, blown = _strip_setup(spec, q)
    if odd:
        raise ValueError("reverse bound applies only to axis-preserving prefixes")
    nu = kaenmaki_measure(spec, s)
    g = nu.m1 if t == 1 else nu.m2

    def log_mt(words):
        return g.log_cylinder_batch(tau_arrays(words, spec) - 1)

    log_c = float(np.min(g.log_rows.ravel() - g.log_stationary))
    mu_dec, mu_und = _interval_mass(
        spec, prefix, strip, q.primary_axis is Axis.HORIZONTAL, extension_cap, log_mt)
    pr_dec, pr_und = _interval_mass(
        spec, (), blown, q.secondary_projection is Projection.X, extension_cap, log_mt)
    log_mu, log_proj = np.logaddexp([mu_dec, pr_dec], [mu_und, pr_und]).tolist()
    log_rhs = log_c + float(log_mt(np.array([prefix]))[0])
    logs = dict(mu_lower=mu_dec, mu_upper=log_mu,
                rhs_lower=log_rhs + pr_dec, rhs_upper=log_rhs + log_proj)
    return StripReverseResult(**{k: float(np.exp(v)) for k, v in logs.items()},
                              **{f"log_{k}": v for k, v in logs.items()},
                              chain_const=float(np.exp(log_c)))


# -- rendering -----------------------------------------------------------------

def render_attractor(samples: SampleSet, px: int, path) -> None:
    """Write a binary PGM (P5, maxval 255) heat map of the sample points.

    Row 0 is the top of the square (y = 1); intensity is the log-scaled hit
    count.  Deterministic for a given sample set.
    """
    if not (16 <= px <= 8192):
        raise ValueError(f"px={px} must lie in [16, 8192]")
    cols = np.clip((samples.points[:, 0] * px).astype(np.int64), 0, px - 1)
    rows = px - 1 - np.clip((samples.points[:, 1] * px).astype(np.int64), 0, px - 1)
    counts = np.bincount(rows * px + cols, minlength=px * px).reshape(px, px)
    img = np.rint(255.0 * np.log1p(counts) / np.log1p(max(counts.max(), 1))).astype(np.uint8)
    header = f"P5\n{px} {px}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(img.tobytes())
    except OSError as e:
        raise IoFailure(str(e)) from None
