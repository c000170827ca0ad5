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
measure of a thin sub-strip of a cylinder rectangle [w] by the product of the
cylinder mass and a projected measure of the blown-up strip interval.  Both
strip oracles walk in the frame of the prefix w: f_w^-1 maps the strip onto a
slab of the unit square through the fixed point of f_w, which is the blown-up
interval itself, and each cell f_wv(Q) onto f_v(Q).  So one stopped family of
suffix cells, composed by signature_arrays level by level from the empty word
and widened by their rounding, brackets both sides in logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coding import as_word, signature_arrays, tau_arrays
from .errors import IoFailure, NoCertificate, TooFewHits, TooLarge
from .ifs import IfsSpec, check_strong_separation
from .thermo import ENUMERATION_CAP, _log_normalized, kaenmaki_measure

CSV_BLOCK_ROWS = 1 << 13  # rows per block yielded by csv_lines
EPS = float(np.finfo(float).eps)


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
    if not centers:
        raise ValueError("need at least 1 center")
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
    col = 0 if axis is Projection.X else 1
    if radii is None:
        radii = 2.0 ** np.arange(-4, -10, -1)
    if centers is None:
        centers = default_centers(samples)[:, col]
    return _fit_slopes(samples.points[:, col], list(centers), radii)


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
class StripOracleResult:
    log_mu_lower: float
    log_mu_upper: float
    log_bound: float
    covered: bool
    undecided: bool


def _frame_walk(spec: IfsSpec, prefix, rel_width: float, cap: int, log_mass):
    """Stopping-time sums of a strip query over suffix cells, in the prefix's frame.

    The strip of a nonempty prefix w is the set of points of the cylinder
    rectangle f_w(Q) whose coordinate along the primary axis (the longer
    side; vertical on ties) lies within r/2 of that coordinate of the fixed
    point of f_w, with r = rel_width * alpha1 and rel_width in (0, 1].
    f_w^-1 maps it onto the slab of the unit square of half-width
    rel_width / 2 around the same fixed point along the walk's axis: the
    primary axis when f_w preserves the axes, the other one otherwise.  That
    slab is also the strip's blown-up interval for the projected side, and
    each cell f_wv(Q) is f_v(Q) in this frame, so one stopped family of
    suffixes v serves both sides of the strip bound.

    Walks level by level from the empty word: a cell whose extent along the
    axis is inside the slab contributes and stops, a disjoint cell stops
    with nothing, and a straddling cell is extended by every letter until
    the cap, where it lands in the undecided part.  Each extent is widened
    outward by a bound on the rounding of its composition and of the slab's
    centre (zero for the empty word), so rounding can only make a cell
    straddle.  ``log_mass`` maps an (N, n) batch of words with n >= 1 to log
    masses.  Returns (covered, decided, undecided): whether the empty word's
    cell is inside the slab, and the logs of the two parts as pairs
    (sum of mass(w v), sum of mass(v)), -inf for an empty part.
    """
    prefix = np.array([as_word(prefix, spec.d)])
    if not (0.0 < rel_width <= 1.0):
        raise ValueError(f"relative strip width r/alpha1={rel_width} must lie in (0, 1]")
    if spec.d ** cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{cap} exceeds the enumeration cap")
    log_p, log_q, odd, x, y = (float(v[0]) for v in signature_arrays(prefix, spec))
    p, h = math.exp(log_p), math.exp(log_q)
    tx, ty = x - p / 2.0, y - h / 2.0  # image of the origin
    on_x = (log_p > log_q) != odd  # the longer side, the other axis when f_w swaps them
    if odd:  # f_w(u, v) = (p v + tx, h u + ty)
        k = p * h
        fx = (p * ty + tx) / (1.0 - k)
        fy = h * fx + ty
    else:
        k = p if on_x else h
        fx, fy = tx / (1.0 - p), ty / (1.0 - h)
    centre = fx if on_x else fy
    half_s = float(rel_width) / 2.0
    lo_s, hi_s = centre - half_s, centre + half_s
    slack = 8.0 * EPS * (prefix.shape[1] + 1) / (1.0 - k)  # the centre's rounding

    def log_totals(v):
        full = np.column_stack([np.repeat(prefix, len(v), axis=0), v])
        blown = log_mass(v) if v.shape[1] else np.zeros(len(v))
        return np.logaddexp.reduce([log_mass(full), blown], axis=1)

    suffixes = np.empty((1, 0), dtype=np.int64)
    decided = np.full(2, -np.inf)
    for depth in range(cap + 1):
        log_p, log_q, _, x, y = signature_arrays(suffixes, spec)
        mid, log_side = (x, log_p) if on_x else (y, log_q)
        half = np.exp(log_side) / 2.0 + (4.0 * EPS * depth + slack if depth else 0.0)
        lo, hi = mid - half, mid + half
        inside = (lo >= lo_s) & (hi <= hi_s)
        if depth == 0:
            covered = bool(inside[0])
        decided = np.logaddexp(decided, log_totals(suffixes[inside]))
        suffixes = suffixes[~inside & (hi >= lo_s) & (lo <= hi_s)]
        if depth < cap:
            suffixes = np.column_stack([np.repeat(suffixes, spec.d, axis=0),
                                        np.tile(np.arange(1, spec.d + 1), len(suffixes))])
    return covered, decided, log_totals(suffixes)


def strip_measure_oracle(spec: IfsSpec, s: float, prefix, rel_width: float,
                         extension_cap: int) -> StripOracleResult:
    """Bracket both sides of the strip upper bound over one stopped family.

    The strip mass is bracketed by the measure of the suffix cells inside the
    slab, nu([w v]); the bound is C * nu([w]) * (the upper bracket of the
    projected mass of the slab, the sum of nu([v]) over the same cells),
    where C = up / lo^2 comes from the two-sided cylinder envelope and
    dominates every ratio nu([uv]) / (nu([u]) nu([v])).  Everything is in
    logs: C alone can overflow and the masses underflow at tiny ratios.
    """
    if not check_strong_separation(spec).strong_separation:
        raise NoCertificate("strip enumeration requires certified strong separation")
    nu = kaenmaki_measure(spec, s)
    log_lo, log_up = nu.log_envelope()
    covered, decided, undecided = _frame_walk(spec, prefix, rel_width, extension_cap,
                                              nu.log_cylinder_batch)
    log_mu, log_proj = np.logaddexp(decided, undecided).tolist()
    return StripOracleResult(
        log_mu_lower=float(decided[0]), log_mu_upper=log_mu,
        log_bound=log_up - 2.0 * log_lo + nu.log_cylinder(prefix) + log_proj,
        covered=covered, undecided=bool(undecided[0] > decided[0]))


@dataclass(frozen=True)
class StripReverseResult:
    log_mu_lower: float
    log_mu_upper: float
    log_rhs_lower: float
    log_rhs_upper: float


def strip_reverse_oracle(spec: IfsSpec, s: float, prefix, rel_width: float,
                         extension_cap: int, t: int = 1) -> StripReverseResult:
    """Lower-bound counterpart for one lifted Gibbs chain, at axis-preserving prefixes.

    Valid only when the prefix composition preserves the axes (even number of
    anti-diagonal letters), where concatenation of lifts is again a lift and
    the chain's own comparison constant c = min P(i,j)/pi(j) over allowed
    transitions (P(i,j) depends on j alone) applies: chain mass of the strip
    >= c * chain mass of the prefix * projected chain mass of the blown
    interval, bracket by bracket, over the same stopped family.  In logs.
    """
    nu = kaenmaki_measure(spec, s)
    g = nu.m1 if t == 1 else nu.m2

    def log_mt(words):
        return g.log_cylinder_batch(tau_arrays(words, spec) - 1)

    log_c = float(np.min(g.log_rows.ravel() - g.log_stationary))
    _, decided, undecided = _frame_walk(spec, prefix, rel_width, extension_cap, log_mt)
    if sum(i >= spec.l for i in prefix) % 2:  # a valid word now: the walk checked it
        raise ValueError("reverse bound applies only to axis-preserving prefixes")
    lower, upper = decided.tolist(), np.logaddexp(decided, undecided).tolist()
    log_rhs = log_c + float(log_mt(np.array([prefix]))[0])
    return StripReverseResult(log_mu_lower=lower[0], log_mu_upper=upper[0],
                              log_rhs_lower=log_rhs + lower[1], log_rhs_upper=log_rhs + upper[1])


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
