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
inverting a cumulative row by one take per threshold, counted into the word
column in place), so identical inputs give bit-identical outputs.  Words are
column-major.  A CSV coordinate is exactly its repr, from an integer
shortest-digit kernel on [1e-4, 1) and from repr elsewhere.

Local dimensions are estimated on sup-metric squares: the empirical measure
of the square of half-side r around a center is the fraction of sample
points within sup-distance r, and the slope of log measure against log r is
the estimate.  The points are sorted by x once per sample set; each center
tests only the run of sorted points whose x lies within the largest radius
(widened by a margin that covers rounding), so the counts are the integers
a pass over all points gives.  The box count sorts each scale's cell keys
and counts the changes between neighbours.

The strip oracles check, at finite enumeration depth, the upper bound on the
measure of a thin sub-strip of a cylinder rectangle [w] by the cylinder mass
times a projected measure of the blown-up strip interval, and its reverse, in
logs over one stopped family of suffix cells walked in the prefix's frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

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
    cylinder rectangle, column-major from sample_symbolic (the x and y columns
    are each contiguous); accuracy is sqrt(2)/2 times the longest side of those
    rectangles, max(p, q) over the set, so it bounds the Euclidean (hence
    also the sup) distance from each point to every address extending its word.
    sorted_by_x, built on first use, keeps the x and y columns in the order
    that sorts x, 2 x 8 N bytes for the set's lifetime.
    """

    points: np.ndarray
    words: np.ndarray
    seed: int
    depth: int
    accuracy: float

    def __post_init__(self):
        self.points.setflags(write=False)
        self.words.setflags(write=False)

    @cached_property
    def sorted_by_x(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y columns of points, read-only, in the order np.argsort gives x."""
        order = np.argsort(self.points[:, 0])
        columns = tuple(col.take(order) for col in self.points.T)
        for col in columns:
            col.setflags(write=False)
        return columns


def _draw_words(nu, count: int, depth: int, rng) -> np.ndarray:
    """(count, depth) words over 1..d, column-major, of dtype np.min_scalar_type(2d).

    Follows the draw schedule: one branch draw, one initial-state draw, then
    one transition draw per further column.  Rows of one class of a chain are
    equal, so a column's letter is 1 + #{k < d - 1 : u > row[k]}, the inverse
    CDF of the (nondecreasing) cumulative row of (chain, class) at u, capped at
    d; the class is the anti-diagonal parity of the letters before it.
    """
    d = nu.spec.d
    dtype = np.min_scalar_type(2 * d)  # it also holds every tau-lifted symbol
    chain = (rng.random(count) >= nu.tau_start_mass()).astype(dtype)  # 0: m1, 1: m2
    # cumulative rows by key, one column each, all m1's, as m2 = m1 o sigma: 0, 1 the
    # initial laws on its two halves; 2 + (chain ^ class) its row of that class
    laws = np.vstack([_log_normalized(nu.m1.log_stationary.reshape(2, d)), nu.m1.log_rows])
    cum = np.cumsum(np.exp(laws), axis=1).T.copy()
    words = np.ones((count, depth), dtype=dtype, order="F")
    key, cls = chain, np.zeros(count, dtype=dtype)
    for col in words.T:
        u = rng.random(count)
        for thresholds in cum[:d - 1]:
            col += u > thresholds.take(key)
        cls ^= col >= nu.spec.l
        key = 2 + (chain ^ cls)
    return words


def sample_symbolic(spec: IfsSpec, s: float, count: int, depth: int, seed: int) -> SampleSet:
    """Draw ``count`` words of length ``depth`` with exact cylinder law, plus points."""
    if depth < 1 or count < 1:
        raise ValueError("count and depth must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} must lie in [0, 2^64)")
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    words = _draw_words(kaenmaki_measure(spec, s), count, depth, rng)
    log_p, log_q, _, x, y = signature_arrays(words, spec)
    accuracy = float(np.exp(np.maximum(log_p, log_q).max()) * math.sqrt(2.0) / 2.0)
    del log_p, log_q, _  # before the points' copy, which would otherwise set the peak
    return SampleSet(points=np.stack([x, y]).T, words=words, seed=int(seed),
                     depth=int(depth), accuracy=accuracy)


# by k = -e - 52 of x = m 2^e (_repr_matrix): places q, shift s = 2 - q - e, 5^q and the
# half-width 2 5^q / 2^s as quotient and remainder; the ASCII of 0000..9999, then "0.00";
# and, in row 20 q + j, the columns to keep: "0." and the places 10^(q-1)..10^j of 10^21..1
_BY_K = np.array([(q, 54 + k - q, 5 ** q, *divmod(2 * 5 ** q, 1 << 54 + k - q)) for k, q in
                  enumerate(len(str(1 << k)) + 17 for k in range(15))], np.uint64).T
_PAIRS = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(), np.uint8).reshape(100, 2)
_DIGITS4 = np.vstack([np.hstack([_PAIRS.repeat(100, 0), np.tile(_PAIRS, (100, 1))]),
                      np.frombuffer(b"0.00", np.uint8)]).view(np.uint32).ravel()
_KEEP = np.frombuffer(b"".join(b"\xff\xff" + bytes(22 - q) + b"\xff" * (q - j) + bytes(min(j, q))
                               for q in range(23) for j in range(20)), np.uint8).reshape(460, 24)


def _repr_matrix(values: np.ndarray) -> np.ndarray:
    """repr of each float64 as a NUL-padded row of 24 bytes, the longest repr.

    Exact integer kernel for x = m 2^e in [1e-4, 1), m in (2^52, 2^53): at q =
    ceil(-(e + 52) log10 2) + 17 places, x 10^q = 4 m 5^q / 2^s (s = 2 - q - e)
    is an exact quotient and remainder of a 32-bit-limb product below 2^107, and
    the rounding interval, ends in it for even m, is x 10^q -+ 2 5^q / 2^s.  The
    largest 10^j with a multiple in it fixes the digits, and the multiple nearest
    x 10^q is repr's; ties between two nearest, and other values, take repr."""
    u64, low32 = np.uint64, np.uint64(2 ** 32 - 1)
    bits = values.view(u64)
    m = (bits & u64((1 << 52) - 1)) | u64(1 << 52)
    k = np.minimum(u64(1023) - (bits >> u64(52)), u64(14))  # clipped outside [1e-4, 1)
    q, s, five, half, half_r = _BY_K.take(k, axis=1)
    a1, a0, b1, b0 = m >> u64(30), (m << u64(2)) & low32, five >> u64(32), five & low32
    low = a0 * b0
    mid = a1 * b0 + a0 * b1 + (low >> u64(32))
    high, low = a1 * b1 + (mid >> u64(32)), (mid << u64(32)) | (low & low32)
    x, x_r = (high << (u64(64) - s)) | (low >> s), low & ((u64(1) << s) - u64(1))
    odd, up_r = (m & u64(1)).astype(bool), x_r + half_r
    lo = x - half + (x_r > half_r) + ((x_r == half_r) & odd)  # the interval's integers
    hi = x + half + (up_r >> s) - ((up_r == u64(1) << s) & odd)
    j, t = np.ones(len(values), u64), 2  # every interval is over 22 wide: j >= 1
    while (has := hi // u64(10 ** t) * u64(10 ** t) >= lo).any():
        j, t = j + has, t + 1
    r = x % (p := u64(10) ** j)
    c = x - r + p * ((r > p >> u64(1)) | ((r == p >> u64(1)) & (x_r != 0)))
    c = np.where(c > hi, c - p, np.where(c < lo, c + p, c))
    groups = np.full((len(values), 6), 10 ** 4, np.intp)
    for i in range(5, 0, -1):  # c in base 10^4, after "0.00"
        groups[:, i], c = c - c // u64(10 ** 4) * u64(10 ** 4), c // u64(10 ** 4)
    out = _DIGITS4.take(groups).view(np.uint8) & _KEEP.take(q * u64(20) + j, axis=0)
    slow = ~((values >= 1e-4) & (values < 1.0) & (bits << u64(12) != 0))  # m = 2^52: lopsided
    slow |= (r == p >> u64(1)) & (x_r == 0)
    out[slow] = np.array([*map(repr, values[slow].tolist())], "S24").view(np.uint8).reshape(-1, 24)
    return out


def csv_lines(samples: SampleSet):
    """Yield the x,y,word header, then blocks of CSV_BLOCK_ROWS rows: one uint8
    matrix of NUL-padded fields per block, made text by dropping the NULs.  A
    coordinate is exactly its repr: _repr_matrix's kernel on [1e-4, 1), repr for
    0, 1, below 1e-4, NaN, power-of-two significands and ties.  Symbols are
    right-aligned in the largest's digits, '-' between them if it has two: 4-10-3."""
    words = samples.words
    top = int(words.max(initial=0))
    width, sep = len(str(top)), int(top >= 10)
    yield "x,y,word\n"
    for lo in range(0, len(words), CSV_BLOCK_ROWS):
        block, points = words[lo:lo + CSV_BLOCK_ROWS], samples.points[lo:lo + CSV_BLOCK_ROWS]
        cells = np.full(block.shape + (width + sep,), ord("-"), np.uint8)
        for k in range(width):  # the digit of 10^k, NUL left of a symbol's leading one
            digit = block // 10 ** k % 10 + ord("0")
            cells[..., width - 1 - k] = np.where(block >= 10 ** k, digit, 0) if k else digit
        comma, newline = (np.full((len(block), 1), ord(c), np.uint8) for c in ",\n")
        row = np.hstack([_repr_matrix(points[:, 0]), comma, _repr_matrix(points[:, 1]), comma,
                         cells.reshape(len(block), -1)[:, :cells[0].size - sep], newline])
        yield row.tobytes().translate(None, b"\0").decode("ascii")


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


def _count_fractions(columns: list[np.ndarray], center, radii: np.ndarray) -> np.ndarray:
    """Fraction of the points within sup-distance r of center, for each r in radii.

    columns are the coordinates of the points, each in the order that sorts
    the first.  A point with fl(|x - c|) <= R, the largest radius, has
    |x - c| <= R (1 + eps) + 2^-1074 exactly, and the margin
    m = 2^-20 (|c| + R) + 2^-1022 covers that and the rounding of the window
    [c - R - m, c + R + m].  So the same test as on all points runs on the
    points in that window alone and gives the same counts.
    """
    coords = np.atleast_1d(center)
    cx, big = float(coords[0]), float(radii.max())
    half = big + 2.0 ** -20 * (abs(cx) + big) + 2.0 ** -1022
    lo, hi = columns[0].searchsorted([cx - half, cx + half])
    dist = np.abs(columns[0][lo:hi] - coords[0])
    for col, c in zip(columns[1:], coords[1:], strict=True):
        dist = np.maximum(dist, np.abs(col[lo:hi] - c))
    counts = np.array([np.count_nonzero(dist <= r) for r in radii], dtype=float)
    if (counts < 50).any():
        raise TooFewHits(
            f"fewer than 50 sample hits at center {center} for the radius grid; "
            "enlarge the radii or the sample count")
    return counts / columns[0].size


def _scale_grid(values, name: str, floor: float = 0.0) -> np.ndarray:
    """values as floats: at least 3 of them, each finite and above floor."""
    grid = np.asarray(values, dtype=float)
    if grid.size < 3 or not (np.isfinite(grid) & (grid > floor)).all():
        raise ValueError(f"need at least 3 {name}, each finite and above {floor!r}; "
                         f"got {grid.tolist()}")
    return grid


def _fit_slopes(columns, centers, radii) -> tuple[float, float]:
    """Slope and stderr over centers; columns as _count_fractions takes them."""
    radii = _scale_grid(radii, "radii")
    if not centers:
        raise ValueError("need at least 1 center")
    log_r = np.log(radii)
    slopes = []
    for c in centers:
        frac = _count_fractions(columns, c, radii)
        slopes.append(float(np.polyfit(log_r, np.log(frac), 1)[0]))
    return _slope_with_stderr(slopes)


def estimate_local_dimension(samples: SampleSet, centers, radii) -> tuple[float, float]:
    """Average slope of log empirical square measure against log radius.

    Raises TooFewHits when any (center, radius) pair captures fewer than 50
    sample points, which marks the radius grid as unusable.
    """
    return _fit_slopes(samples.sorted_by_x, list(centers), radii)


def default_centers(samples: SampleSet, k: int = 20) -> np.ndarray:
    """Deterministic center selection: evenly strided sample points."""
    idx = np.linspace(0, len(samples.points) - 1, k).astype(np.int64)
    return samples.points[idx]


def estimate_projected_dim(samples: SampleSet, axis: Projection,
                           centers=None, radii=None) -> tuple[float, float]:
    """Local dimension estimate for the 1-D projection of the sample points.

    On Projection.X this measures pi_x nu, a mixture of the two chains' parts:
    under the projection certificate the m1 part has dimension h/chi1, and the
    m2 part, whose x-sides contract at rate chi2, contributes at most h/chi2.
    """
    col = 0 if axis is Projection.X else 1
    if radii is None:
        radii = 2.0 ** np.arange(-4, -10, -1)
    if centers is None:
        centers = default_centers(samples)[:, col]
    columns = samples.sorted_by_x[:1] if col == 0 else [np.sort(samples.points[:, 1])]
    return _fit_slopes(columns, list(centers), radii)


def box_count(samples: SampleSet, scales) -> float:
    """Slope of log occupied-box count against log inverse scale."""
    scales = _scale_grid(scales, "scales", 2.0 ** -31)  # cell indices fit the keys' 32 bits
    x, y = samples.points.T
    cell, keys, low = np.empty(len(x)), np.empty(len(x), np.int64), np.empty(len(x), np.int64)
    counts = []
    for sc in scales:  # floor's float cast to int64, as astype casts it
        np.floor(np.divide(x, sc, out=cell), out=keys, casting="unsafe")
        keys <<= 32
        np.floor(np.divide(y, sc, out=cell), out=low, casting="unsafe")
        low &= 0xFFFFFFFF
        keys |= low
        keys.sort()  # then count the first key and each key unlike the one before it
        counts.append(keys[:1].size + np.count_nonzero(keys[1:] != keys[:-1]))
    return float(np.polyfit(np.log(1.0 / scales), np.log(counts), 1)[0])


# -- primary strips ------------------------------------------------------------

@dataclass(frozen=True)
class StripOracleResult:
    log_mu_lower: float
    log_mu_upper: float
    log_bound: float
    covered: bool
    undecided: bool


@np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
def _frame_walk(spec: IfsSpec, prefix, rel_width: float, cap: int, g, halves):
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
    axis is inside the slab contributes and stops, a disjoint cell stops with
    nothing, and a straddling cell is extended by every letter until the cap,
    where it lands in the undecided part.  f_w is composed once, in
    Fractions: its exact sides pick the primary axis, and its exact fixed
    point decides the empty word's cover and, rounded, gives the slab's
    edges.  A cell v is its extent [lo, lo + side] on the axis, its parity
    and, per chain, the log masses of the lifts of w v and v: chain h of
    halves is g started in half h, which reads g's two halves swapped if h is
    1 (so m1's halves (0, 1) are m1 and m2 = m1 o sigma).  Appending j,
    f_vj = f_v o f_j, takes (offset, ratio) = (tx_j, a_j) or (ty_j, b_j) on
    the axis f_v maps onto the walk's: lo += side * offset, side *= ratio,
    parity ^= anti_j; the w v sums add the chain's log row at j + d (w's
    parity xor v's), the v sums the one at j + d v's parity (the stationary
    law at v's first letter).  With u = EPS / 2 and n letters, side is within
    (n - 1) u relatively, and lo + side, the sum of the terms side * offset
    and the last side, is at most 1, as each letter's offset + ratio is.  So
    both edges, widened, are within (2n + 1) u < 4 EPS n, the widening, to
    first order for n >= 1, and slack more than covers the slab edges'
    rounding: rounding only makes a cell straddle.  Returns
    (covered, log_w, decided, undecided): whether the empty word's exact cell
    [0, 1] is inside the slab (its v mass: every lift), per chain the log
    mass of w's lift, and the logs of the two parts as pairs (sum of
    mass(w v), sum of mass(v)), -inf for an empty part.
    """
    prefix = np.array([as_word(prefix, spec.d)])
    if not (0.0 < rel_width <= 1.0):
        raise ValueError(f"relative strip width r/alpha1={rel_width} must lie in (0, 1]")
    if spec.d ** cap > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{cap} exceeds the enumeration cap")
    p, h, tx, ty, odd_w = Fraction(1), Fraction(1), Fraction(0), Fraction(0), False
    for m in map(spec.map, reversed(prefix[0].tolist())):  # f_w exactly, prepending each map
        a, b, ox, oy = map(Fraction, (m.a, m.b, m.tx, m.ty))
        p, h, tx, ty = (a * h, b * p, a * ty + ox, b * tx + oy) if m.anti else (
            a * p, b * h, a * tx + ox, b * ty + oy)
        odd_w ^= m.anti
    on_x = (p > h) != odd_w  # the longer side, the other axis when f_w swaps them
    if odd_w:  # f_w(u, v) = (p v + tx, h u + ty)
        k = p * h
        fx = (p * ty + tx) / (1 - k)
        fy = h * fx + ty
    else:
        k = p if on_x else h
        fx, fy = tx / (1 - p), ty / (1 - h)
    centre, half = fx if on_x else fy, Fraction(rel_width) / 2
    lo_s, hi_s = float(centre - half), float(centre + half)
    slack = 8.0 * EPS * (prefix.shape[1] + 1) / (1.0 - float(k))  # the slab's rounding

    swap = np.array(halves)[:, None] ^ np.arange(2)  # per chain, g's half read as each half
    lifts = tau_arrays(prefix, spec) - 1 + spec.d * swap[:, :1]  # w's lift started in half h
    log_w = g.log_cylinder_batch(lifts % (2 * spec.d))
    rows = g.log_rows[swap]  # (chain, half, letter)
    first = g.log_stationary.reshape(2, -1)[swap]  # for v's first letter
    if centre - half <= 0 and 1 <= centre + half:  # covered by the empty word: every lift
        log_u = np.logaddexp.reduce(first[:, 0], axis=1)
        return True, log_w, np.stack([log_w, log_u], axis=1), np.full((len(halves), 2), -np.inf)
    anti = np.arange(spec.d) >= spec.l - 1
    # (a, b) and (tx, ty), each by v's parity: the walk's axis, then the other one
    ratios, offsets = np.array([(spec.a, spec.b), (spec.tx, spec.ty)])[:, [1 - on_x, on_x]]
    lo, side, odd, decided = np.zeros(1), np.ones(1), np.zeros(1, dtype=np.intp), -np.inf
    sums = np.stack([log_w, np.zeros_like(log_w)], axis=1)[..., None]  # (chain, w v | v, cell)
    for depth, widen in enumerate(4.0 * EPS * np.arange(cap + 1) + slack):
        lo_c, hi_c = lo - widen, lo + side + widen
        inside = (lo_c >= lo_s) & (hi_c <= hi_s)
        decided = np.logaddexp(decided, np.logaddexp.reduce(sums[..., inside], axis=2))
        keep = ~inside & (hi_c >= lo_s) & (lo_c <= hi_s)
        lo, side, odd, sums = lo[keep], side[keep], odd[keep], sums[..., keep]
        if depth < cap:  # children follow their parent in letter order
            lo = (lo[:, None] + side[:, None] * offsets[odd]).ravel()
            side = (side[:, None] * ratios[odd]).ravel()
            step = np.stack([rows[:, odd ^ odd_w], (rows if depth else first)[:, odd]], axis=1)
            sums = (sums[..., None] + step).reshape(len(halves), 2, -1)
            odd = (odd[:, None] ^ anti).ravel()
    return False, log_w, decided, np.logaddexp.reduce(sums, axis=2)


@np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
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
    covered, log_w, *parts = _frame_walk(spec, prefix, rel_width, extension_cap, nu.m1, (0, 1))
    decided, undecided = (np.logaddexp(*part) for part in parts)  # nu = m1 + m2
    log_mu, log_proj = np.logaddexp(decided, undecided).tolist()
    return StripOracleResult(
        log_mu_lower=float(decided[0]), log_mu_upper=log_mu,
        log_bound=log_up - 2.0 * log_lo + float(np.logaddexp(*log_w)) + log_proj,
        covered=covered, undecided=bool(undecided[0] > decided[0]))


@dataclass(frozen=True)
class StripReverseResult:
    log_mu_lower: float
    log_mu_upper: float
    log_rhs_lower: float
    log_rhs_upper: float


@np.errstate(invalid="ignore")  # a NaN operand gives NaN, quietly
def strip_reverse_oracle(spec: IfsSpec, s: float, prefix, rel_width: float,
                         extension_cap: int, t: int = 1) -> StripReverseResult:
    """Lower-bound counterpart for lifted Gibbs chain t, 1 or 2, at axis-preserving prefixes.

    Valid only when the prefix composition preserves the axes (even number of
    anti-diagonal letters), where concatenation of lifts is again a lift and
    the chain's own comparison constant c = min P(i,j)/pi(j) over allowed
    transitions (P(i,j) depends on j alone) applies: chain mass of the strip
    >= c * chain mass of the prefix * projected chain mass of the blown
    interval, bracket by bracket, over the same stopped family.  In logs.
    """
    if t not in (1, 2):
        raise ValueError(f"chain t={t} must be 1 or 2")
    g = kaenmaki_measure(spec, s).m1
    log_c = float(np.min(g.log_rows.ravel() - g.log_stationary))  # m2 = m1 o sigma: the same
    _, (log_w,), (lower,), (rest,) = _frame_walk(spec, prefix, rel_width, extension_cap,
                                                 g, [t - 1])
    if sum(i >= spec.l for i in prefix) % 2:  # a valid word now: the walk checked it
        raise ValueError("reverse bound applies only to axis-preserving prefixes")
    lower, upper = lower.tolist(), np.logaddexp(lower, rest).tolist()
    log_rhs = log_c + float(log_w)
    return StripReverseResult(log_mu_lower=lower[0], log_mu_upper=upper[0],
                              log_rhs_lower=log_rhs + lower[1], log_rhs_upper=log_rhs + upper[1])


# -- rendering -----------------------------------------------------------------

def check_px(px: int) -> None:
    """render_attractor's image side px: ValueError outside [16, 8192]."""
    if not (16 <= px <= 8192):
        raise ValueError(f"px={px} must lie in [16, 8192]")


def render_attractor(samples: SampleSet, px: int, path) -> None:
    """Write a binary PGM (P5, maxval 255) heat map of the sample points.

    Row 0 is the top of the square (y = 1); intensity is the log-scaled hit
    count.  Deterministic for a given sample set.
    """
    check_px(px)
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
