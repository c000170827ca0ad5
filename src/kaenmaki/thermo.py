"""Pressure, Gibbs-Markov measures, and the equilibrium measure of the system.

The singular value function of a word, phi^s, equals alpha1^s for s in (0,1)
and alpha1 * alpha2^(s-1) for s in [1,2], where alpha1 >= alpha2 are the
singular values of the composed linear part.  Its growth rate in n of
log sum over length-n words is the subadditive pressure P(s).

On the doubled alphabet, two locally constant potentials track the log
horizontal and log vertical side lengths of cylinder rectangles.  Each has a
unique Gibbs measure, realized here as the stationary Markov chain built from
the Perron eigendata of the weighted transition matrix (transfer matrix
convention: T(i,j) = A(i,j) * exp(weight_j)).  Every state is followed by one
whole half of the alphabet, so each chain is two log rows, one per row class,
and the log probability of a step depends on the symbol stepped into only.
The equilibrium measure nu of phi^s is the sum of the two lifted Gibbs
measures, and all of its cylinder masses, entropy and Lyapunov exponents are
computed from that Markov data.

Measures and phi-values are accumulated in log space throughout; ratios are
differences of logs exponentiated at the end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

from .coding import (
    as_word,
    check_mixing,
    tau_arrays,
    transition_matrix,
)
from .errors import (
    BadMapKinds,
    ConvergenceFailure,
    InternalMismatch,
    SOutOfRange,
    TooLarge,
)
from .ifs import IfsSpec

ENUMERATION_CAP = 10 ** 7


class PotentialIndex(IntEnum):
    ONE = 1
    TWO = 2


def _log_phi_from_alphas(log_a1, log_a2, s: float):
    """log alpha1^s for s < 1, log(alpha1 alpha2^(s-1)) for s >= 1."""
    if s < 1.0:
        return s * log_a1
    return log_a1 + (s - 1.0) * log_a2


def _side_logs(spec: IfsSpec, t: PotentialIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per doubled symbol, the log side lengths playing alpha1 and alpha2 for t."""
    la, lb = np.log(spec.a), np.log(spec.b)
    log_r1, log_r2 = np.concatenate([la, lb]), np.concatenate([lb, la])
    return (log_r2, log_r1) if t == PotentialIndex.TWO else (log_r1, log_r2)


def _weight_vector(spec: IfsSpec, s: float, t: PotentialIndex) -> np.ndarray:
    """Log-weights per doubled symbol of side-length potential t, s in (0, 2]: the
    log phi^s of each symbol's side lengths as _side_logs assigns them for t."""
    return _log_phi_from_alphas(*_side_logs(spec, t), s)


def _log_normalized(x: np.ndarray) -> np.ndarray:
    """x minus its log-sum-exp along the last axis: the log of exp(x) scaled to sum 1."""
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def _perron(w: np.ndarray, d: int, l: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Log Perron root and unnormalized log right/left eigenvectors of
    T(i,j) = A(i,j) exp(w_j), in closed form.

    A row of T allows either the unshifted symbols 1..d or the shifted ones,
    so T has rank 2 and its Perron data is that of the 2x2 matrix
    M = [[D_u, A_u], [A_s, D_s]] of summed exp(w) over the unshifted
    diagonal, unshifted anti-diagonal, shifted anti-diagonal and shifted
    diagonal symbols.  The right vector is constant on each row class (class
    two: anti-diagonal unshifted and diagonal shifted symbols); the left
    vector is exp(w_j) times M's left vector entry for j's half.  All in log
    space, so ratios near the smallest double do not underflow.
    """
    k = l - 1
    l_du, l_au, l_ds, l_as = (np.logaddexp.reduce(w[lo:hi])
                              for lo, hi in ((0, k), (k, d), (d, d + k), (d + k, 2 * d)))
    l_g = 0.5 * (l_au + l_as)  # log sqrt(A_u A_s)
    c = max(l_du, l_ds, l_g)
    du, ds = np.exp(l_du - c), np.exp(l_ds - c)
    # lambda - min(D_u, D_s) = sqrt(h^2 + A_u A_s) + |h| with h = (D_u - D_s) / 2,
    # a sum of positive terms, so it keeps full relative precision
    half_gap = 0.5 * abs(du - ds)
    l_h = np.log(half_gap) if half_gap > 0.0 else -np.inf
    l_gap = c + np.logaddexp(0.5 * np.logaddexp(2.0 * l_h, 2.0 * (l_g - c)), l_h)
    log_root = c + np.log(min(du, ds) + np.exp(l_gap - c))
    # second-half / first-half ratios of M's right and left vectors, each from
    # the eigen equation whose lambda - D term is lambda - min(D_u, D_s)
    if du >= ds:
        l_right, l_left = l_as - l_gap, l_au - l_gap
    else:
        l_right, l_left = l_gap - l_au, l_gap - l_as
    log_right = np.repeat([0.0, l_right, 0.0], [k, d, d - k])
    log_left = w + np.repeat([0.0, l_left], d)
    return float(log_root), log_right, log_left


def pressure(spec: IfsSpec, s: float, t: PotentialIndex = PotentialIndex.ONE) -> float:
    """Log spectral radius of the weighted transition matrix.

    Computed in closed form from the rank-2 structure (see _perron); the
    t=ONE and t=TWO values are bit-identical, since the two 2x2 matrices are
    conjugate by the swap of the two halves.
    """
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    return _perron(_weight_vector(spec, s, t), spec.d, spec.l)[0]


@dataclass(frozen=True)
class MarkovGibbs:
    """Perron eigendata realizing one Gibbs measure as a stationary Markov chain.

    log_right and log_left are the unnormalized logs of the right and left
    eigenvectors r and l.  The chain steps from i to j with probability
    T(i,j) r(j) / (exp(log_pressure) r(i)), so every class-c state has the same law
    over half c: row c of log_rows, shaped (2, d).  The log probability of a
    step into 0-based symbol j is log_rows.ravel()[j], whatever the admissible
    predecessor.  log_stationary is the log of l * r normalized.  The cylinder
    mass of an admissible coded word c is stationary[c1] times the step
    probabilities into c2..cn; it obeys two-sided Gibbs bounds with the
    explicit constants whose logs log_gibbs_bounds() returns.
    """

    s: float
    t: PotentialIndex
    d: int
    l: int
    log_pressure: float
    log_right: np.ndarray
    log_left: np.ndarray
    log_rows: np.ndarray
    log_stationary: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.log_right, self.log_left, self.log_rows,
                    self.log_stationary, self.weights):
            arr.setflags(write=False)

    @property
    def stationary(self) -> np.ndarray:
        return np.exp(self.log_stationary)

    def log_gibbs_bounds(self) -> tuple[float, float]:
        """Logs of the constants (lo, up) with lo <= m([c]) / exp(S_n f - n P) <= up.

        The cylinder formula gives the ratio exactly as
        left(c_1) exp(-weights(c_1)) * right(c_n) * root / sum(left * right),
        so the extremes of the two factors bound it.  Taken in log space: the
        normalized right vector and lo itself can underflow where logs do not.
        """
        head = self.log_left - self.weights
        shift = self.log_pressure - np.logaddexp.reduce(self.log_left + self.log_right)
        return (float(head.min() + self.log_right.min() + shift),
                float(head.max() + self.log_right.max() + shift))

    def log_cylinder_batch(self, coded: np.ndarray) -> np.ndarray:
        """log m([c]) over an (N, n) array of admissible lifts with 0-based symbols."""
        return self.log_stationary[coded[:, 0]] + self.log_rows.ravel()[coded[:, 1:]].sum(axis=1)


@lru_cache(maxsize=256)
def gibbs_markov(spec: IfsSpec, s: float, t: PotentialIndex = PotentialIndex.ONE) -> MarkovGibbs:
    """Build the Gibbs measure of one potential as explicit Markov chain data."""
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    if not check_mixing(transition_matrix(spec.d, spec.l)):
        raise InternalMismatch("transition matrix is not mixing")
    w = _weight_vector(spec, s, t)
    log_root, log_right, log_left = _perron(w, spec.d, spec.l)
    # P(i,j) = T(i,j) r(j) / (lambda r(i)), and T(i,.) r sums to lambda r(i): the
    # row of a class-c state is exp(w + log r) on half c, normalized to sum 1
    return MarkovGibbs(
        s=s, t=PotentialIndex(t), d=spec.d, l=spec.l,
        log_pressure=log_root,
        log_right=log_right, log_left=log_left,
        log_rows=_log_normalized((w + log_right).reshape(2, spec.d)),
        log_stationary=_log_normalized(log_left + log_right), weights=w)


@dataclass(frozen=True)
class KaenmakiMeasure:
    """The equilibrium measure nu: sum of the two lifted Gibbs measures.

    nu([w]) = m1([tau(w)]) + m2([tau(w)]) for words over the base alphabet.
    """

    spec: IfsSpec
    s: float
    m1: MarkovGibbs
    m2: MarkovGibbs

    def log_cylinder(self, w) -> float:
        return float(self.log_cylinder_batch(np.array([as_word(w, self.spec.d)]))[0])

    def log_cylinder_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized log nu over an (N, n) array of words (values 1..d)."""
        coded = tau_arrays(words, self.spec) - 1
        return np.logaddexp(self.m1.log_cylinder_batch(coded),
                            self.m2.log_cylinder_batch(coded))

    def tau_start_mass(self) -> float:
        """m1-mass of coded words starting in the unshifted half."""
        return float(self.m1.stationary[:self.spec.d].sum())

    def log_envelope(self) -> tuple[float, float]:
        """Logs of two-sided bounds for nu([w]) / (phi^s(w) exp(-n P)) over all words."""
        (lo1, up1), (lo2, up2) = self.m1.log_gibbs_bounds(), self.m2.log_gibbs_bounds()
        return min(lo1, lo2), float(np.logaddexp(up1, up2))


@lru_cache(maxsize=64)
def kaenmaki_measure(spec: IfsSpec, s: float) -> KaenmakiMeasure:
    return KaenmakiMeasure(
        spec=spec, s=s,
        m1=gibbs_markov(spec, s, PotentialIndex.ONE),
        m2=gibbs_markov(spec, s, PotentialIndex.TWO))


def kaenmaki_cylinder(spec: IfsSpec, s: float, w) -> float:
    """nu([w]); additive over one-letter extensions and normalized at level 1."""
    return float(np.exp(kaenmaki_measure(spec, s).log_cylinder(w)))


# -- exhaustive enumeration over all words of one length ----------------------

def _guard_enumeration(spec: IfsSpec, n: int):
    if n < 1:
        raise TooLarge("word length must be >= 1")
    if spec.d ** n > ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{n} words exceed the enumeration cap {ENUMERATION_CAP}")


def expand_levels(spec: IfsSpec, n: int):
    """Yield (log_p, log_q, coded) for the word lengths 1..n.

    A level lists all words of its length m in lexicographic order (word k
    has the base-d digits of k as letters), with the log top-row and
    bottom-row magnitudes of its composed linear part and the 0-based tau
    symbol of its last letter.
    """
    _guard_enumeration(spec, n)
    d = spec.d
    la, lb = np.log(spec.a), np.log(spec.b)
    letters = np.arange(d)
    is_anti = letters >= spec.l - 1
    log_p, log_q, coded, odd = la, lb, letters, is_anti
    yield log_p, log_q, coded
    for _ in range(n - 1):
        jj = np.tile(letters, log_p.size)
        even = np.repeat(~odd, d)
        log_p = np.repeat(log_p, d) + np.where(even, la[jj], lb[jj])
        log_q = np.repeat(log_q, d) + np.where(even, lb[jj], la[jj])
        coded = np.where(even, jj, jj + d)
        odd = np.repeat(odd, d) ^ is_anti[jj]
        yield log_p, log_q, coded


# cells per block of a full-depth level: a few hundred kB per float array
LEVEL_BLOCK = 1 << 14


def level_log_blocks(spec: IfsSpec, s: float, n: int):
    """Yield (log_phi, log_nu) over all d^n words in lexicographic blocks.

    A word of length n is a prefix u of length a = n - n // 2 followed by a
    suffix v of length b = n // 2, possibly empty.  Its log row magnitudes
    and both chain logs are a term for u plus a term for v, and the v term
    depends on u only through the anti-diagonal parity after u: odd parity
    swaps v's two row sums and moves each coded symbol c of v into the other
    half, (c + d) % 2d, where the chain steps take log_rows.ravel() at that
    symbol.  So the two half levels are built once, and each block pairs a
    run of prefixes with every suffix, about LEVEL_BLOCK cells.
    """
    _guard_enumeration(spec, n)
    d, nu = spec.d, kaenmaki_measure(spec, s)
    starts = np.stack([nu.m1.log_stationary, nu.m2.log_stationary])
    rows = np.stack([nu.m1.log_rows.ravel(), nu.m2.log_rows.ravel()])
    steps = np.stack([rows, np.roll(rows, d, axis=1)], axis=1)  # (chain, start parity, 2d)
    a, b = n - n // 2, n // 2
    heads, tails, sides = None, np.zeros((2, 2, 1)), np.zeros((2, 1))  # v empty
    for m, (log_p, log_q, coded) in enumerate(expand_levels(spec, a), start=1):
        heads = (starts[:, coded] if heads is None
                 else np.repeat(heads, d, axis=-1) + rows[:, coded])
        if m <= b:
            tails = np.repeat(tails, d, axis=-1) + steps[..., coded]
        if m == b:
            sides = np.stack([log_p, log_q])
    odd_u = transition_matrix(d, spec.l)[coded]
    per_block = max(1, LEVEL_BLOCK // d ** b)
    for i in range(0, d ** a, per_block):
        u = slice(i, i + per_block)
        odd = odd_u[u]
        lp = log_p[u, None] + sides[odd]
        lq = log_q[u, None] + sides[1 - odd]
        log_nu = np.logaddexp(heads[0, u, None] + tails[0, odd],
                              heads[1, u, None] + tails[1, odd])
        log_phi = _log_phi_from_alphas(np.maximum(lp, lq), np.minimum(lp, lq), s)
        yield log_phi.ravel(), log_nu.ravel()


def level_log_measures(spec: IfsSpec, s: float, n: int):
    """(log_phi, log_nu) over all d^n words in lexicographic order."""
    log_phi, log_nu = (np.concatenate(parts) for parts in zip(*level_log_blocks(spec, s, n)))
    return log_phi, log_nu


def level_log_ratio_extremes(spec: IfsSpec, s: float, n: int) -> tuple[float, float]:
    """(min, max) of log nu - log phi over all d^n words, one block at a time.

    Every word is visited, but no array longer than a block is held.  A NaN
    ratio makes both NaN.
    """
    lo, hi = np.inf, -np.inf
    for log_phi, log_nu in level_log_blocks(spec, s, n):
        x = log_nu - log_phi
        lo, hi = np.minimum(lo, x.min()), np.maximum(hi, x.max())
    return float(lo), float(hi)


# -- derived thermodynamic quantities -----------------------------------------

@dataclass(frozen=True)
class AffinityResult:
    value: float
    clamped: bool
    trace: tuple[tuple[float, float], ...]


def affinity_dimension_detail(spec: IfsSpec) -> AffinityResult:
    """Root of the pressure in (0, 2], by bisection.

    The pressure is strictly decreasing in s (verified on the trace of
    evaluations); when it is still positive at s=2 the value clamps to 2 and
    the flag is set.  ConvergenceFailure is raised when |P| at the root
    exceeds 1e-12 * max(1, |dP/ds|).
    """
    trace = []

    def p(s):
        v = _perron(_weight_vector(spec, s, PotentialIndex.ONE), spec.d, spec.l)[0]
        trace.append((s, v))
        return v

    p_two = p(2.0)
    if abs(p_two) <= 1e-12:
        return AffinityResult(value=2.0, clamped=False, trace=tuple(trace))
    if p_two > 0.0:
        return AffinityResult(value=2.0, clamped=True, trace=tuple(trace))
    lo, hi = 1e-9, 2.0
    if p(lo) <= 0.0:
        raise InternalMismatch("pressure not positive near s=0")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if p(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    p_root, log_right, log_left = _perron(
        _weight_vector(spec, root, PotentialIndex.ONE), spec.d, spec.l)
    trace.append((root, p_root))
    # the bisection pins s to 1e-13, so |P(s*)| is held relative to the slope
    # dP/ds = stationary . dw/ds, with dw/ds = log_r1 for s < 1, log_r2 for s >= 1
    slope = np.exp(_log_normalized(log_left + log_right)) @ _side_logs(
        spec, PotentialIndex.ONE)[0 if root < 1.0 else 1]
    if abs(p_root) > 1e-12 * max(1.0, abs(slope)):
        raise ConvergenceFailure(f"|P(s*)|={abs(p_root):.3e} above tolerance")
    by_s = sorted(trace)
    for (s1, v1), (s2, v2) in zip(by_s, by_s[1:]):
        if s2 > s1 and v2 > v1 + 1e-12:
            raise InternalMismatch(f"pressure not decreasing: P({s1})={v1}, P({s2})={v2}")
    return AffinityResult(value=root, clamped=False, trace=tuple(trace))


def affinity_dimension(spec: IfsSpec) -> float:
    return affinity_dimension_detail(spec).value


def lyapunov_exponents(spec: IfsSpec, s: float) -> tuple[float, float]:
    """(chi1, chi2): contraction rates of the singular values under nu.

    Integrals of the two s=1 potentials against the stationary law of the
    first Gibbs chain at parameter s.  chi1 <= chi2 always; the gap is
    strictly positive unless the system is degenerate, in which case a
    warning is emitted rather than an error.
    """
    pi = gibbs_markov(spec, s, PotentialIndex.ONE).stationary
    chi1 = float(-(pi @ _weight_vector(spec, 1.0, PotentialIndex.ONE)))
    chi2 = float(-(pi @ _weight_vector(spec, 1.0, PotentialIndex.TWO)))
    if chi1 > chi2 + 1e-12:
        raise InternalMismatch(f"chi1={chi1} exceeds chi2={chi2}")
    nondegenerate = any(m.a != m.b for m in spec.maps if not m.anti)
    if nondegenerate and chi2 - chi1 < 1e-12:
        warnings.warn(f"Lyapunov gap {chi2 - chi1:.3e} below 1e-12 on a "
                      "non-degenerate system", stacklevel=2)
    return chi1, chi2


def entropy(spec: IfsSpec, s: float, t: PotentialIndex = PotentialIndex.ONE) -> float:
    """h = pressure - integral of the potential; same value for either t."""
    g = gibbs_markov(spec, s, t)
    h = g.log_pressure - float(g.stationary @ g.weights)
    return max(h, 0.0)


def log_quasi_bernoulli_ratio(spec: IfsSpec, s: float, i: int, j: int, n: int) -> float:
    """log of phi^s(i^n j i^n) / (phi^s(i^n j) phi^s(i^n)).

    Requires map i diagonal with a != b and map j anti-diagonal.  With
    (a, b) the ratios of map i and (A, B) those of map j, and a < b, the
    ratio equals min(1, (a/b)^n * max(1, A/B))^min(s, 2-s); for a > b swap
    a with b and A with B.  It is exactly 1 while (b/a)^n <= A/B and decays
    geometrically after that, so it tends to 0, which is exactly why no
    two-sided Bernoulli comparison can hold for the equilibrium measure.  It
    is formed from the logs of the four map ratios, never from a quotient of
    them (a/b overflows where both are tiny), so it is exactly 0.0 where the
    ratio is 1 and stays finite where the ratio underflows to 0.0.
    """
    if n < 1:
        raise BadMapKinds("n must be >= 1")
    mi, mj = spec.map(i), spec.map(j)
    if mi.anti or not mj.anti:
        raise BadMapKinds(f"need map {i} diagonal and map {j} anti-diagonal")
    if mi.a == mi.b:
        raise BadMapKinds(f"map {i} has a == b; the family degenerates")
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    la, lb, l_big_a, l_big_b = np.log([mi.a, mi.b, mj.a, mj.b]).tolist()
    if la > lb:
        la, lb, l_big_a, l_big_b = lb, la, l_big_b, l_big_a
    return min(s, 2.0 - s) * min(0.0, n * (la - lb) + max(0.0, l_big_a - l_big_b))


def quasi_bernoulli_ratio(spec: IfsSpec, s: float, i: int, j: int, n: int) -> float:
    """phi^s(i^n j i^n) / (phi^s(i^n j) phi^s(i^n)); see log_quasi_bernoulli_ratio."""
    return float(np.exp(log_quasi_bernoulli_ratio(spec, s, i, j, n)))


def submultiplicativity_check(spec: IfsSpec, s: float, max_len: int) -> tuple[float, float]:
    """Logs of the extremes of nu([uv]) / (nu([u]) nu([v])) over word pairs
    with |u|+|v| <= max_len.

    The upper extreme stays below the Gibbs-derived constant; the lower one
    decays along anti-diagonal insertions and admits no uniform positive
    bound.  Both are logs because either may leave the range of a double at
    tiny ratios; a NaN ratio makes both NaN.
    """
    _guard_enumeration(spec, max_len)
    logs = {n: level_log_measures(spec, s, n)[1] for n in range(1, max_len + 1)}
    ups, los = [-np.inf], [np.inf]
    for na in range(1, max_len):
        for nb in range(1, max_len - na + 1):
            ratio = logs[na + nb].reshape(spec.d ** na, spec.d ** nb) \
                - logs[na][:, None] - logs[nb][None, :]
            ups.append(ratio.max())
            los.append(ratio.min())
    return float(np.max(ups)), float(np.min(los))


@dataclass(frozen=True)
class ThermoSummary:
    s: float
    pressure: float
    entropy: float
    chi1: float
    chi2: float
    affinity_dim: float
    gibbs_lower: float
    gibbs_upper: float


def thermo_summary(spec: IfsSpec, s: float, affinity_dim: float | None = None) -> ThermoSummary:
    """Quantities at s; the pressure root is searched for unless given as affinity_dim."""
    chi1, chi2 = lyapunov_exponents(spec, s)
    lo, up = np.exp(kaenmaki_measure(spec, s).log_envelope())  # lo may underflow to 0.0
    return ThermoSummary(
        s=s,
        pressure=pressure(spec, s),
        entropy=entropy(spec, s),
        chi1=chi1,
        chi2=chi2,
        affinity_dim=affinity_dimension(spec) if affinity_dim is None else affinity_dim,
        gibbs_lower=float(lo),
        gibbs_upper=float(up))
