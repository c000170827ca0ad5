import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from conftest import (
    all_words,
    anti,
    box_count_reference,
    chain_matrix,
    count_fractions_reference,
    csv_text_loop,
    dense_transition,
    diag,
    fit_slopes_reference,
    full_box_draw,
    full_box_system,
    grid_spec,
    shifted_chain,
    signature_rows_reference,
    strip_family_oracle,
)
from kaenmaki import (
    Projection,
    SampleSet,
    affinity_dimension,
    box_count,
    check_strong_separation,
    estimate_local_dimension,
    estimate_projected_dim,
    kaenmaki_measure,
    make_spec,
    render_attractor,
    sample_symbolic,
    strip_measure_oracle,
    strip_reverse_oracle,
    transition_matrix,
    write_csv,
)
from kaenmaki import sampling
from kaenmaki.errors import DegenerateSystemWarning, TooFewHits
from kaenmaki.coding import product_signature, signature_arrays, tau_arrays
from kaenmaki.ifs import parse_ifs
from kaenmaki.sampling import _draw_words, _repr_matrix, csv_lines, default_centers


def synthetic_samples(points):
    points = np.asarray(points, dtype=float)
    return SampleSet(points=points, words=np.ones((len(points), 1), dtype=np.int64),
                     seed=0, depth=1, accuracy=0.0)


RADII = 2.0 ** np.arange(-4, -10, -1)
SMALLEST_SCALE = float(np.nextafter(2.0 ** -31, 1.0))


def outcome(fn, *args):
    """fn(*args), or the type name and text of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # both sides must raise alike
        return type(e).__name__, str(e)


def with_fractions(fn, *args):
    """outcome(fn, *args) and the fractions each sampling._count_fractions call returned."""
    fractions = []
    count = sampling._count_fractions

    def record(*a):
        fractions.append(count(*a))
        return fractions[-1]

    with mock.patch.object(sampling, "_count_fractions", record):
        return outcome(fn, *args), fractions


def draw_estimator_input(data):
    """Centers (some outside the square, some NaN or infinite), a grid of 3-5
    radii from 2^-1 down to nextafter(2^-31, 1), and points: random ones, each
    finite center, and points on every edge c -+ r of a center's squares and
    one ulp either side, all repeated 1-60 times."""
    scale = st.one_of(st.integers(1, 30).map(lambda k: 2.0 ** -k),
                      st.floats(SMALLEST_SCALE, 0.5), st.just(SMALLEST_SCALE))
    coordinate = st.one_of(st.floats(-0.5, 1.5), st.floats(0.0, 1.0),
                           st.sampled_from([np.nan, np.inf, -np.inf]))
    radii = data.draw(st.lists(scale, min_size=3, max_size=5))
    centers = np.array(data.draw(st.lists(st.tuples(coordinate, coordinate),
                                          min_size=1, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    parts = [rng.random((data.draw(st.integers(0, 200)), 2))]
    for cx, cy in centers[np.isfinite(centers).all(axis=1)]:
        parts.append([[cx, cy]])
        for r in radii:
            xs, ys = (np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])
                      for e in (np.array([c - r, c + r]) for c in (cx, cy)))
            parts.append(np.column_stack([xs, np.full(xs.size, cy)]))
            parts.append(np.column_stack([np.full(ys.size, cx), ys]))
            parts.append(np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2))
    points = np.tile(np.concatenate(parts), (data.draw(st.integers(1, 60)), 1))
    return synthetic_samples(points), centers, radii


class StubGenerator:
    """Stands in for the sampler's generator: call k of random(n) returns
    values[(k + i) % len(values)] at row i.  sizes lists each call's n."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.calls, self.sizes = 0, []

    def random(self, n):
        out = self.values[(self.calls + np.arange(n)) % len(self.values)]
        self.calls += 1
        self.sizes.append(n)
        return out


def inverse_cdf(probs, u):
    """Smallest state of the support whose cumulative mass reaches u; the last
    state of the support when the cumulative sum tops out below u."""
    support = [j for j, p in enumerate(probs) if p > 0.0]
    total = 0.0
    for j in support:
        total += probs[j]
        if total >= u:
            return j
    return support[-1]


def lifted_states(nu, count, depth, rng):
    """The 0-based lifted states of sampling._draw_words' words: their tau lift
    less one, a (count, depth) array."""
    return tau_arrays(_draw_words(nu, count, depth, rng), nu.spec) - 1


def lifted_columns_dense(nu, count, depth, rng):
    """The sampler's lifted states from a full (count, d) comparison table per
    column, with the draw schedule of sampling._draw_words: its reference.  The
    second chain is m1 read through sigma, with m1's floats."""
    d = nu.spec.d
    chain = (rng.random(count) >= nu.tau_start_mass()).astype(np.int64)
    chains = nu.m1, shifted_chain(nu.m1)
    init = np.array([np.cumsum(g.stationary[:d] / g.stationary[:d].sum()) for g in chains])
    state = np.minimum((rng.random(count)[:, None] > init[chain]).sum(axis=1), d - 1)
    yield state
    tables = np.array([np.cumsum(np.exp(g.log_rows), axis=1) for g in chains])
    row_class = transition_matrix(d, nu.spec.l)
    for _ in range(1, depth):
        u = rng.random(count)
        cls = row_class[state]
        state = cls * d + np.minimum((u[:, None] > tables[chain, cls]).sum(axis=1), d - 1)
        yield state


class TestSampler:
    def test_deterministic(self, ex1):
        a = sample_symbolic(ex1, 1.0, 500, 20, seed=42)
        b = sample_symbolic(ex1, 1.0, 500, 20, seed=42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.words, b.words)
        c = sample_symbolic(ex1, 1.0, 500, 20, seed=43)
        assert not np.array_equal(a.words, c.words)

    def test_points_in_square_and_markers(self, ex1):
        s = sample_symbolic(ex1, 1.0, 2000, 15, seed=1)
        assert len(s.points) == len(s.words) == 2000
        assert (s.points >= 0).all() and (s.points <= 1).all()
        assert s.words.min() >= 1 and s.words.max() <= ex1.d
        assert 0 < s.accuracy <= (1 / 3) ** 15

    def test_cylinder_law_chi_square(self, ex1):
        sstar = affinity_dimension(ex1)
        samples = sample_symbolic(ex1, sstar, 10 ** 6, 3, seed=2024)
        idx = ((samples.words[:, 0] - 1) * 4 + (samples.words[:, 1] - 1) * 2
               + (samples.words[:, 2] - 1))
        observed = np.bincount(idx, minlength=8)
        nu = kaenmaki_measure(ex1, sstar)
        expected = np.exp([nu.log_cylinder(tuple(w))
                           for w in all_words(2, 3)]) * len(samples.words)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(stat, df=7) > 0.001

    def test_transitions_follow_inverse_cdf_at_extreme_draws(self):
        # at s = 0.5 the second chain's unshifted-successor row sums to 1 - 2^-52
        spec = make_spec([diag(0.1, 0.2, 0.0, 0.0), diag(0.1, 0.3, 0.5, 0.0),
                          anti(0.3, 0.3, 0.0, 0.5)])
        nu, d, top = kaenmaki_measure(spec, 0.5), spec.d, 1.0 - 2.0 ** -53
        values = [0.0, top, 0.0, 0.37, top, 0.81, 0.0]
        count, depth = 42, 12
        got = lifted_states(nu, count, depth, StubGenerator(values))
        draws = StubGenerator(values)
        branch = draws.random(count)
        cols = [draws.random(count) for _ in range(depth)]
        tm = dense_transition(d, spec.l)
        zero_after_shifted_row = top_above_row_sum = 0
        for i in range(count):
            g = nu.m1 if branch[i] < nu.tau_start_mass() else shifted_chain(nu.m1)
            path = [inverse_cdf(g.stationary[:d] / g.stationary[:d].sum(), cols[0][i])]
            P = chain_matrix(g)
            for t in range(1, depth):
                row, u = P[path[-1]], cols[t][i]
                zero_after_shifted_row += u == 0.0 and row[:d].sum() == 0.0
                top_above_row_sum += u == top and np.cumsum(row[:d])[-1] < u
                path.append(inverse_cdf(row, u))
                assert tm[path[-2], path[-1]]
            assert got[i].tolist() == path
        assert zero_after_shifted_row and top_above_row_sum

    @pytest.mark.parametrize("d", [*range(2, 13), 40, 128, 130, 200])
    def test_threshold_gathers_match_dense_table(self, d):
        spec = grid_spec(d, n_anti=1 + d // 3, seed=d)
        s = 0.2 + 1.6 * (d % 7) / 6
        nu, top = kaenmaki_measure(spec, s), 1.0 - 2.0 ** -53
        count, depth = 3000, 20
        words = sample_symbolic(spec, s, count, depth, seed=d).words
        rng = np.random.Generator(np.random.Philox(np.uint64(d)))
        want = np.column_stack(list(lifted_columns_dense(nu, count, depth, rng)))
        assert words.flags.f_contiguous and np.array_equal(words, want % d + 1)
        values = np.random.default_rng(d).random(997)
        values[::5], values[1::7] = 0.0, top
        got = lifted_states(nu, count, depth, StubGenerator(values))
        want = np.column_stack(list(lifted_columns_dense(nu, count, depth,
                                                         StubGenerator(values))))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 6, 127, 128, 200])
    def test_draw_words_schedule_dtype_and_layout(self, d):
        # one branch draw and one per column, each of random(count); the words
        # over 1..d, column-major, in the narrowest dtype that holds 2d
        spec = grid_spec(d, n_anti=1 + d // 3, seed=d)
        nu, count, depth = kaenmaki_measure(spec, 1.0), 500, 7
        draws = StubGenerator(np.random.default_rng(d).random(997))
        words = _draw_words(nu, count, depth, draws)
        assert draws.calls == depth + 1 and draws.sizes == [count] * (depth + 1)
        assert words.shape == (count, depth) and words.flags.f_contiguous
        assert words.dtype == np.min_scalar_type(2 * d)
        assert words.min() >= 1 and words.max() <= d

    def test_composer_peak_stays_near_the_row_by_row_pass(self, ex1):
        # the suffix table and its gather may add little to the row-by-row peak
        words = sample_symbolic(ex1, 1.0, 200_000, 25, seed=7).words

        def traced_peak(compose):
            tracemalloc.start()
            try:
                compose(words, ex1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(signature_arrays) <= 1.15 * traced_peak(signature_rows_reference)

    def test_golden_digest_with_two_maps_of_each_kind(self):
        """SHA-256 of the words and points, and the accuracy, of a d = 4 draw.

        Two diagonal and two anti-diagonal maps, at 50 000 x 25: the composer
        gathers the last 7 columns from its suffix table and steps the other 18
        row by row.  Pinned on the composer that still selected each row's
        coordinates per column, before rows were held in their suffix's frame.
        """
        spec = make_spec([diag(0.3, 0.2, 0.0, 0.0), diag(0.2, 0.35, 0.6, 0.0),
                          anti(0.25, 0.2, 0.0, 0.6), anti(0.3, 0.15, 0.6, 0.6)])
        samples = sample_symbolic(spec, 1.0, 50_000, 25, seed=4)
        digest = hashlib.sha256(samples.words.tobytes() + samples.points.tobytes()).hexdigest()
        assert digest == "17ed504751d824937e9ac72b67253b257e13e674201fa3529f64adf2a4e5db1f"
        assert repr(samples.accuracy) == "9.035959018318933e-14"

    def test_accuracy_bounds_distance_to_extensions(self):
        # word (1,) extends to map 1's fixed point (0, 0), at sup distance
        # 0.225 from the word's point (0.05, 0.225)
        spec = make_spec([diag(0.1, 0.45, 0.0, 0.0), anti(0.1, 0.45, 0.5, 0.5)])
        samples = sample_symbolic(spec, 1.0, 200, 1, seed=3)
        ones = samples.points[samples.words[:, 0] == 1]
        assert len(ones) and np.abs(ones).max(axis=1) == pytest.approx(0.225, abs=1e-15)
        assert samples.accuracy >= 0.225
        assert samples.accuracy == pytest.approx(0.45 * np.sqrt(2.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("d, dtype", [(127, np.uint8), (128, np.uint16)])
    def test_words_take_the_narrowest_dtype_holding_2d(self, d, dtype):
        spec = grid_spec(d, n_anti=d // 2, seed=d)
        samples = sample_symbolic(spec, 1.0, 400, 6, seed=d)
        words, wide = samples.words, samples.words.astype(np.int64)
        assert words.dtype == dtype and words.flags.f_contiguous
        # the tau lift reaches 2d - 1 or 2d without wrapping
        assert np.array_equal(tau_arrays(words, spec), tau_arrays(wide, spec))
        assert tau_arrays(words, spec).max() > d
        nu = kaenmaki_measure(spec, 1.0)
        log_nu = nu.log_cylinder_batch(words)
        assert np.isfinite(log_nu).all()
        assert np.array_equal(log_nu, nu.log_cylinder_batch(wide))
        for got, want in zip(signature_arrays(words, spec), signature_arrays(wide, spec)):
            assert np.array_equal(got, want)

    def test_single_cylinder_frequency(self, ex1):
        sstar = affinity_dimension(ex1)
        n = 50000
        samples = sample_symbolic(ex1, sstar, n, 20, seed=31)
        p = float(np.exp(kaenmaki_measure(ex1, sstar).log_cylinder((1,))))
        freq = float((samples.words[:, 0] == 1).mean())
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 4 * sigma


class TestProjectPoint:
    def test_fixed_point_of_first_map(self, ex1):
        *_, x, y = signature_arrays(np.array([(1,) * 20]), ex1)
        assert abs(x[0]) <= 1e-9 and abs(y[0]) <= 1e-9

    def test_fixed_point_of_anti_map(self, ex1):
        *_, x, y = signature_arrays(np.array([(2,) * 40]), ex1)
        assert x[0] == pytest.approx(25 / 38, abs=1e-14)
        assert y[0] == pytest.approx(12 / 19, abs=1e-14)

    def test_error_bound(self, ex1):
        log_p, log_q, *_ = signature_arrays(np.array([(1,) * 30]), ex1)
        assert np.sqrt(2.0) / 2.0 * np.exp(max(log_p[0], log_q[0])) < 1e-14


class TestEstimators:
    def test_uniform_cloud_is_two_dimensional(self):
        rng = np.random.Generator(np.random.Philox(99))
        samples = synthetic_samples(rng.random((10 ** 6, 2)))
        centers = rng.random((10, 2)) * 0.6 + 0.2
        # area-law hit counts shrink like (2r)^2, so stop at 2^-7 to keep
        # every center above the 50-hit floor
        slope, stderr = estimate_local_dimension(samples, centers,
                                                 2.0 ** np.arange(-4, -8, -1))
        assert abs(slope - 2.0) <= 0.05

    def test_atom_has_zero_dimension(self):
        samples = synthetic_samples(np.tile([0.4, 0.6], (1000, 1)))
        slope, _ = estimate_local_dimension(samples, [(0.4, 0.6)], RADII)
        assert abs(slope) <= 1e-9

    def test_too_few_hits(self):
        rng = np.random.Generator(np.random.Philox(7))
        samples = synthetic_samples(rng.random((200, 2)))
        with pytest.raises(TooFewHits):
            estimate_local_dimension(samples, [(0.5, 0.5)], RADII)

    def test_projected_uniform_fixture(self, uniform2):
        samples = sample_symbolic(uniform2, 1.0, 400000, 25, seed=5)
        slope, _ = estimate_projected_dim(samples, Projection.X)
        assert abs(slope - np.log(2) / np.log(3)) <= 0.1

    def test_projected_atom(self):
        samples = synthetic_samples(np.tile([0.3, 0.3], (1000, 1)))
        slope, _ = estimate_projected_dim(samples, Projection.Y, centers=[0.3],
                                          radii=RADII)
        assert abs(slope) <= 1e-9

    def test_box_count_uniform(self):
        rng = np.random.Generator(np.random.Philox(123))
        samples = synthetic_samples(rng.random((10 ** 6, 2)))
        slope = box_count(samples, 2.0 ** np.arange(-2, -8, -1))
        assert abs(slope - 2.0) <= 0.1

    def test_box_count_segment(self):
        rng = np.random.Generator(np.random.Philox(124))
        pts = np.column_stack([rng.random(10 ** 5), np.full(10 ** 5, 0.5)])
        slope = box_count(synthetic_samples(pts), 2.0 ** np.arange(-2, -8, -1))
        assert abs(slope - 1.0) <= 0.1

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.inf, np.nan])
    def test_radii_rejected_by_value(self, bad):
        samples = synthetic_samples(np.tile([0.4, 0.6], (1000, 1)))
        with pytest.raises(ValueError, match=re.escape(f"above 0.0; got [0.1, 0.05, {bad!r}]")):
            estimate_local_dimension(samples, [(0.4, 0.6)], [0.1, 0.05, bad])

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.inf, np.nan, 2.0 ** -31, 1e-30])
    def test_box_count_rejects_scales_by_value(self, bad):
        samples = synthetic_samples(np.tile([0.4, 0.6], (10, 1)))
        with pytest.raises(ValueError, match=re.escape(f"scales, each finite and above "
                                                        f"{2.0 ** -31!r}; got [0.5, 0.25, {bad!r}]")):
            box_count(samples, [0.5, 0.25, bad])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_sorted_counts_match_the_full_pass(self, data):
        # counts, slopes, stderrs and TooFewHits texts bit for bit, on 2-D and
        # 1-D values; the box count over the same points and scales
        samples, centers, radii = draw_estimator_input(data)
        for values, cs, estimate in (
                (samples.points, centers, estimate_local_dimension),
                (samples.points[:, 0], centers[:, 0],
                 lambda smp, c, r: estimate_projected_dim(smp, Projection.X, c, r)),
                (samples.points[:, 1], centers[:, 1],
                 lambda smp, c, r: estimate_projected_dim(smp, Projection.Y, c, r))):
            got, fractions = with_fractions(estimate, samples, cs, radii)
            want = [count_fractions_reference(values, c, radii) for c in cs[:len(fractions)]]
            assert [f.tobytes() for f in fractions] == [f.tobytes() for f in want]
            assert repr(got) == repr(outcome(fit_slopes_reference, values, cs, radii))
        assert repr(outcome(box_count, samples, radii)) == \
            repr(outcome(box_count_reference, samples.points, radii))

    def test_too_few_hits_prints_a_1d_center_as_a_float(self):
        samples = synthetic_samples(np.tile([0.3, 0.3], (49, 1)))
        with pytest.raises(TooFewHits, match=r"hits at center 0\.3 for the radius grid"):
            estimate_projected_dim(samples, Projection.X, np.array([0.3]), RADII)

    def test_local_estimate_peak_stays_near_the_point_array(self, ex1):
        # the sort and its windows hold a few columns at a time; a centers x
        # points distance matrix would take ten point arrays at 20 centers
        samples = sample_symbolic(ex1, 1.0, 200_000, 25, seed=7)
        centers = default_centers(samples)
        tracemalloc.start()
        try:
            estimate_local_dimension(samples, centers, RADII)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * samples.points.nbytes

    def test_sample_set_sorts_by_x_once(self, ex1):
        samples = sample_symbolic(ex1, 1.0, 20_000, 12, seed=5)
        assert samples.points.flags.f_contiguous
        columns = samples.sorted_by_x
        want = samples.points[np.argsort(samples.points[:, 0])]
        assert len(columns) == 2
        for got, col in zip(columns, want.T, strict=True):
            assert got.dtype == col.dtype and got.tobytes() == col.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
        again = samples.sorted_by_x
        assert again is columns and all(a is b for a, b in zip(again, columns))
        assert "sorted_by_x" not in {f.name for f in dataclasses.fields(samples)}
        assert "sorted_by_x" not in repr(synthetic_samples([[0.5, 0.5]]))

    def test_projected_x_reuses_the_local_estimate_sort(self, ex1):
        # re-sorting x would hold an index and a sorted column: one point array
        samples = sample_symbolic(ex1, 1.0, 200_000, 25, seed=7)
        estimate_local_dimension(samples, default_centers(samples), RADII)
        tracemalloc.start()
        try:
            estimate_projected_dim(samples, Projection.X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * samples.points.nbytes

    def test_box_count_keys_distinct_at_the_smallest_scale(self):
        # the cell index of 1.0 just below 2^31 still fits the key's 32 bits
        corners = synthetic_samples([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert abs(box_count(corners, [0.5, 0.25, np.nextafter(2.0 ** -31, 1.0)])) <= 1e-12


class TestStripOracle:
    def test_randomized_queries_respect_bound(self, ex1):
        sstar = affinity_dimension(ex1)
        rng = np.random.Generator(np.random.Philox(31337))
        for _ in range(10):
            n = int(rng.integers(1, 4))
            prefix = tuple(int(x) for x in rng.integers(1, 3, n))
            rel = float(rng.uniform(0.2, 0.9))
            res = strip_measure_oracle(ex1, sstar, prefix, rel, extension_cap=6)
            assert res.log_mu_lower <= res.log_mu_upper
            assert res.log_mu_upper <= res.log_bound + np.log1p(1e-9)

    def test_bound_in_logs_at_tiny_ratios(self):
        # C = up / lo^2 is about e^1874 here: the linear bound is inf
        spec = make_spec([diag(5.48e-280, 4.00e-17, 0.0, 0.0),
                          anti(8.11e-260, 2.28e-181, 0.5, 0.5)])
        results = {}
        for prefix in [(1,), (2,), (1, 2)]:
            res = results[prefix] = strip_measure_oracle(spec, 1.0, prefix, 0.5, extension_cap=4)
            assert np.isfinite([res.log_mu_upper, res.log_bound]).all(), prefix
            assert res.log_mu_upper <= res.log_bound
        assert results[(1,)].log_bound > np.log(np.finfo(float).max)
        assert results[(2,)].log_mu_upper < np.log(1e-300)

    def test_interval_mass_in_logs_below_the_smallest_double(self, ex1):
        # every mass scaled by e^-2000 walks the same cells, and both logs shift
        m1 = kaenmaki_measure(ex1, 0.8).m1
        low = dataclasses.replace(m1, log_stationary=m1.log_stationary - 2000.0)
        log_p, log_q, _ = product_signature((1,), ex1)
        alpha1, alpha2 = np.exp(max(log_p, log_q)), np.exp(min(log_p, log_q))
        finite = []
        for rel in (1e-2, 1e-6 * alpha2 / alpha1):  # decided, then undecided mass
            _, _, *base = sampling._frame_walk(ex1, (1,), rel, 6, m1, (0, 1))
            _, _, *lowered = sampling._frame_walk(ex1, (1,), rel, 6, low, (0, 1))
            assert np.array(lowered) == pytest.approx(np.subtract(base, 2000.0), rel=1e-14)
            finite.append(np.isfinite(lowered))
        assert np.array(finite).any(axis=0).all()

    def test_full_cover_returns_prefix_mass_exactly(self, central_fixture):
        res = strip_measure_oracle(central_fixture, 0.9, (1,), 1.0, extension_cap=5)
        expected = kaenmaki_measure(central_fixture, 0.9).log_cylinder((1,))
        assert res.covered
        assert res.log_mu_lower == expected and res.log_mu_upper == expected

    def test_cover_is_decided_on_the_exact_slab(self):
        # map 1 fixes y = 0.5 up to rounding: the rounded slab of width 1 spans [0, 1],
        # the exact one misses an end, so (1,) is decided and (2,), (3,) straddle
        e = math.exp(-1)
        spec = make_spec([diag(e, 0.493438367776135, 0.0, 0.25328081611193254),
                          anti(e, e, 0.6321205588285577, 0.0),
                          anti(e, 0.1353352832366127, 0.0, 0.0)])
        assert strip_family_oracle(spec, (1,), 1.0, 1) == ([(1,)], [(2,), (3,)])
        nu = kaenmaki_measure(spec, 1.0)
        res = strip_measure_oracle(spec, 1.0, (1,), 1.0, extension_cap=1)
        assert not res.covered and res.undecided
        assert res.log_mu_lower == pytest.approx(nu.log_cylinder((1, 1)), rel=1e-12)
        assert res.log_mu_upper == pytest.approx(nu.log_cylinder((1,)), rel=1e-12)

    def test_full_cover_projects_every_lift(self, central_fixture):
        # the cover by the empty word's cell counts every lift on the projected
        # side: nu's total mass 1 forward, the chain's unshifted half in reverse
        nu = kaenmaki_measure(central_fixture, 0.9)
        res = strip_measure_oracle(central_fixture, 0.9, (1,), 1.0, extension_cap=5)
        log_lo, log_up = nu.log_envelope()
        log_proj = res.log_bound - (log_up - 2.0 * log_lo) - nu.log_cylinder((1,))
        assert res.covered and log_proj == pytest.approx(0.0, abs=1e-14)
        for t, g in ((1, nu.m1), (2, shifted_chain(nu.m1))):
            rev = strip_reverse_oracle(central_fixture, 0.9, (1,), 1.0, extension_cap=5, t=t)
            log_c = np.min(g.log_rows.ravel() - g.log_stationary)
            log_w = g.log_cylinder_batch(np.array([[0]]))[0]
            log_u = np.logaddexp.reduce(g.log_stationary[:central_fixture.d])
            assert rev.log_rhs_lower == rev.log_rhs_upper == pytest.approx(
                log_c + log_w + log_u, rel=1e-14)
            assert rev.log_mu_lower == rev.log_mu_upper == log_w

    def test_tiny_radius_surfaces_undecided(self, ex1):
        sstar = affinity_dimension(ex1)
        log_p, log_q, _ = product_signature((1,), ex1)
        alpha1, alpha2 = np.exp(max(log_p, log_q)), np.exp(min(log_p, log_q))
        res = strip_measure_oracle(ex1, sstar, (1,), alpha2 / alpha1 * 1e-6, extension_cap=6)
        assert res.undecided
        assert res.log_mu_upper > res.log_mu_lower

    def test_reverse_bound_even_prefixes(self, ex1):
        sstar = affinity_dimension(ex1)
        for prefix in [(1, 1), (2, 2), (1, 2, 2)]:
            for t in (1, 2):
                rev = strip_reverse_oracle(ex1, sstar, prefix, 0.5, extension_cap=6, t=t)
                assert rev.log_mu_lower >= rev.log_rhs_lower + np.log1p(-1e-9)
                assert rev.log_mu_upper >= rev.log_rhs_upper + np.log1p(-1e-9)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(maps=full_box_system(max_d=4),
           symbols=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           rel=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-3, 1.0)),
           cap=st.integers(1, 4), s=st.floats(0.1, 1.9))
    # map 2 fixes the corner (1, 1), and the slab of prefix (1,) ends within
    # rounding below it: unwidened, the cell (1, 2) rounds inside and is decided
    @example(maps=[diag(0.42, 0.35, 0.3770482226242554, 0.0),
                   anti(0.37, 0.18, 0.63, 0.8200000000000001)],
             symbols=[1], rel=0.6998337150887745, cap=3, s=1.0)
    # prefix (1, 2, 1, 2) is (1, 2) twice, so its sides tie exactly (vertical axis), but
    # log_p rounds above log_q: on the horizontal axis the walk decided a straddling cell
    @example(maps=[diag(math.exp(-1), 0.16871758231681616, 0.0, 0.0),
                   anti(2.990107714479963e-145, 1e-300, 0.0, 1.0)],
             symbols=[1, 2, 1, 2], rel=0.25, cap=1, s=1.0)
    def test_walk_brackets_the_exact_family(self, maps, symbols, rel, cap, s):
        # the walk's brackets contain the sums over the exact-rational global-frame
        # families, for nu and, at axis-preserving prefixes, for the reverse leg of
        # each chain; rounding may only move cells from decided to undecided
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSystemWarning)
            spec = make_spec(maps)
        assume(check_strong_separation(spec).strong_separation)
        prefix = tuple((i - 1) % spec.d + 1 for i in symbols)
        nu = kaenmaki_measure(spec, s)
        families = strip_family_oracle(spec, prefix, rel, cap)

        def brackets(log_mass, head=()):  # log sums of mass(head + v): decided, then all
            lower, undecided = (np.logaddexp.reduce([log_mass(head + v) for v in family])
                                for family in families)
            return lower, np.logaddexp(lower, undecided)

        def contains(outer, inner):
            return all(a <= b or a == pytest.approx(b, rel=1e-12)
                       for a, b in ((outer[0], inner[0]), (inner[1], outer[1])))

        res = strip_measure_oracle(spec, s, prefix, rel, cap)
        assert contains((res.log_mu_lower, res.log_mu_upper), brackets(nu.log_cylinder, prefix))
        if sum(i >= spec.l for i in prefix) % 2:
            return
        for t, g in ((1, nu.m1), (2, shifted_chain(nu.m1))):
            def log_mt(word):  # the chain's mass of the word's lift; of every lift if empty
                if not word:
                    return np.logaddexp.reduce(g.log_stationary[:spec.d])
                return g.log_cylinder_batch(tau_arrays(np.array([word]), spec) - 1)[0]

            rev = strip_reverse_oracle(spec, s, prefix, rel, cap, t=t)
            log_c = float(np.min(g.log_rows.ravel() - g.log_stationary))
            assert contains((rev.log_mu_lower, rev.log_mu_upper), brackets(log_mt, prefix))
            assert contains((rev.log_rhs_lower, rev.log_rhs_upper),
                            np.add(log_c + log_mt(prefix), brackets(log_mt)))

    def test_reverse_rejects_odd_prefix(self, ex1):
        with pytest.raises(ValueError, match="axis-preserving"):
            strip_reverse_oracle(ex1, 1.0, (2,), 0.1, extension_cap=4)

    @pytest.mark.parametrize("t", [0, 3, -1])
    def test_reverse_rejects_a_chain_other_than_one_or_two(self, ex1, t):
        # nu has the two chains m1 and m2 only: no other t reads one of them
        with pytest.raises(ValueError, match=f"chain t={t} must be 1 or 2"):
            strip_reverse_oracle(ex1, 1.0, (1,), 0.5, extension_cap=4, t=t)

    @pytest.mark.parametrize("oracle", [strip_measure_oracle, strip_reverse_oracle])
    @pytest.mark.parametrize("prefix, rel", [((1,), 0.0), ((1,), 1.5), ((1,), float("nan")),
                                             ((0,), 0.5), ((1, 3), 0.5)])
    def test_rejects_bad_width_or_prefix(self, ex1, oracle, prefix, rel):
        # ex1 has d = 2: a prefix holding 0 or 3 is not a word
        with pytest.raises(ValueError, match="word symbols|strip width"):
            oracle(ex1, 1.0, prefix, rel, 4)


class TestRender:
    def test_empty_sample_black(self, tmp_path):
        samples = synthetic_samples(np.empty((0, 2)))
        out = tmp_path / "empty.pgm"
        render_attractor(samples, 16, out)
        data = out.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert set(data[len(b"P5\n16 16\n255\n"):]) == {0}

    def test_single_origin_point(self, tmp_path):
        samples = synthetic_samples(np.array([[0.0, 0.0]]))
        out = tmp_path / "dot.pgm"
        render_attractor(samples, 32, out)
        body = out.read_bytes()[len(b"P5\n32 32\n255\n"):]
        img = np.frombuffer(body, dtype=np.uint8).reshape(32, 32)
        nz = np.argwhere(img > 0)
        assert nz.tolist() == [[31, 0]]  # bottom-left: row 0 is the top

    def test_header_and_determinism(self, ex1, tmp_path):
        samples = sample_symbolic(ex1, 1.0, 20000, 20, seed=3)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        render_attractor(samples, 512, p1)
        render_attractor(samples, 512, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1.startswith(b"P5\n512 512\n255\n")
        assert b1 == b2

    def test_px_bounds(self, ex1):
        samples = sample_symbolic(ex1, 1.0, 10, 5, seed=3)
        with pytest.raises(ValueError):
            render_attractor(samples, 8, "/tmp/never.pgm")


class TestCsv:
    def test_csv_shape_and_determinism(self, ex1, tmp_path):
        samples = sample_symbolic(ex1, 1.0, 50, 8, seed=17)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(samples, p1)
        write_csv(samples, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "x,y,word"
        assert len(lines) == 51
        x, y, word = lines[1].split(",")
        assert len(word) == 8 and set(word) <= {"1", "2"}
        assert 0 <= float(x) <= 1 and 0 <= float(y) <= 1

    def test_word_column_separator_for_two_digit_symbols(self, tmp_path):
        points = np.array([[0.25, 0.5], [0.1, 0.2]])
        short = SampleSet(points=points, words=np.array([[4, 9, 3], [1, 1, 2]]),
                          seed=0, depth=3, accuracy=0.0)
        wide = SampleSet(points=points, words=np.array([[4, 10, 3], [1, 1, 2]]),
                         seed=0, depth=3, accuracy=0.0)
        assert "".join(csv_lines(short)) == "x,y,word\n0.25,0.5,493\n0.1,0.2,112\n"
        with mock.patch.object(sampling, "CSV_BLOCK_ROWS", 1):  # the separator is set-wide
            write_csv(wide, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text() == "x,y,word\n0.25,0.5,4-10-3\n0.1,0.2,1-1-2\n"


# coordinates whose repr is positional, scientific, subnormal or at the square's edges
SPECIAL_COORDS = [0.0, 1.0, 1e-5, 1e-4, 1e-300, 5e-324, 2.5e-310, 1e16, 1.5e-7,
                  0.1, 1 / 3, 0.9999999999999999]


def bits_to_float(bits):
    return float(np.int64(bits).view(np.float64))


# floats for the shortest-digit kernel: raw bit patterns over [2^-34, 1]; the ends
# of its range [1e-4, 1) and their neighbours; power-of-two significands, whose
# rounding interval is asymmetric; short decimals; and SPECIAL_COORDS
KERNEL_FLOATS = st.one_of(
    st.integers(int(np.float64(2.0 ** -34).view(np.int64)),
                int(np.float64(1.0).view(np.int64))).map(bits_to_float),
    st.sampled_from([float(v) for e in (1e-4, 1.0) for v in
                     (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))]),
    st.sampled_from([0.5, 0.25, 2.0 ** -13]),
    st.text("0123456789", min_size=1, max_size=16).map(lambda digits: float("0." + digits)),
    st.sampled_from(SPECIAL_COORDS))


def tiny_ratio_box_system():
    """System 72 of the full-box draw (d = 5): at s = 1, 13% of its sampled
    coordinates lie below 1e-4, where CSV coordinates take repr."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        return parse_ifs(json.dumps(next(itertools.islice(full_box_draw(73), 72, None))))


class TestCsvOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_row_loop(self, data):
        d = data.draw(st.integers(2, 12))
        n, depth = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 12))
        word_rows = st.lists(st.integers(1, d), min_size=depth, max_size=depth)
        words = np.array(data.draw(st.lists(word_rows, min_size=n, max_size=n)),
                         order=data.draw(st.sampled_from("CF")))
        coord = st.one_of(st.sampled_from(SPECIAL_COORDS), st.floats(0.0, 1.0))
        points = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
        samples = SampleSet(points=points, words=words, seed=0, depth=depth, accuracy=0.0)
        block = data.draw(st.integers(1, n + 1))
        with mock.patch.object(sampling, "CSV_BLOCK_ROWS", block):
            assert "".join(csv_lines(samples)) == csv_text_loop(points, words)

    @pytest.mark.parametrize("system, seed", [
        pytest.param(lambda: grid_spec(3, n_anti=2), 3, id="3"),
        pytest.param(lambda: grid_spec(12, n_anti=2), 12, id="12"),
        pytest.param(lambda: grid_spec(200, 67, seed=200), 200, id="200"),  # three digits
        pytest.param(tiny_ratio_box_system, 72, id="tiny-ratio")])
    def test_sample_set_matches_row_loop(self, system, seed):
        samples = sample_symbolic(system(), 1.0, 5000, 15, seed=seed)
        with mock.patch.object(sampling, "CSV_BLOCK_ROWS", 1234):
            assert "".join(csv_lines(samples)) == csv_text_loop(samples.points, samples.words)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(KERNEL_FLOATS, min_size=1, max_size=64))
    def test_kernel_text_is_repr(self, values):
        rows = _repr_matrix(np.array(values, dtype=np.float64))
        assert [row[row != 0].tobytes().decode("ascii") for row in rows] == list(map(repr, values))

    def test_few_coordinates_reach_repr(self, ex1):
        # sample's own s; at the parent every one of the 4e4 coordinates took repr
        samples = sample_symbolic(ex1, affinity_dimension(ex1), 20_000, 25, seed=1)
        counted = mock.Mock(side_effect=repr)
        with mock.patch.object(sampling, "repr", counted, create=True):
            text = "".join(csv_lines(samples))
        assert 0 < counted.call_count <= 0.05 * 40_000
        assert text == csv_text_loop(samples.points, samples.words)


class TestTrajectoryDiagnostics:
    def test_exponent_concentration_small(self, ex1):
        from kaenmaki import lyapunov_exponents
        chi1, chi2 = lyapunov_exponents(ex1, 1.0)
        samples = sample_symbolic(ex1, 1.0, 100, 200, seed=303)
        lp, lq, *_ = signature_arrays(samples.words, ex1)
        est1 = -np.maximum(lp, lq) / 200
        est2 = -np.minimum(lp, lq) / 200
        assert abs(est1.mean() - chi1) <= 4 * est1.std(ddof=1) / 10
        assert abs(est2.mean() - chi2) <= 4 * est2.std(ddof=1) / 10

    def test_default_centers_deterministic(self, ex1):
        samples = sample_symbolic(ex1, 1.0, 5000, 15, seed=8)
        c1 = default_centers(samples, 10)
        c2 = default_centers(samples, 10)
        assert np.array_equal(c1, c2)
