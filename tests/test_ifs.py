import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    EX1_JSON,
    UNIT_SQUARE,
    anti,
    diag,
    full_box_system,
    map_image,
    projection_ssc_oracle,
    random_spec,
    separation_oracle,
)
from kaenmaki import (
    AffineMap2D,
    MapKind,
    check_projection_ssc,
    check_strong_separation,
    check_transversality,
    make_spec,
    parse_ifs,
    thermo,
)
from kaenmaki.coding import product_signature
from kaenmaki.errors import (
    DegenerateSystemWarning,
    MalformedConfig,
    NoAntiDiagonal,
    NoDiagonal,
    NonContracting,
    SquareEscape,
)


class TestParse:
    def test_ex1(self):
        spec = parse_ifs(EX1_JSON)
        assert spec.d == 2 and spec.l == 2
        assert not spec.maps[0].anti and spec.maps[1].anti
        assert spec.maps[0].a == pytest.approx(1 / 3)

    def test_single_diagonal_only(self):
        with pytest.raises(NoAntiDiagonal):
            parse_ifs('{"maps": [{"kind": "diag", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}]}')

    def test_anti_only(self):
        with pytest.raises(NoDiagonal):
            parse_ifs('{"maps": [{"kind": "anti", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}]}')

    def test_non_contracting(self):
        with pytest.raises(NonContracting):
            parse_ifs('{"maps": [{"kind": "diag", "a": 1.1, "b": 0.2, "tx": 0, "ty": 0},'
                      '{"kind": "anti", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}]}')

    def test_square_escape(self):
        with pytest.raises(SquareEscape):
            parse_ifs('{"maps": [{"kind": "diag", "a": 0.5, "b": 0.2, "tx": 0.6, "ty": 0},'
                      '{"kind": "anti", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}]}')

    def test_malformed(self):
        with pytest.raises(MalformedConfig):
            parse_ifs("{not json")
        with pytest.raises(MalformedConfig):
            parse_ifs('{"nope": 1}')
        with pytest.raises(MalformedConfig):
            parse_ifs('{"maps": [{"kind": "diag", "a": 0.3}]}')

    def test_reorders_diagonal_first(self):
        spec = parse_ifs(
            '{"maps": ['
            '{"kind": "anti", "a": 0.2, "b": 0.2, "tx": 0.7, "ty": 0.7},'
            '{"kind": "diag", "a": 0.3, "b": 0.1, "tx": 0, "ty": 0},'
            '{"kind": "diag", "a": 0.25, "b": 0.15, "tx": 0.4, "ty": 0.4}]}')
        assert spec.d == 3 and spec.l == 3
        # relative order preserved inside each block
        assert spec.maps[0].a == 0.3 and spec.maps[1].a == 0.25 and spec.maps[2].a == 0.2
        assert spec.a.tolist() == [0.3, 0.25, 0.2] and spec.tx.tolist() == [0.0, 0.4, 0.7]

    def test_degenerate_warns(self):
        with pytest.warns(DegenerateSystemWarning):
            make_spec([diag(0.3, 0.3, 0.0, 0.0), anti(0.2, 0.4, 0.5, 0.5)])

    def test_config_s_carried(self):
        spec = parse_ifs(
            '{"maps": [{"kind": "diag", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0},'
            '{"kind": "anti", "a": 0.3, "b": 0.2, "tx": 0.5, "ty": 0.5}], "s": 1.25}')
        assert spec.s == 1.25


FIELDS = ("a", "b", "tx", "ty")


def assert_fields_in_map_order(spec):
    for name in FIELDS:
        values = getattr(spec, name)
        assert values.dtype == np.float64, name
        assert values.tolist() == [getattr(m, name) for m in spec.maps], name


class TestSpecArrays:
    def test_ex1_fields_in_map_order(self, ex1):
        assert_fields_in_map_order(ex1)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(full_box_system())
    def test_drawn_fields_in_map_order(self, maps):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSystemWarning)
            assert_fields_in_map_order(make_spec(maps))

    def test_read_only(self, ex1):
        for name in FIELDS:
            with pytest.raises(ValueError):
                getattr(ex1, name)[0] = 0.5

    def test_outside_repr_equality_and_hash(self):
        # derived from maps: two parses of one config are one cache key
        first, second = parse_ifs(EX1_JSON), parse_ifs(EX1_JSON)
        assert first is not second and first.a is not second.a
        assert first == second and hash(first) == hash(second)
        assert repr(first) == f"IfsSpec(maps={first.maps!r}, d=2, l=2, s=None)"

    def test_second_parse_hits_the_chain_cache(self):
        thermo.gibbs_markov(parse_ifs(EX1_JSON), 0.9)
        hits = thermo.gibbs_markov.cache_info().hits
        thermo.gibbs_markov(parse_ifs(EX1_JSON), 0.9)
        assert thermo.gibbs_markov.cache_info().hits == hits + 1


@st.composite
def edge_translation(draw, ratio):
    """A translation at 0 or at 1 - ratio, or one ulp either side of it."""
    base = draw(st.sampled_from([0.0, 1.0 - ratio]))
    return float(np.nextafter(base, draw(st.sampled_from([-np.inf, base, np.inf]))))


class TestMapImage:
    def test_ex1_anti_on_unit_square(self, ex1):
        assert map_image(ex1.map(2), UNIT_SQUARE) == (0.5, 0.75, 0.5, 0.7)

    def test_ex1_diag_on_unit_square(self, ex1):
        x0, x1, y0, y1 = map_image(ex1.map(1), UNIT_SQUARE)
        assert x0 == 0.0 and y0 == 0.0
        assert x1 == pytest.approx(1 / 3, abs=0) and y1 == pytest.approx(1 / 5, abs=0)

    def test_zero_area(self, ex1):
        x0, x1, y0, y1 = map_image(ex1.map(2), (0.25, 0.25, 0.1, 0.9))
        assert y1 - y0 == 0.0  # anti-diagonal: zero width becomes zero height
        assert x1 - x0 == pytest.approx(0.25 * 0.8)

    @settings(max_examples=300, derandomize=True)
    @given(st.data())
    def test_square_escape_exactly_when_the_image_leaves(self, data):
        # the check reads [tx, tx + a] x [ty, ty + b] off the translations;
        # it must agree with the exact image, ulp for ulp at the edges
        kind = data.draw(st.sampled_from(MapKind))
        a, b = (data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
                for _ in range(2))
        tx, ty = data.draw(edge_translation(a)), data.draw(edge_translation(b))
        m = SimpleNamespace(anti=kind is MapKind.ANTI_DIAGONAL, a=a, b=b, tx=tx, ty=ty)
        x0, x1, y0, y1 = map_image(m, UNIT_SQUARE)
        leaves = not (0.0 <= x0 and x1 <= 1.0 and 0.0 <= y0 and y1 <= 1.0)
        if leaves:
            with pytest.raises(SquareEscape) as exc:
                AffineMap2D(kind=kind, a=a, b=b, tx=tx, ty=ty)
            assert str(exc.value) == \
                f"SquareEscape: image [{x0}, {x1}] x [{y0}, {y1}] leaves the unit square"
        else:
            AffineMap2D(kind=kind, a=a, b=b, tx=tx, ty=ty)

    def test_sides_match_singular_values(self, ex1):
        # composed image of the unit square has sides equal to the two
        # singular values tracked by the product signature
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            w = tuple(int(x) for x in rng.integers(1, ex1.d + 1, n))
            rect = UNIT_SQUARE
            for i in reversed(w):
                rect = map_image(ex1.map(i), rect)
            width, height = rect[1] - rect[0], rect[3] - rect[2]
            p, q = np.exp(product_signature(w, ex1)[:2])
            assert width == pytest.approx(p, rel=1e-12)
            assert height == pytest.approx(q, rel=1e-12)
            assert {round(width, 15), round(height, 15)} == \
                   {round(max(p, q), 15), round(min(p, q), 15)}


class TestSeparation:
    def test_ex1_separated(self, ex1):
        rep = check_strong_separation(ex1)
        assert rep.strong_separation and rep.failing_pair is None
        assert rep.min_gap == pytest.approx(0.3)

    def test_identical_translations_fail(self):
        spec = make_spec([diag(0.3, 0.2, 0.0, 0.0), anti(0.3, 0.2, 0.0, 0.0)])
        rep = check_strong_separation(spec)
        assert not rep.strong_separation
        assert rep.failing_pair == (1, 2)
        assert rep.min_gap == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, d=3)
        base = check_strong_separation(spec).min_gap
        # swapping maps inside a kind block does not change the gap
        maps = list(spec.maps)
        diag_idx = [k for k, m in enumerate(maps) if not m.anti]
        if len(diag_idx) >= 2:
            maps[diag_idx[0]], maps[diag_idx[1]] = maps[diag_idx[1]], maps[diag_idx[0]]
        swapped = make_spec(maps)
        assert check_strong_separation(swapped).min_gap == pytest.approx(base, abs=0)


@st.composite
def dyadic_maps(draw):
    """(kind, a, b, tx, ty) for 2..6 maps on a grid of step 2^-k, k <= 4, with
    at least one map of each kind: every ratio, translation, corner and gap
    is exact in binary, and rectangles and intervals often touch exactly."""
    den = 2 ** draw(st.integers(1, 4))
    d = draw(st.integers(2, 6))
    n_diag = draw(st.integers(1, d - 1))
    maps = []
    for k in range(d):
        a, b = draw(st.integers(1, den - 1)), draw(st.integers(1, den - 1))
        tx, ty = draw(st.integers(0, den - a)), draw(st.integers(0, den - b))
        maps.append((k < n_diag, a / den, b / den, tx / den, ty / den))
    return maps


def spec_of(maps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        return make_spec([(diag if is_diag else anti)(*m) for is_diag, *m in maps])


class TestExactCertificates:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(dyadic_maps())
    @example([(True, 0.5, 0.5, 0.0, 0.0), (False, 0.5, 0.5, 0.5, 0.0)])  # share an edge
    @example([(True, 0.5, 0.5, 0.0, 0.0), (False, 0.5, 0.5, 0.5, 0.5)])  # share a corner
    @example([(True, 0.25, 0.5, 0.0, 0.0), (False, 0.5, 0.25, 0.5, 0.75),
              (True, 0.25, 0.25, 0.25, 0.5)])  # meet only in y; x-intervals touch
    def test_certificates_match_rational_oracle(self, maps):
        spec = spec_of(maps)
        rep = check_strong_separation(spec)
        min_gap, failing = separation_oracle(spec)
        assert Fraction(rep.min_gap) == min_gap
        assert rep.failing_pair == failing
        assert rep.strong_separation == (min_gap > 0)
        assert check_projection_ssc(spec) == projection_ssc_oracle(spec)


class TestTransversality:
    def test_ex1_values(self, ex1):
        rep = check_transversality(ex1)
        assert rep.u == pytest.approx((1 / 3, 1 / 20))
        assert rep.v == pytest.approx((1 / 5, 1 / 20))
        assert rep.holds

    def test_large_ratios_fail(self):
        with pytest.warns(DegenerateSystemWarning):
            spec = make_spec([diag(0.6, 0.6, 0.0, 0.0), diag(0.6, 0.6, 0.4, 0.4),
                              anti(0.6, 0.6, 0.2, 0.2)])
        assert not check_transversality(spec).holds

    def test_norm_sufficient_implies_holds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            spec = random_spec(rng)
            rep = check_transversality(spec)
            if rep.norm_sufficient:
                assert rep.holds

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(dyadic_maps())
    def test_holds_matches_pair_loop(self, maps):
        # dyadic ratios put many pair sums exactly at 1, where the test is strict
        spec = spec_of(maps)
        rep = check_transversality(spec)
        anti_maps = [m for m in spec.maps if m.anti]
        max_a, max_b = max(m.a for m in anti_maps), max(m.b for m in anti_maps)
        u = [m.a * max_b if m.anti else m.a for m in spec.maps]
        v = [m.b * max_a if m.anti else m.b for m in spec.maps]
        assert rep.u == tuple(u) and rep.v == tuple(v)
        assert type(rep.u) is tuple and type(rep.v) is tuple
        assert all(type(x) is float for x in rep.u + rep.v)
        assert rep.norm_sufficient == all(
            max(m.a, m.b) < (0.5 if not m.anti else 0.5 ** 0.5) for m in spec.maps)
        assert rep.holds == all(u[i] + u[j] < 1.0 and v[i] + v[j] < 1.0
                                for i in range(spec.d) for j in range(spec.d) if i != j)

    def test_norm_sufficient_boundaries(self):
        spec = make_spec([diag(0.45, 0.3, 0.0, 0.0), anti(0.65, 0.6, 0.3, 0.35)])
        rep = check_transversality(spec)
        assert rep.norm_sufficient  # diag below 1/2, anti below 1/sqrt(2)
        assert rep.holds
