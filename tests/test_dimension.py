import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import UNIT_SQUARE, all_words, anti, diag, map_image, random_spec
from kaenmaki import (
    ProjectedDim,
    ProjectedMode,
    ThermoSummary,
    affinity_dimension,
    check_projection_ssc,
    dimension_report,
    entropy,
    ly_dimension,
    lyapunov_exponents,
    make_spec,
    projected_dimension,
)
from kaenmaki.coding import encode_tau
from kaenmaki import dimension
from kaenmaki.errors import InternalMismatch, NoCertificate


def summary_with(h, chi1, chi2):
    return ThermoSummary(s=1.0, pressure=0.0, entropy=h, chi1=chi1, chi2=chi2,
                         affinity_dim=1.0)


def line_maps(spec):
    """(ratios, offsets) of the 2d interval contractions of the doubled alphabet:
    a_i, tx_i for unshifted symbols, b_(i-d), ty_(i-d) for shifted ones."""
    ratios = np.array([m.a for m in spec.maps] + [m.b for m in spec.maps])
    offsets = np.array([m.tx for m in spec.maps] + [m.ty for m in spec.maps])
    return ratios, offsets


def interval(spec, i):
    """Image of [0, 1] under the interval map of 1-based doubled symbol i."""
    ratios, offsets = line_maps(spec)
    return (offsets[i - 1], offsets[i - 1] + ratios[i - 1])


class TestLineSystem:
    def test_ex1_intervals(self, ex1):
        assert interval(ex1, 1) == pytest.approx((0.0, 1 / 3))
        assert interval(ex1, 2) == pytest.approx((0.5, 0.75))
        assert interval(ex1, 3) == pytest.approx((0.0, 0.2))
        assert interval(ex1, 4) == pytest.approx((0.5, 0.7))

    def test_projection_identity_exhaustive(self, ex1):
        # x-extent of the planar cylinder equals the interval of the lift
        ratios, offsets = line_maps(ex1)
        for n in range(1, 7):
            for w in all_words(2, n):
                rect = UNIT_SQUARE
                for i in reversed(w):
                    rect = map_image(ex1.map(int(i)), rect)
                lo, hi = 0.0, 1.0
                for c in reversed(encode_tau(w, ex1)):
                    r, off = ratios[c - 1], offsets[c - 1]
                    lo, hi = r * lo + off, r * hi + off
                assert rect[0] == pytest.approx(lo, abs=1e-14)
                assert rect[1] == pytest.approx(hi, abs=1e-14)

    def test_symmetric_input_collapses(self):
        from kaenmaki.errors import DegenerateSystemWarning
        with pytest.warns(DegenerateSystemWarning):
            spec = make_spec([diag(0.3, 0.3, 0.1, 0.1), anti(0.2, 0.2, 0.6, 0.6)])
        for i in (1, 2):
            assert interval(spec, i) == interval(spec, i + spec.d)

    def test_ssc_certificate_ex1(self, ex1):
        assert check_projection_ssc(ex1)

    def test_ssc_fails_on_overlap(self):
        spec = make_spec([diag(0.3, 0.25, 0.0, 0.0), anti(0.3, 0.25, 0.1, 0.6)])
        assert not check_projection_ssc(spec)


class TestProjectedDimension:
    def test_uniform_ssc_value(self, uniform2):
        proj = projected_dimension(uniform2, 1.0)
        assert proj.mode is ProjectedMode.SSC_FORMULA and proj.ssc_certified
        assert proj.value == pytest.approx(np.log(2) / np.log(3), abs=1e-12)

    def test_ex1_ssc_value(self, ex1):
        # the Monte Carlo estimate against this value: test_cli's
        # test_project_dim_monte_carlo_agrees_with_ssc
        s = affinity_dimension(ex1)
        proj = projected_dimension(ex1, s)
        assert proj.mode is ProjectedMode.SSC_FORMULA
        expected = entropy(ex1, s) / lyapunov_exponents(ex1, s)[0]
        assert proj.value == pytest.approx(expected, rel=1e-12)

    def test_expected_min_when_ssc_fails(self):
        spec = make_spec([diag(0.3, 0.25, 0.0, 0.0), anti(0.3, 0.25, 0.1, 0.6)])
        proj = projected_dimension(spec, 1.0)
        assert proj.mode is ProjectedMode.EXPECTED_MIN and not proj.ssc_certified
        h = entropy(spec, 1.0)
        chi1, _ = lyapunov_exponents(spec, 1.0)
        assert proj.value == pytest.approx(min(h / chi1, 1.0), rel=1e-12)

    @pytest.mark.parametrize("mode", [ProjectedMode.USER_SUPPLIED, ProjectedMode.MONTE_CARLO])
    def test_caller_built_modes_are_refused(self, ex1, mode):
        # the caller builds these; the formula's value must not carry their label
        with pytest.raises(ValueError, match="not a mode of the formula"):
            projected_dimension(ex1, 1.0, mode_request=mode)

    def test_no_certificate_on_explicit_request(self):
        spec = make_spec([diag(0.3, 0.25, 0.0, 0.0), anti(0.3, 0.25, 0.1, 0.6)])
        with pytest.raises(NoCertificate):
            projected_dimension(spec, 1.0, mode_request=ProjectedMode.SSC_FORMULA)

    def test_unknown_when_everything_fails(self):
        spec = make_spec([diag(0.6, 0.3, 0.0, 0.0), diag(0.6, 0.3, 0.1, 0.5),
                          anti(0.3, 0.3, 0.7, 0.05)])
        assert projected_dimension(spec, 1.0) is None


    def test_ssc_rounding_past_one_reads_as_one_without_a_warning(self, ex1, monkeypatch):
        # under the certificate h/chi1 < 1, so a ratio rounded past 1 reads as 1,
        # with no Python warning and no report note, and 1 + 1e-9 is a fault
        s = affinity_dimension(ex1)
        chi1, _ = lyapunov_exponents(ex1, s)
        monkeypatch.setattr(dimension, "entropy", lambda spec, s: chi1 * (1.0 + 1e-15))
        assert dimension.entropy(ex1, s) / chi1 > 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            proj = projected_dimension(ex1, s)
            rep = dimension_report(ex1, s)
        assert (proj.value, proj.mode) == (1.0, ProjectedMode.SSC_FORMULA)
        assert rep.projected == proj and rep.warnings == () and caught == []
        monkeypatch.setattr(dimension, "entropy", lambda spec, s: chi1 * (1.0 + 1e-9))
        with pytest.raises(InternalMismatch, match="exceeds 1"):
            projected_dimension(ex1, s)


class TestLyDimension:
    def test_first_branch(self):
        t = summary_with(h=0.5, chi1=1.0, chi2=1.5)
        p = ProjectedDim(value=0.5, mode=ProjectedMode.EXPECTED_MIN, ssc_certified=False)
        assert ly_dimension(t, p) == pytest.approx(0.5 / 1.0, abs=1e-12)

    def test_second_branch(self):
        t = summary_with(h=1.2, chi1=1.0, chi2=1.5)
        p = ProjectedDim(value=1.0, mode=ProjectedMode.EXPECTED_MIN, ssc_certified=False)
        assert ly_dimension(t, p) == pytest.approx(1 + (1.2 - 1.0) / 1.5, abs=1e-12)

    def test_equal_exponents_ignore_projection(self):
        t = summary_with(h=0.4, chi1=1.1, chi2=1.1)
        for value in (0.0, 0.37, 1.0):
            p = ProjectedDim(value=value, mode=ProjectedMode.USER_SUPPLIED,
                             ssc_certified=False)
            assert ly_dimension(t, p) == pytest.approx(0.4 / 1.1, abs=1e-12)

    @settings(max_examples=300, derandomize=True)
    @given(h=st.floats(0.01, 3.0), chi1=st.floats(0.01, 3.0), gap=st.floats(0.0, 2.0))
    def test_piecewise_identity(self, h, chi1, gap):
        chi2 = chi1 + gap
        t = summary_with(h=h, chi1=chi1, chi2=chi2)
        p = ProjectedDim(value=min(h / chi1, 1.0), mode=ProjectedMode.EXPECTED_MIN,
                         ssc_certified=False)
        expected = h / chi1 if h <= chi1 else 1 + (h - chi1) / chi2
        assert ly_dimension(t, p) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_projection(self):
        t = summary_with(h=0.7, chi1=0.9, chi2=1.4)
        values = [ly_dimension(t, ProjectedDim(v, ProjectedMode.USER_SUPPLIED, False))
                  for v in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestDimensionReport:
    def test_ex1_at_sstar_clean(self, ex1):
        s = affinity_dimension(ex1)
        rep = dimension_report(ex1, s)
        assert rep.warnings == ()
        assert rep.projected.mode is ProjectedMode.SSC_FORMULA
        assert rep.ly_dim == pytest.approx(s, rel=1e-10)
        assert rep.separation.strong_separation and rep.transversality.holds
        assert 0 < rep.ly_dim <= 2

    def test_overlap_warns(self):
        spec = make_spec([diag(0.3, 0.2, 0.0, 0.0), anti(0.3, 0.2, 0.0, 0.0)])
        rep = dimension_report(spec, 1.0)
        assert any("separation" in w for w in rep.warnings)

    def test_uniform_value(self, uniform2):
        rep = dimension_report(uniform2, 1.0)
        assert rep.ly_dim == pytest.approx(np.log(2) / np.log(3), rel=1e-12)
        assert any("degenerate" in w for w in rep.warnings)

    def test_unknown_projection_omits_value(self):
        spec = make_spec([diag(0.6, 0.3, 0.0, 0.0), diag(0.6, 0.3, 0.1, 0.5),
                          anti(0.3, 0.3, 0.7, 0.05)])
        rep = dimension_report(spec, 1.0)
        assert rep.projected is None and rep.ly_dim is None
        assert any("unknown" in w for w in rep.warnings)

    @pytest.mark.parametrize("maps, mode", [
        ([diag(0.3, 0.25, 0.0, 0.0), anti(0.3, 0.25, 0.1, 0.6)], ProjectedMode.EXPECTED_MIN),
        ([diag(0.6, 0.3, 0.0, 0.0), diag(0.6, 0.3, 0.1, 0.5), anti(0.3, 0.3, 0.7, 0.05)], None)])
    def test_transversality_checked_once(self, monkeypatch, maps, mode):
        # no interval certificate: the projected value's mode reads the report's
        # own transversality result
        calls, check = [], dimension.check_transversality
        monkeypatch.setattr(dimension, "check_transversality",
                            lambda spec: calls.append(spec) or check(spec))
        rep = dimension_report(make_spec(maps), 1.0)
        assert len(calls) == 1 and (rep.projected and rep.projected.mode) is mode

    def test_json_roundtrip(self, ex1):
        rep = dimension_report(ex1, 1.0)
        decoded = json.loads(json.dumps(rep.to_dict()))
        assert decoded == rep.to_dict()
        assert set(decoded) == {
            "pressure", "entropy", "chi1", "chi2", "affinity_dim", "projected_dim",
            "projected_mode", "ly_dim", "strong_separation", "transversality", "warnings"}

    def test_expected_min_flagged_as_conjecture(self):
        spec = make_spec([diag(0.3, 0.25, 0.0, 0.0), anti(0.3, 0.25, 0.1, 0.6)])
        rep = dimension_report(spec, 1.0)
        assert rep.projected.mode is ProjectedMode.EXPECTED_MIN
        assert any("conjecture" in w for w in rep.warnings)

    def test_ex1_across_s_values(self, ex1):
        sstar = affinity_dimension(ex1)
        for s in (0.5, 1.0, sstar):
            rep = dimension_report(ex1, s)
            assert rep.ly_dim is not None and 0.0 < rep.ly_dim <= 2.0
            assert rep.thermo.chi1 <= rep.thermo.chi2

    def test_random_specs_ly_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            spec = random_spec(rng)
            rep = dimension_report(spec, float(rng.uniform(0.3, 1.7)))
            if rep.ly_dim is not None:
                assert 0.0 < rep.ly_dim <= 2.0
