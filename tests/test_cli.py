import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import warnings

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EX1_JSON, anti, diag, full_box_draw, full_box_system, grid_spec
from kaenmaki import cli, dimension, errors, lyapunov_exponents, parse_ifs, sampling, thermo
from kaenmaki.cli import main


# ratios far below 1: the envelope's lower constant and most comparability
# ratios underflow to 0.0, and the strip constant C = up / lo^2 overflows
TINY_JSON = ('{"maps": [{"kind": "diag", "a": 5.48e-280, "b": 4.00e-17, "tx": 0, "ty": 0},'
             ' {"kind": "anti", "a": 8.11e-260, "b": 2.28e-181, "tx": 0.5, "ty": 0.5}]}')


@pytest.fixture()
def ex1_path(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(EX1_JSON)
    return str(p)


GOLDEN_DIGESTS = {
    "csv": "d0de68d88b14a3418b0b34eca3b756de69709ae8d7587d9be9f0aec826eb06e0",
    "pgm": "4df71b71e6983f71e6dc678c1481e321fa3c0b309f1511ae6ec4bd0846f550bc",
    "json": "5ac334f606f59355707dc6bae2f56ea1242025fe1fe8358ab722ffe4c5d7067f",
    "projected": "b6da18b0e9c695d6e4b99c7becc6b3de574b9a421a7bd6cc1f29076044a32173",
    "box": "fd8fcd891f25cf06c4cc447a8a999ebdd89aec955559213661cfe0ae5e5680dd",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ex1_ok(self, capsys, ex1_path):
        code, out, _ = run(capsys, "validate", "--spec", ex1_path)
        assert code == 0
        assert "strong_separation: true" in out
        assert "mixing: true" in out

    def test_malformed_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        code, _, err = run(capsys, "validate", "--spec", str(p))
        assert code == 2
        assert "MalformedConfig" in err

    @pytest.mark.parametrize("s_value", [{}, [1], "abc"])
    def test_non_numeric_s_exits_2(self, capsys, tmp_path, s_value):
        p = tmp_path / "bad_s.json"
        p.write_text(json.dumps({**json.loads(EX1_JSON), "s": s_value}))
        code, out, err = run(capsys, "validate", "--spec", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("MalformedConfig: s: ")

    @pytest.mark.parametrize("field, value", [("s", True), ("s", "1.5"), ("a", "0.3"),
                                              ("tx", False)])
    def test_bool_or_string_number_exits_2(self, capsys, tmp_path, field, value):
        # each once ran, as 1.0, 1.5, 0.3 and 0.0
        cfg = json.loads(EX1_JSON)
        (cfg if field == "s" else cfg["maps"][0])[field] = value
        p = tmp_path / "bad_number.json"
        p.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "report", "--spec", str(p))
        assert (code, out) == (2, "")
        where = "s" if field == "s" else f"maps[0].{field}"
        assert err == f"MalformedConfig: {where}: expected a number, got {value!r}\n"

    def test_integers_are_numbers(self, capsys, tmp_path):
        # an integer is read as a float, one past the float range as inf (it
        # once ended in an uncaught OverflowError)
        cfg = json.loads(EX1_JSON)
        p = tmp_path / "ints.json"
        for s, maps0_a, want in ((1, 0.3, (0, "s: 1.0\n")),
                                 (10 ** 400, 0.3, (2, "SOutOfRange: config s=inf")),
                                 (None, 10 ** 400, (2, "NonContracting: ratios"))):
            cfg["s"], cfg["maps"][0]["a"] = s, maps0_a
            p.write_text(json.dumps(cfg))
            code, out, err = run(capsys, "report", "--spec", str(p))
            assert (code, (out + err)[:len(want[1])]) == want

    def test_missing_anti_exits_2(self, capsys, tmp_path):
        p = tmp_path / "noanti.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}]}')
        code, _, err = run(capsys, "validate", "--spec", str(p))
        assert code == 2
        assert "NoAntiDiagonal" in err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EX1_JSON))
        code, out, _ = run(capsys, "validate", "--spec", "-")
        assert code == 0 and "strong_separation: true" in out


SUBCOMMAND_OPTIONS = {
    "validate": "--spec --threads",
    "report": "--spec --s --threads --output --out",
    "pressure": "--spec --s --threads --t",
    "affinity": "--spec --threads",
    "measure": "--spec --s --threads --word",
    "verify": "--spec --s --threads --max-depth",
    "sample": "--spec --s --threads --count --depth --seed --out",
    "render": "--spec --s --threads --count --depth --seed --px --out",
    "estimate": "--spec --s --threads --count --depth --seed --radii --centers --target --out",
    "project-dim": "--spec --s --threads --mode --value --count --depth --seed",
}


def test_subcommand_options_in_order():
    # the order of the options is the order of the --help text
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: " ".join(a.option_strings[0] for a in p._actions if a.dest != "help")
           for name, p in sub.choices.items()}
    assert list(got.items()) == list(SUBCOMMAND_OPTIONS.items())


class TestReport:
    def test_json_keys(self, capsys, ex1_path):
        code, out, _ = run(capsys, "report", "--spec", ex1_path, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        for key in ("ly_dim", "affinity_dim", "pressure", "entropy", "chi1", "chi2",
                    "projected_dim", "projected_mode", "strong_separation",
                    "transversality", "warnings"):
            assert key in payload
        assert payload["ly_dim"] == pytest.approx(payload["affinity_dim"], rel=1e-9)

    def test_s_out_of_range(self, capsys, ex1_path):
        code, _, err = run(capsys, "report", "--spec", ex1_path, "--s", "2.5")
        assert code == 2 and "SOutOfRange" in err

    @pytest.mark.parametrize("s_args", [(), ("--s", "0.7")])
    def test_root_searched_once(self, capsys, ex1_path, monkeypatch, s_args):
        calls = []
        detail = thermo.affinity_dimension_detail
        monkeypatch.setattr(thermo, "affinity_dimension_detail",
                            lambda spec: calls.append(spec) or detail(spec))
        code, out, _ = run(capsys, "report", "--spec", ex1_path, "--output", "json",
                           *s_args)
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["affinity_dim"] == pytest.approx(0.49247209, abs=1e-6)

    @pytest.mark.parametrize("s_args", [(), ("--s", "0.7")])
    def test_builds_one_chain(self, capsys, tmp_path, s_args):
        # P(s), h, chi1 and chi2 all come from chain ONE; the second chain and the
        # equilibrium measure are built only for cylinder masses
        p = tmp_path / "fresh.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 0.3172, "b": 0.2141, "tx": 0, "ty": 0},'
                     ' {"kind": "anti", "a": 0.2713, "b": 0.1931, "tx": 0.5, "ty": 0.5}]}')
        chains, measures = thermo.gibbs_markov.cache_info(), thermo.kaenmaki_measure.cache_info()
        code, _, _ = run(capsys, "report", "--spec", str(p), "--output", "json", *s_args)
        assert code == 0
        assert thermo.gibbs_markov.cache_info().misses == chains.misses + 1
        assert thermo.kaenmaki_measure.cache_info().misses == measures.misses

    def test_tiny_ratios_answer(self, capsys, tmp_path):
        # ratios down to 1e-4: the Perron data comes in closed form, no iteration cap
        p = tmp_path / "tiny.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 1e-3, "b": 1e-4, "tx": 0, "ty": 0},'
                     ' {"kind": "anti", "a": 1e-3, "b": 0.5, "tx": 0.5, "ty": 0.5}]}')
        code, out, _ = run(capsys, "report", "--spec", str(p), "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["pressure"]) <= 1e-12
        assert payload["affinity_dim"] == pytest.approx(0.12368481076775556, abs=1e-9)

    def test_out_file(self, capsys, ex1_path, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "report", "--spec", ex1_path, "--output", "json",
                         "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["strong_separation"] is True

    def test_lyapunov_gap_noted_once_without_a_warning(self, capsys, tmp_path):
        # map 1 carries no mass and maps 2, 3 are similitudes, so chi1 == chi2 on a
        # system that is not degenerate: the report notes it once, and neither
        # command emits a Python warning
        p = tmp_path / "gap.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 1e-300, "b": 1e-200, "tx": 0, "ty": 0},'
                     ' {"kind": "diag", "a": 0.5, "b": 0.5, "tx": 0.5, "ty": 0},'
                     ' {"kind": "anti", "a": 0.5, "b": 0.5, "tx": 0, "ty": 0.5}]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "report", "--spec", str(p), "--output", "json")
            code_p, out_p, err_p = run(capsys, "project-dim", "--spec", str(p))
        assert [str(w.message) for w in caught] == []
        assert (code, err, code_p, err_p) == (0, "", 0, "")
        notes = json.loads(out)["warnings"]
        assert sum(note.startswith("Lyapunov gap 0.000e+00 below 1e-12") for note in notes) == 1
        assert "Lyapunov" not in out_p


class TestScalarCommands:
    def test_pressure(self, capsys, ex1_path):
        code, out, _ = run(capsys, "pressure", "--spec", ex1_path, "--s", "1.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(-0.6931471805599453, abs=1e-12)

    def test_pressure_t2_matches(self, capsys, ex1_path):
        _, out1, _ = run(capsys, "pressure", "--spec", ex1_path, "--s", "0.7", "--t", "1")
        _, out2, _ = run(capsys, "pressure", "--spec", ex1_path, "--s", "0.7", "--t", "2")
        assert abs(float(out1) - float(out2)) <= 1e-10

    def test_affinity(self, capsys, ex1_path):
        code, out, _ = run(capsys, "affinity", "--spec", ex1_path)
        assert code == 0
        value = float(out.split("\n")[0].split(":")[1])
        assert value == pytest.approx(0.49247209, abs=1e-6)
        assert "clamped: false" in out

    def test_affinity_tiny_ratios(self, capsys, tmp_path):
        # |dP/ds| is near 400 here: an absolute 1e-12 bound on |P(s*)| fails
        # on a correctly placed root
        p = tmp_path / "tiny.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 1e-200, "b": 1e-150, "tx": 0, "ty": 0},'
                     ' {"kind": "anti", "a": 1e-180, "b": 0.5, "tx": 0.5, "ty": 0.5}]}')
        code, out, err = run(capsys, "affinity", "--spec", str(p))
        assert code == 0, err
        assert "clamped: false" in out

    def test_measure(self, capsys, ex1_path):
        code, out, _ = run(capsys, "measure", "--spec", ex1_path, "--word", "1,2,2,1",
                           "--s", "1.0")
        assert code == 0
        assert 0 < float(out.strip()) < 1

    def test_measure_bad_word(self, capsys, ex1_path):
        code, _, err = run(capsys, "measure", "--spec", ex1_path, "--word", "1,7",
                           "--s", "1.0")
        assert code == 2 and "BadArgument" in err

    def test_threads_env_fallback(self, monkeypatch):
        from kaenmaki.cli import build_parser
        monkeypatch.setenv("KAENMAKI_THREADS", "3")
        args = build_parser().parse_args(["validate", "--spec", "x.json"])
        assert args.threads == 3

    def test_threads_env_not_an_integer_is_a_usage_error(self, capsys, monkeypatch, ex1_path):
        monkeypatch.setenv("KAENMAKI_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--spec", ex1_path])
        assert exc.value.code == 2
        assert "KAENMAKI_THREADS" in capsys.readouterr().err

    def test_threads_env_empty_is_unset(self, capsys, monkeypatch, ex1_path):
        monkeypatch.setenv("KAENMAKI_THREADS", "")
        assert main(["validate", "--spec", ex1_path]) == 0
        assert "d: 2" in capsys.readouterr().out

    def test_threads_env_read_on_every_call(self, capsys, monkeypatch, ex1_path):
        # the parser is built once per process; the variable is still read per call
        monkeypatch.setenv("KAENMAKI_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--spec", ex1_path])
        assert exc.value.code == 2
        assert "KAENMAKI_THREADS" in capsys.readouterr().err
        monkeypatch.delenv("KAENMAKI_THREADS")
        assert main(["validate", "--spec", ex1_path]) == 0
        assert "d: 2" in capsys.readouterr().out


# full-box system whose longest words reach |log phi| near 4700, where the two
# phi routes differ by 1.364e-12: about one ulp, above an absolute 1e-12
ULP_PHI_JSON = json.dumps({"maps": [
    {"kind": kind, "a": a, "b": b, "tx": tx, "ty": ty} for kind, a, b, tx, ty in [
        ("diag", 0.36710421634266427, 0.7747290976557331, 0.2519972218548503,
         0.0247291017059016),
        ("anti", 0.16993627833946887, 0.7813384143128621, 0.5100378075555309,
         0.09318761714860632),
        ("anti", 0.9215211848445347, 0.6670084985974079, 0.04786561408405057,
         0.04148337704823251),
        ("anti", 2.1351171012534016e-211, 4.364414893175015e-257, 0.19340023969830367,
         0.4903117286743145),
        ("anti", 2.4987234221378374e-16, 3.1881055723151646e-198, 0.05895873494772473,
         0.10995354258680679),
        ("anti", 1.7880106235636556e-289, 2.6291816666486174e-189, 0.9745362690079287,
         0.8046333295231883)]]})


class TestVerify:
    def test_passes(self, capsys, ex1_path):
        code, out, _ = run(capsys, "verify", "--spec", ex1_path, "--max-depth", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_corrupt_potential_fails(self, capsys, ex1_path, monkeypatch):
        # negative control: symbol 1 of the first potential off by 1e-6 wherever
        # thermo reads it; the key-identity and side-length rows FAIL, and no
        # per-word phi check inside thermo stops the run before they print
        weights = thermo._weight_vector

        def corrupted(spec, s, t):
            w = weights(spec, s, t)
            return w + np.eye(w.size)[0] * 1e-6 if t == thermo.PotentialIndex.ONE else w

        monkeypatch.setattr(thermo, "_weight_vector", corrupted)
        caches = (thermo.gibbs_markov, thermo.kaenmaki_measure)
        for cache in caches:
            cache.cache_clear()
        try:
            code, out, _ = run(capsys, "verify", "--spec", ex1_path, "--max-depth", "6")
        finally:
            for cache in caches:  # they hold chains built from the corrupted weights
                cache.cache_clear()
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["phi max-of-sides identity"].startswith("FAIL"), out
        assert rows["side-length integrals ordered"].startswith("FAIL"), out
        assert code == 1

    def test_phi_identity_relative_to_log_phi(self, capsys, tmp_path):
        p = tmp_path / "ulp.json"
        p.write_text(ULP_PHI_JSON)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--max-depth", "4")
        assert code == 0, out
        assert out.startswith("PASS  phi max-of-sides identity      max log diff "), out

    def test_phi_identity_fails_on_a_corrupted_route(self, capsys, ex1_path, monkeypatch):
        # negative control: the side-length route of phi off by 1e-9 in log,
        # far above 1e-12 max(1, |log phi|) at |log phi| below 10; the weight
        # tables of the Birkhoff route keep the uncorrupted phi of each symbol
        log_phi = thermo._log_phi_from_alphas
        monkeypatch.setattr(thermo, "_weight_vector",
                            lambda spec, s, t: log_phi(*thermo._side_logs(spec, t), s))
        monkeypatch.setattr(thermo, "_log_phi_from_alphas",
                            lambda log_a1, log_a2, s: log_phi(log_a1, log_a2, s) + 1e-9)
        code, out, _ = run(capsys, "verify", "--spec", ex1_path, "--max-depth", "6")
        assert code == 1
        assert out.startswith("FAIL  phi max-of-sides identity      max log diff 1.000e-09"), out

    def test_comparability_flat_then_decaying_passes(self, capsys, tmp_path):
        # (b/a)^n stays below A/B up to n = 4, so all four ratios are exactly 1.
        # In the second system log phi(i^n j i^n) reaches -1e4; as a difference
        # of three per-word logs the flat ratios read 2.3e-13 .. 1.8e-12 and
        # failed the row on rounding noise, the closed form gives exactly 0
        flat_tiny = ('{"maps": [{"kind": "diag", "a": 1.5711420706608014e-254,'
                     ' "b": 8.739028001764224e-273, "tx": 0.07693360476242728,'
                     ' "ty": 0.46993702928872527}, {"kind": "anti",'
                     ' "a": 2.5922043358233706e-215, "b": 0.5788943226695018,'
                     ' "tx": 0.17998977645764302, "ty": 0.16878654177055039}]}')
        for text, s, depth in [
                ('{"maps": [{"kind": "diag", "a": 0.071, "b": 0.090, "tx": 0, "ty": 0},'
                 ' {"kind": "anti", "a": 0.276, "b": 0.058, "tx": 0.5, "ty": 0.5}]}',
                 "1.199", "6"),
                (flat_tiny, "1.982194738125007", "4")]:
            p = tmp_path / "flat.json"
            p.write_text(text)
            code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", s,
                               "--max-depth", depth)
            assert code == 0, out
            assert "ratios 1.000e+00, 1.000e+00, 1.000e+00, 1.000e+00" in out
            assert len(out.splitlines()) == 6

    def test_tiny_ratios_print_rows_or_typed_error(self, capsys, tmp_path):
        # the envelope's lower constant underflows to 0.0 here; C = up / lo^2
        # divided by it and ended the run in a ZeroDivisionError traceback
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "verify", "--spec", str(p), "--s", "1.0",
                                 "--max-depth", "4")
        if code == 2:
            assert err.split(":")[0] in {c.code for c in vars(errors).values()
                                         if isinstance(c, type) and hasattr(c, "code")}
        else:
            rows = out.splitlines()
            assert len(rows) == 6 and code == int(any(r.startswith("FAIL") for r in rows))
            assert any(r.startswith("PASS  submultiplicativity") for r in rows), out

    def test_tiny_ratios_envelope_and_submultiplicativity_pass(self, capsys, tmp_path):
        # chain steps here underflow in linear space; read as log 1 they put
        # the envelope ratios at [0, inf] and made every pair ratio NaN
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", "1.0", "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["cylinder envelope"].startswith("PASS"), out
        sub = rows["submultiplicativity"]
        assert sub.startswith("PASS"), out
        log_upper = float(sub.split("log worst upper ")[1].split()[0])
        assert np.isfinite(log_upper) and log_upper > 900.0  # e^937: beyond a double

    def test_tiny_ratios_rows_decided_in_logs(self, capsys, tmp_path):
        # the comparability ratios underflow to 0.0 after n = 1 and failed on
        # 0 == 0; the strip bound C nu([prefix]) overflowed to inf
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", "1.0", "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        comparability = rows["two-sided comparability decay"]
        assert comparability.startswith("PASS"), out
        assert "ratios 1.370e-263, 0.000e+00, 0.000e+00, 0.000e+00" in comparability
        strip = rows["strip measure bounds"]
        logs = [float(x) for x in re.findall(r"log (?:mass|bound) ([^\s;]+)", strip)]
        assert strip.startswith("PASS") and len(logs) == 6 and np.isfinite(logs).all(), out
        assert "inf" not in strip and "nan" not in strip
        spec = cli._read_spec(str(p))
        log_lo, _ = thermo.kaenmaki_measure(spec, 1.0).log_envelope()
        log_min, _ = thermo.level_log_ratio_extremes(spec, 1.0, 4)
        assert np.isfinite([log_lo, log_min]).all() and np.exp(log_lo) == 0.0
        assert rows["cylinder envelope"].startswith("PASS"), out
        assert code == 0, out

    def test_tiny_ratios_reverse_strip_leg_in_logs(self):
        # every mass underflows to 0.0 here, where 0 >= 0 passed the leg
        # whatever the logs said
        spec = parse_ifs(TINY_JSON)
        rev = sampling.strip_reverse_oracle(spec, 1.0, (1,), 0.5, 4)
        logs = [rev.log_mu_lower, rev.log_mu_upper, rev.log_rhs_lower, rev.log_rhs_upper]
        assert np.isfinite(logs).all()
        assert np.exp(logs).tolist() == [0.0] * 4
        assert rev.log_mu_lower <= rev.log_mu_upper and rev.log_rhs_lower <= rev.log_rhs_upper
        assert rev.log_mu_lower >= rev.log_rhs_lower and rev.log_mu_upper >= rev.log_rhs_upper

    def test_strip_fails_on_a_reverse_leg_below_its_bound(self, capsys, tmp_path,
                                                          monkeypatch):
        # negative control: the strip mass is put e^-1 below the reverse bound,
        # both below e^-745, where a linear comparison reads 0 >= 0
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        reverse = sampling.strip_reverse_oracle

        def low(*args):
            rev = reverse(*args)
            return dataclasses.replace(rev, log_mu_lower=rev.log_rhs_lower - 1.0)

        monkeypatch.setattr(cli.sampling, "strip_reverse_oracle", low)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", "1.0", "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["strip measure bounds"].startswith("FAIL"), out
        assert code == 1

    def test_strip_fails_on_a_forward_leg_above_its_bound(self, capsys, tmp_path, monkeypatch):
        # negative control: the strip mass is put e^1 above its product bound
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        forward = sampling.strip_measure_oracle

        def high(*args):
            res = forward(*args)
            return dataclasses.replace(res, log_mu_upper=res.log_bound + 1.0)

        monkeypatch.setattr(cli.sampling, "strip_measure_oracle", high)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", "1.0", "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["strip measure bounds"].startswith("FAIL"), out
        assert code == 1

    def test_comparability_fails_on_a_flat_ratio_below_one(self, capsys, ex1_path, monkeypatch):
        # negative control: below 1 the ratios must decrease strictly
        flat = SimpleNamespace(**{**vars(thermo), "log_quasi_bernoulli_ratio":
                                  lambda spec, s, i, j, n: -1.0 if n < 3 else -2.0})
        monkeypatch.setattr(cli, "thermo", flat)
        code, out, _ = run(capsys, "verify", "--spec", ex1_path, "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["two-sided comparability decay"].startswith("FAIL"), out
        assert code == 1

    def test_envelope_fails_below_an_underflowed_lower_constant(self, capsys, tmp_path,
                                                                 monkeypatch):
        # negative control: the smallest ratio is put e^-1 below lo, and both
        # are below e^-745, where a linear comparison reads 0 >= 0
        p = tmp_path / "tiny.json"
        p.write_text(TINY_JSON)
        spec = cli._read_spec(str(p))
        log_lo, _ = thermo.kaenmaki_measure(spec, 1.0).log_envelope()
        shift = 4 * thermo.pressure(spec, 1.0)
        _, log_max = thermo.level_log_ratio_extremes(spec, 1.0, 4)
        low = SimpleNamespace(**{**vars(thermo), "level_log_ratio_extremes":
                                 lambda *_: (log_lo - 1.0 - shift, log_max)})
        monkeypatch.setattr(cli, "thermo", low)
        code, out, _ = run(capsys, "verify", "--spec", str(p), "--s", "1.0", "--max-depth", "4")
        rows = {r[6:].split("  ")[0]: r for r in out.splitlines()}
        assert rows["cylinder envelope"].startswith("FAIL"), out
        assert "ratios in [0.000000, " in rows["cylinder envelope"] and code == 1

    def test_depth_too_large(self, capsys, ex1_path):
        code, _, err = run(capsys, "verify", "--spec", ex1_path, "--max-depth", "40")
        assert code == 2 and "TooLarge" in err

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one(self, capsys, ex1_path, monkeypatch, depth):
        # rejected before any work: ex1 sets no s, so a root search would come first
        monkeypatch.setattr(thermo, "affinity_dimension",
                            lambda spec: pytest.fail("pressure root searched"))
        code, out, err = run(capsys, "verify", "--spec", ex1_path, "--max-depth", depth)
        assert code == 2 and out == ""
        assert err.startswith("BadArgument:") and "--max-depth" in err


def run_quiet(*argv):
    """(exit code, stdout) of cli.main with both streams captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


class TestFullBox:
    def test_draw_head_exits_0_without_warnings(self, tmp_path):
        # the first 100 systems of the full-box draw: report and a shallow verify
        # exit 0, no Python warning escapes, and no report repeats a note
        path = tmp_path / "box.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k, config in enumerate(full_box_draw(100)):
                path.write_text(json.dumps(config))
                code, out = run_quiet("report", "--spec", str(path), "--output", "json")
                assert code == 0, (k, out)
                notes = json.loads(out)["warnings"]
                assert len(set(notes)) == len(notes), (k, notes)
                code, out = run_quiet("verify", "--spec", str(path), "--max-depth", "3")
                assert code == 0, (k, out)
        assert [str(w.message) for w in caught] == []

    def test_draw_head_validates_mixing(self, tmp_path):
        # every system has both map kinds, so its subshift is mixing
        path = tmp_path / "box.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k, config in enumerate(full_box_draw(100)):
                path.write_text(json.dumps(config))
                code, out = run_quiet("validate", "--spec", str(path))
                assert code == 0, (k, out)
                assert out.endswith("mixing: true\n"), (k, out)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.filterwarnings("ignore::UserWarning")  # degenerate-system notices
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(maps=full_box_system(), s=st.one_of(st.none(), st.floats(0.05, 1.95)))
    # a strip narrower than the ulp of its global coordinate found no mass:
    # `log mass -inf` and a false strip FAIL
    @example(maps=[diag(2.0327054166381653e-198, 8.815584291703207e-17, 0.6345, 0.8194),
                   anti(0.2676, 0.0976, 0.5049, 0.2495),
                   anti(6.99e-228, 1.17e-182, 0.3162, 0.2293)], s=1.0)
    # the linear strip width 0.5 alpha1 underflowed: exit 2 with `r=0.0`
    @example(maps=[diag(3.3775138026649985e-154, 2.273643092996338e-266,
                        0.2707853897081951, 0.6459599814032555),
                   anti(2.6137958965852844e-274, 5.26581374942052e-269,
                        0.24521995649530537, 0.552165925201756)], s=None)
    def test_verify_and_report_exit_0(self, tmp_path_factory, maps, s):
        path = tmp_path_factory.mktemp("box") / "box.json"
        path.write_text(json.dumps({"maps": [
            {"kind": "anti" if m.anti else "diag", "a": m.a, "b": m.b, "tx": m.tx, "ty": m.ty}
            for m in maps]}))
        s_args = [] if s is None else ["--s", repr(s)]
        code, out = run_quiet("verify", "--spec", str(path), "--max-depth", "4", *s_args)
        assert code == 0, out
        code, out = run_quiet("report", "--spec", str(path), "--output", "json", *s_args)
        assert code == 0, out
        fields = [v for v in json.loads(out).values()
                  if isinstance(v, (int, float)) and not isinstance(v, bool)]
        assert all(math.isfinite(v) for v in fields), out


class TestSampleRenderEstimate:
    def test_sample_deterministic_csv(self, capsys, ex1_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sample", "--spec", ex1_path, "--count", "1000",
                             "--depth", "50", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_stdout_matches_file(self, capsys, ex1_path, tmp_path):
        path = tmp_path / "a.csv"
        draw = ["--spec", ex1_path, "--count", "200", "--depth", "12", "--seed", "5"]
        assert run(capsys, "sample", *draw, "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "sample", *draw)
        assert code == 0
        assert out == path.read_text()

    def test_sample_stdout_matches_file_two_digit_symbols(self, capsys, tmp_path):
        spec = grid_spec(12, n_anti=5)
        cfg = tmp_path / "d12.json"
        cfg.write_text(json.dumps({"maps": [
            {"kind": m.kind.value, "a": m.a, "b": m.b, "tx": m.tx, "ty": m.ty}
            for m in spec.maps]}))
        path = tmp_path / "a.csv"
        draw = ["--spec", str(cfg), "--count", "70000", "--depth", "6", "--seed", "5",
                "--s", "1.0"]
        assert run(capsys, "sample", *draw, "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "sample", *draw)
        assert code == 0
        assert out == path.read_text()
        assert out.splitlines()[1].split(",")[2].count("-") == 5

    def test_golden_digests(self, capsys, ex1_path, tmp_path):
        """SHA-256 of the sample CSV, render PGM and the three estimate JSONs for fixed seeds.

        Pinned on the closed-form Perron data; a change of the chain data by
        even one ulp can move a draw and shows up here.  The projected and box
        estimates were pinned on the pass over all points and np.unique.
        """
        paths = {k: tmp_path / f"golden.{k}" for k in GOLDEN_DIGESTS}
        assert run(capsys, "sample", "--spec", ex1_path, "--count", "2000", "--depth", "50",
                   "--seed", "7", "--out", str(paths["csv"]))[0] == 0
        assert run(capsys, "render", "--spec", ex1_path, "--count", "20000", "--depth", "25",
                   "--seed", "9", "--px", "256", "--out", str(paths["pgm"]))[0] == 0
        for target, key in (("local", "json"), ("projected", "projected"), ("box", "box")):
            assert run(capsys, "estimate", "--spec", ex1_path, "--count", "50000",
                       "--depth", "20", "--seed", "11", "--radii", "0.01:0.2:5",
                       "--target", target, "--out", str(paths[key]))[0] == 0
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
        assert digests == GOLDEN_DIGESTS

    def test_render_header(self, capsys, ex1_path, tmp_path):
        out = tmp_path / "img.pgm"
        code, _, _ = run(capsys, "render", "--spec", ex1_path, "--count", "5000",
                         "--depth", "20", "--seed", "1", "--px", "512",
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n512 512\n255\n")

    def test_estimate_prints_slope(self, capsys, ex1_path, tmp_path):
        out = tmp_path / "est.json"
        code, _, _ = run(capsys, "estimate", "--spec", ex1_path, "--count", "50000",
                         "--depth", "20", "--seed", "3", "--radii", "0.01:0.2:5",
                         "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"slope", "stderr", "target"}
        assert 0.1 < payload["slope"] < 1.5

    def test_estimate_no_centers_is_a_bad_argument(self, capsys, ex1_path):
        # an empty centre list once printed `slope: nan stderr: nan` and exited 0
        code, out, err = run(capsys, "estimate", "--spec", ex1_path, "--count", "1000",
                             "--depth", "10", "--centers", "0")
        assert code == 2 and out == ""
        assert err.startswith("BadArgument:") and "center" in err

    def test_estimate_projected_takes_the_centers(self, capsys, ex1_path):
        draw = ["estimate", "--spec", ex1_path, "--count", "50000", "--depth", "20",
                "--seed", "3", "--target", "projected"]
        outs = {}
        for extra in ([], ["--centers", "20"], ["--centers", "3"]):
            code, outs[tuple(extra)], _ = run(capsys, *draw, *extra)
            assert code == 0
        assert outs[()] == outs[("--centers", "20")] != outs[("--centers", "3")]
        code, out, err = run(capsys, *draw, "--centers", "0")
        assert code == 2 and out == ""
        assert err.startswith("BadArgument:") and "center" in err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("command", ["sample", "render", "estimate", "project-dim"])
    def test_seed_outside_64_bits_is_a_bad_argument(self, capsys, ex1_path, tmp_path,
                                                    command, seed):
        # np.uint64(seed) once raised an uncaught OverflowError: a traceback, exit 1
        extra = {"render": ["--out", str(tmp_path / "img.pgm")],
                 "project-dim": ["--mode", "mc"]}.get(command, [])
        code, out, err = run(capsys, command, "--spec", ex1_path, "--count", "1000",
                             "--depth", "10", "--seed", str(seed), *extra)
        assert code == 2 and out == ""
        assert err == f"BadArgument: seed {seed} must lie in [0, 2^64)\n"

    def test_largest_seed_draws(self, capsys, ex1_path):
        code, out, _ = run(capsys, "sample", "--spec", ex1_path, "--count", "10",
                           "--depth", "5", "--seed", str(2 ** 64 - 1))
        assert code == 0 and len(out.splitlines()) == 11

    def test_estimate_box_scale_past_the_key_range_is_a_bad_argument(self, capsys, ex1_path):
        # cell indices past 2^31 once overflowed the packed key: a cast warning, exit 0
        code, out, err = run(capsys, "estimate", "--spec", ex1_path, "--count", "20000",
                             "--depth", "10", "--target", "box", "--radii", "0.1:1e-30:6")
        assert code == 2 and out == ""
        assert err.startswith("BadArgument: need at least 3 scales, each finite and above "
                              "4.656612873077393e-10; got [0.1, ")

    def test_estimate_infinite_radius_is_a_bad_argument(self, capsys, ex1_path):
        # an infinite radius once reached the fit: LAPACK errors, "SVD did not converge"
        code, out, err = run(capsys, "estimate", "--spec", ex1_path, "--count", "20000",
                             "--depth", "10", "--radii", "0.1:inf:6")
        assert code == 2 and out == ""
        assert err == ("BadArgument: need at least 3 radii, each finite and above 0.0; "
                       "got [0.1, inf, inf, inf, inf, inf]\n")

    def test_project_dim(self, capsys, ex1_path):
        code, out, _ = run(capsys, "project-dim", "--spec", ex1_path)
        assert code == 0
        assert "mode: SscFormula" in out

    def test_project_dim_ssc_above_one_is_an_internal_mismatch(self, capsys, ex1_path,
                                                                 monkeypatch):
        # under the certificate h/chi1 < 1, so a ratio of 1 + 1e-9 is a fault
        monkeypatch.setattr(dimension, "entropy",
                            lambda spec, s: lyapunov_exponents(spec, s)[0] * (1.0 + 1e-9))
        code, out, err = run(capsys, "project-dim", "--spec", ex1_path, "--mode", "ssc")
        assert (code, out) == (2, "")
        assert err.startswith("InternalMismatch: h/chi1=1.000000001"), err

    def test_project_dim_unknown_exits_1(self, capsys, tmp_path):
        # no projection certificate and the norm conditions fail: the second
        # meaning of exit code 1, besides a failed verification
        p = tmp_path / "unknown.json"
        p.write_text('{"maps": [{"kind": "diag", "a": 0.6, "b": 0.2, "tx": 0, "ty": 0},'
                     ' {"kind": "diag", "a": 0.5, "b": 0.2, "tx": 0.5, "ty": 0.5},'
                     ' {"kind": "anti", "a": 0.3, "b": 0.3, "tx": 0, "ty": 0.7}]}')
        code, out, err = run(capsys, "project-dim", "--spec", str(p))
        assert (code, out, err) == (
            1, "projected_dim: unknown (no certificate and norm conditions fail)\n", "")
