"""Command-line front end.

Exit codes: 0 success, 1 verification failure (verify) or an unknown projected
dimension (project-dim), 2 usage or validation error.
All randomized subcommands take --seed and are bit-reproducible.  --threads
(or the KAENMAKI_THREADS variable) is accepted and reserved: every command
runs in one thread and no worker pool exists, so it never changes results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import dimension, sampling, thermo
from .coding import as_word, check_mixing, transition_matrix
from .errors import KaenmakiError, SOutOfRange, TooLarge
from .ifs import IfsSpec, check_strong_separation, check_transversality, parse_ifs
from .thermo import PotentialIndex


def _read_spec(path: str) -> IfsSpec:
    if path == "-":
        return parse_ifs(sys.stdin.read())
    with open(path) as fh:
        return parse_ifs(fh.read())


def _resolve_s(spec: IfsSpec, s_arg: float | None) -> tuple[float, float | None]:
    """(s, root); root is the unclamped pressure root when it was searched."""
    if s_arg is not None:
        if not (0.0 < s_arg < 2.0):
            raise SOutOfRange(f"--s {s_arg} must lie in (0,2)")
        return s_arg, None
    if spec.s is not None:
        return spec.s, None
    root = thermo.affinity_dimension(spec)
    return min(root, 2.0 - 1e-12), root


def _parse_radii(text: str) -> np.ndarray:
    try:
        rmin, rmax, k = text.split(":")
        with np.errstate(invalid="ignore"):  # an infinite end: the estimators name it
            return np.geomspace(float(rmin), float(rmax), int(k))
    except ValueError:
        raise KaenmakiError(f"bad radii spec {text!r}, expected rmin:rmax:k") from None


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    spec = _read_spec(args.spec)
    sep = check_strong_separation(spec)
    trans = check_transversality(spec)
    mixing = check_mixing(transition_matrix(spec.d, spec.l))
    print(f"d: {spec.d}")
    print(f"l: {spec.l}")
    print(f"strong_separation: {str(sep.strong_separation).lower()}")
    print(f"min_gap: {sep.min_gap!r}")
    if sep.failing_pair:
        print(f"failing_pair: {sep.failing_pair}")
    print(f"transversality_holds: {str(trans.holds).lower()}")
    print(f"transversality_norm_sufficient: {str(trans.norm_sufficient).lower()}")
    print("transversality_convention: u,v assigned by map kind "
          "(diagonal: u=a, v=b; anti-diagonal: u=a*max_b, v=b*max_a)")
    print(f"mixing: {str(mixing).lower()}")
    return 0


def cmd_report(args) -> int:
    spec = _read_spec(args.spec)
    s, root = _resolve_s(spec, args.s)
    report = dimension.dimension_report(spec, s, affinity_dim=root)
    if args.output == "json":
        payload = {"s": s, **report.to_dict()}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"s: {s!r}"]
        for key, value in report.to_dict().items():
            lines.append(f"{key}: {value!r}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_pressure(args) -> int:
    spec = _read_spec(args.spec)
    s, _ = _resolve_s(spec, args.s)
    t = PotentialIndex(args.t)
    print(repr(thermo.pressure(spec, s, t)))
    return 0


def cmd_affinity(args) -> int:
    spec = _read_spec(args.spec)
    detail = thermo.affinity_dimension_detail(spec)
    print(f"affinity_dim: {detail.value!r}")
    print(f"clamped: {str(detail.clamped).lower()}")
    return 0


def cmd_measure(args) -> int:
    spec = _read_spec(args.spec)
    s, _ = _resolve_s(spec, args.s)
    word = as_word([int(x) for x in args.word.split(",")], spec.d)
    print(repr(float(np.exp(thermo.kaenmaki_measure(spec, s).log_cylinder(word)))))
    return 0


def _comparability_decays(logs) -> bool:
    """The comparability row's rule on the log ratios for n = 1, 2, ...: exactly 1
    up to a threshold n, strict geometric decay after it.  Decided in logs, since
    the ratios underflow to 0.0 at tiny map ratios."""
    return max(logs) <= np.log1p(1e-12) and all(
        l2 < l1 if l1 < np.log1p(-1e-12) else l2 <= l1 + np.log1p(1e-12)
        for l1, l2 in zip(logs, logs[1:]))


def cmd_verify(args) -> int:
    spec = _read_spec(args.spec)
    depth = args.max_depth
    if depth < 1:
        raise ValueError(f"--max-depth {depth} must be at least 1")
    if spec.d ** depth > thermo.ENUMERATION_CAP:
        raise TooLarge(f"{spec.d}^{depth} exceeds the enumeration cap")
    s, _ = _resolve_s(spec, args.s)
    results = []

    worst, ok_phi = thermo.phi_identity_check(spec, s, min(depth, 8))
    results.append(("phi max-of-sides identity", ok_phi, f"max log diff {worst:.3e}"))

    nu = thermo.kaenmaki_measure(spec, s)
    log_lo, log_up = nu.log_envelope()
    lo, up = np.exp([log_lo, log_up])
    shift = depth * thermo.pressure(spec, s)
    log_min, log_max = (x + shift for x in thermo.level_log_ratio_extremes(spec, s, depth))
    # decided in logs: lo and the smallest ratio may both underflow to 0.0
    ok_env = bool(log_min >= log_lo + np.log1p(-1e-9) and log_max <= log_up + np.log1p(1e-9))
    results.append(("cylinder envelope", ok_env,
                    f"ratios in [{np.exp(log_min):.6f}, {np.exp(log_max):.6f}] "
                    f"vs [{lo:.6f}, {up:.6f}]"))

    w11 = thermo._weight_vector(spec, 1.0, PotentialIndex.ONE)
    w21 = thermo._weight_vector(spec, 1.0, PotentialIndex.TWO)
    int_11_m1 = float(nu.m1.stationary @ w11)
    int_21_m2 = float(nu.m2.stationary @ w21)
    int_21_m1 = float(nu.m1.stationary @ w21)
    chi_ok = abs(int_11_m1 - int_21_m2) <= 1e-12 and int_11_m1 >= int_21_m1 - 1e-12
    results.append(("side-length integrals ordered", chi_ok,
                    f"int f11 dm1 = {int_11_m1:.9f} >= int f21 dm1 = {int_21_m1:.9f}"))

    log_c = log_up - 2.0 * log_lo  # C = up / lo^2 in logs: lo underflows at tiny ratios
    log_wu, log_wl = thermo.submultiplicativity_check(spec, s, min(depth, 8))
    results.append(("submultiplicativity", bool(log_wu <= log_c + np.log1p(1e-9)),
                    f"log worst upper {log_wu:.4f} <= log C {log_c:.4f}; "
                    f"worst lower {np.exp(log_wl):.3e}"))

    # make_spec puts the diagonal maps first, so map l is the first anti-diagonal one
    diag_idx = next((k for k, m in enumerate(spec.maps[:spec.l - 1], 1) if m.a != m.b), None)
    if diag_idx is not None:
        logs = [thermo.log_quasi_bernoulli_ratio(spec, s, diag_idx, spec.l, n)
                for n in range(1, 5)]
        results.append(("two-sided comparability decay", _comparability_decays(logs),
                        "ratios " + ", ".join(f"{np.exp(x):.3e}" for x in logs)))
    else:
        results.append(("two-sided comparability decay", True, "skipped: degenerate ratios"))

    if check_strong_separation(spec).strong_separation:
        ok_strip = True
        details = []
        for prefix in [(1,), (spec.d,), (1, spec.d)]:
            res = sampling.strip_measure_oracle(spec, s, prefix, 0.5, min(depth, 8))
            ok_strip &= res.log_mu_upper <= res.log_bound + np.log1p(1e-9)
            details.append(f"{prefix}: log mass {res.log_mu_upper:.4f} "
                           f"<= log bound {res.log_bound:.4f}")
        # map 1 is diagonal and map d anti-diagonal: only (1,) has the reverse leg's even parity
        rev = sampling.strip_reverse_oracle(spec, s, (1,), 0.5, min(depth, 8))
        ok_strip &= (rev.log_mu_lower >= rev.log_rhs_lower + np.log1p(-1e-9)
                     and rev.log_mu_upper >= rev.log_rhs_upper + np.log1p(-1e-9))
        results.append(("strip measure bounds", ok_strip, "; ".join(details)))
    else:
        results.append(("strip measure bounds", True, "skipped: no separation certificate"))

    width = max(len(name) for name, _, _ in results)
    failed = False
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed |= not ok
        print(f"{status}  {name.ljust(width)}  {detail}")
    return 1 if failed else 0


def _draw(args) -> sampling.SampleSet:
    spec = _read_spec(args.spec)
    s, _ = _resolve_s(spec, args.s)
    return sampling.sample_symbolic(spec, s, args.count, args.depth, args.seed)


def cmd_sample(args) -> int:
    samples = _draw(args)
    if args.out:
        sampling.write_csv(samples, args.out)
    else:
        sys.stdout.writelines(sampling.csv_lines(samples))
    return 0


def cmd_render(args) -> int:
    sampling.render_attractor(_draw(args), args.px, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_estimate(args) -> int:
    samples = _draw(args)
    radii = _parse_radii(args.radii)
    if args.target == "local":
        centers = sampling.default_centers(samples, args.centers)
        slope, stderr = sampling.estimate_local_dimension(samples, centers, radii)
    elif args.target == "projected":
        slope, stderr = sampling.estimate_projected_dim(
            samples, sampling.Projection.X,
            centers=sampling.default_centers(samples, args.centers)[:, 0], radii=radii)
    else:
        slope = sampling.box_count(samples, radii)
        stderr = 0.0
    payload = {"target": args.target, "slope": slope, "stderr": stderr,
               "count": args.count, "depth": args.depth, "seed": args.seed}
    if args.out:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        print(f"slope: {slope!r} stderr: {stderr!r}")
    return 0


def cmd_project_dim(args) -> int:
    spec = _read_spec(args.spec)
    s, _ = _resolve_s(spec, args.s)
    mode = {
        "auto": None,
        "ssc": dimension.ProjectedMode.SSC_FORMULA,
        "expected": dimension.ProjectedMode.EXPECTED_MIN,
        "user": dimension.ProjectedMode.USER_SUPPLIED,
        "mc": dimension.ProjectedMode.MONTE_CARLO,
    }[args.mode]
    mc_options = dict(count=args.count, depth=args.depth, seed=args.seed)
    proj = dimension.projected_dimension(spec, s, mode_request=mode,
                                         user_value=args.value, mc_options=mc_options)
    if proj is None:
        print("projected_dim: unknown (no certificate and norm conditions fail)")
        return 1
    print(f"projected_dim: {proj.value!r}")
    print(f"mode: {proj.mode.value}")
    print(f"ssc_certified: {str(proj.ssc_certified).lower()}")
    return 0


def _threads(text: str) -> int | None:
    """The --threads value, also applied by argparse to the KAENMAKI_THREADS
    default (unset when empty): an int (None for 0), else a usage error naming both."""
    try:
        return int(text) or None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--threads / KAENMAKI_THREADS must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaenmaki",
        description="Equilibrium measures and dimension reports for planar "
                    "diagonal/anti-diagonal systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def draw_options(p, count, depth=30):
        p.add_argument("--count", type=int, default=count)
        p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--seed", type=int, default=0)

    def command(name, func, help, s_opt=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True,
                       help="path to a JSON system config, or - for stdin")
        if s_opt:
            p.add_argument("--s", type=float, default=None,
                           help="dimension parameter in (0,2); defaults to the "
                                "config value or the affinity dimension")
        p.add_argument("--threads", type=_threads,
                       default=os.environ.get("KAENMAKI_THREADS") or None,
                       help="reserved: accepted, but every command runs in one "
                            "thread; results never depend on it")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse a config and print hypothesis checks", s_opt=False)

    p = command("report", cmd_report, "full dimension report")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write the report to a file")

    p = command("pressure", cmd_pressure, "pressure at a parameter value")
    p.add_argument("--t", type=int, choices=[1, 2], default=1)

    command("affinity", cmd_affinity, "root of the pressure", s_opt=False)

    p = command("measure", cmd_measure, "cylinder mass of a word")
    p.add_argument("--word", required=True, help="comma-separated symbols, e.g. 1,2,2,1")

    p = command("verify", cmd_verify, "run the identity and bound checks at an "
                                      "enumeration depth")
    p.add_argument("--max-depth", type=int, default=8)

    p = command("sample", cmd_sample, "draw measure-distributed points as CSV")
    draw_options(p, 10000)
    p.add_argument("--out", default=None)

    p = command("render", cmd_render, "render sampled points to a PGM image")
    draw_options(p, 200000)
    p.add_argument("--px", type=int, default=512)
    p.add_argument("--out", required=True)

    p = command("estimate", cmd_estimate, "Monte Carlo dimension estimators")
    draw_options(p, 1000000, 25)
    p.add_argument("--radii", default="0.002:0.0625:6", help="rmin:rmax:k geometric grid")
    p.add_argument("--centers", type=int, default=20)
    p.add_argument("--target", choices=["local", "projected", "box"], default="local")
    p.add_argument("--out", default=None)

    p = command("project-dim", cmd_project_dim, "projected dimension with mode selection")
    p.add_argument("--mode", choices=["auto", "ssc", "expected", "user", "mc"],
                   default="auto")
    p.add_argument("--value", type=float, default=None, help="value for --mode user")
    draw_options(p, 200000)

    return parser


@lru_cache(maxsize=1)
def _parser(threads_env: str | None) -> argparse.ArgumentParser:
    """build_parser(), about 2 ms, built on the first main call and again only when
    KAENMAKI_THREADS, which it reads as the --threads default, has changed."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get("KAENMAKI_THREADS")).parse_args(argv)
    try:
        return args.func(args)
    except KaenmakiError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"BadArgument: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"IoFailure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
