"""The four workloads: their inputs, one operation each, and its checks.

A workload builds its operation list from the seed.  Every round runs the
same list, one operation at a time.  ``execute`` is the timed part and
returns the raw outputs (or raises ``OpFailed``); ``check`` compares them
with the oracle after the clock has stopped, and ``digest`` condenses them so
that later rounds can be held to the first one byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs.json"

REPORT_FIELDS = ("s", "pressure", "entropy", "chi1", "chi2", "affinity_dim", "projected_dim",
                 "projected_mode", "ly_dim", "strong_separation", "transversality",
                 "warnings")

# Power iteration never settles on this system and the report exits 2 with
# ConvergenceFailure after 1e6 iterations (ROADMAP open item 2).
NAMED_FAILING = {"maps": [
    {"kind": "diag", "a": 1e-3, "b": 1e-4, "tx": 0.0, "ty": 0.0},
    {"kind": "anti", "a": 1e-3, "b": 0.5, "tx": 0.5, "ty": 0.5}]}

EX1 = {"maps": [
    {"kind": "diag", "a": 0.3333333333333333, "b": 0.2, "tx": 0, "ty": 0},
    {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.5, "ty": 0.5}]}
D3 = {"maps": [
    {"kind": "diag", "a": 0.3, "b": 0.2, "tx": 0.0, "ty": 0.0},
    {"kind": "diag", "a": 0.2, "b": 0.35, "tx": 0.6, "ty": 0.0},
    {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.5, "ty": 0.5}]}
D4 = {"maps": [
    {"kind": "diag", "a": 0.3, "b": 0.2, "tx": 0.0, "ty": 0.0},
    {"kind": "diag", "a": 0.2, "b": 0.35, "tx": 0.6, "ty": 0.0},
    {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.0, "ty": 0.6},
    {"kind": "anti", "a": 0.3, "b": 0.15, "tx": 0.6, "ty": 0.6}]}


class OpFailed(Exception):
    """The program refused the operation (nonzero exit code)."""


def place(kinds: str, a, b, rng) -> dict:
    """Config with each map inside its own cell of a ceil(sqrt(d))-grid.

    Cells are distinct, so level-1 images are disjoint; ratios must not
    exceed the cell size.
    """
    d = len(kinds)
    g = math.ceil(math.sqrt(d))
    cell = 1.0 / g
    cells = rng.permutation(g * g)[:d]
    maps = []
    for k in range(d):
        cx, cy = divmod(int(cells[k]), g)
        tx = cx * cell + float(rng.uniform(0.0, cell - a[k]))
        ty = cy * cell + float(rng.uniform(0.0, cell - b[k]))
        maps.append({"kind": "anti" if kinds[k] == "a" else "diag",
                     "a": a[k], "b": b[k], "tx": tx, "ty": ty})
    return {"maps": maps}


def run_cli(cli, argv):
    """cli.main in-process with its output captured; OpFailed on nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        detail = err.getvalue().strip() or "; ".join(
            ln for ln in out.getvalue().splitlines() if ln.startswith("FAIL"))
        raise OpFailed(f"exit {rc}: {detail[:200]}")
    return out.getvalue()


class Workload:
    """Base: ``ops`` are dicts holding at least a config ``path``."""

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.out = out_dir
        self.ops: list[dict] = []
        self._systems: dict[str, oracle.System] = {}

    def add_config(self, cfg: dict, tag: str, **fields) -> dict:
        text = json.dumps(cfg)
        path = self.out / f"{tag}.json"
        path.write_text(text)
        op = {"path": str(path), "text": text, **fields}
        self.ops.append(op)
        return op

    def system(self, text: str) -> oracle.System:
        if text not in self._systems:
            self._systems[text] = oracle.System(text)
        return self._systems[text]

    def config_paths(self) -> list[str]:
        return sorted({op["path"] for op in self.ops})


class ReportSweep(Workload):
    """``report --output json`` on every pool system plus the failing one.

    The seed places the pool's ratio sets in the square and shuffles the
    order.  Thermodynamic work depends on the ratios alone, so the seed moves
    the geometry checks and the outputs but not the Perron iterations.
    """

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        pool = json.loads(INPUTS.read_text())["report_pool"]
        cfgs = [place(p["kinds"], p["a"], p["b"], self.rng) for p in pool]
        cfgs.insert(int(self.rng.integers(0, len(cfgs) + 1)), NAMED_FAILING)
        order = self.rng.permutation(len(cfgs))
        for k in order:
            self.add_config(cfgs[k], f"report-{k}")

    def execute(self, cli, kaenmaki, op):
        return run_cli(cli, ["report", "--spec", op["path"], "--output", "json"])

    def check(self, op, stdout):
        rep = json.loads(stdout)
        errors = [f"missing field {k}" for k in REPORT_FIELDS if k not in rep]
        if errors:
            return errors
        sys_ = self.system(op["text"])
        root = oracle.affinity_dimension(sys_)
        if abs(rep["affinity_dim"] - root) > 1e-9:
            errors.append(f"affinity_dim {rep['affinity_dim']!r} vs oracle {root!r}")
        p_at_s = oracle.pressure(sys_, rep["s"])
        if abs(p_at_s) > 1e-9:
            errors.append(f"oracle |P(s)| = {abs(p_at_s):.3e} at reported s")
        if rep["projected_mode"] in ("SscFormula", "ExpectedMin") \
                and abs(rep["ly_dim"] - rep["s"]) > 1e-9:
            errors.append(f"ly_dim {rep['ly_dim']!r} != s {rep['s']!r}")
        return errors

    def digest(self, stdout):
        return stdout


# The README "Library" path: radii 2^-4 .. 2^-9 for the local and box slopes.
MC_RADII = 2.0 ** np.arange(-4, -10, -1)
MC_COUNT, MC_DEPTH = 200_000, 25
MC_CHECKED_POINTS = 2_000


class McEstimate(Workload):
    """affinity_dimension, sample_symbolic and the three estimators.

    ex1 carries the projection certificate; the d=3 and d=4 systems do not.
    Each system runs with two sampling seeds drawn from the workload seed.
    """

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        for tag, cfg in (("ex1", EX1), ("d3", D3), ("d4", D4)):
            for k in range(2):
                self.add_config(cfg, f"mc-{tag}",
                                sample_seed=int(self.rng.integers(0, 2 ** 31)))

    def execute(self, cli, K, op):
        with open(op["path"]) as fh:
            spec = K.parse_ifs(fh.read())
        s = K.affinity_dimension(spec)
        samples = K.sample_symbolic(spec, s, count=MC_COUNT, depth=MC_DEPTH,
                                    seed=op["sample_seed"])
        local, _ = K.estimate_local_dimension(
            samples, K.sampling.default_centers(samples), MC_RADII)
        projected, _ = K.estimate_projected_dim(samples, K.Projection.X)
        box = K.box_count(samples, MC_RADII)
        return s, samples, local, projected, box

    def check(self, op, result):
        s, samples, local, projected, box = result
        sys_ = self.system(op["text"])
        root = oracle.affinity_dimension(sys_)
        errors = []
        if abs(s - root) > 1e-9:
            errors.append(f"affinity_dimension {s!r} vs oracle {root!r}")
        if samples.points.shape != (MC_COUNT, 2) or samples.words.shape != (MC_COUNT, MC_DEPTH):
            return errors + ["sample arrays have the wrong shape"]
        rows = np.linspace(0, MC_COUNT - 1, MC_CHECKED_POINTS).astype(np.int64)
        centre, lo, hi = oracle.centres_and_rects(sys_, samples.words[rows])
        pts = samples.points[rows]
        off = float(np.abs(pts - centre).max())
        if off > samples.accuracy + 1e-12:
            errors.append(f"point {off:.3e} from its word's composition "
                          f"(accuracy {samples.accuracy:.3e})")
        if ((pts < lo - 1e-12) | (pts > hi + 1e-12)).any():
            errors.append("a sampled point lies outside its word's rectangle")
        if abs(local - root) > 0.15:
            errors.append(f"local slope {local:.4f} vs s* {root:.4f}")
        if abs(box - root) > 0.2:
            errors.append(f"box slope {box:.4f} vs s* {root:.4f}")
        if oracle.projection_certified(sys_):
            want = min(oracle.entropy_over_chi1(sys_, root), 1.0)
            if abs(projected - want) > 0.10:
                errors.append(f"projected slope {projected:.4f} vs h/chi1 {want:.4f}")
        return errors

    def digest(self, result):
        s, samples, local, projected, box = result
        h = hashlib.sha256(samples.points.tobytes())
        h.update(samples.words.tobytes())
        return (s, local, projected, box, samples.accuracy, h.hexdigest())


SE_COUNT, SE_DEPTH, SE_PX = 100_000, 30, 512


class SampleExport(Workload):
    """``sample --out F.csv`` then ``render --out F.pgm`` with the same draw."""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        for tag, cfg in (("ex1", EX1), ("d3", D3)):
            op = self.add_config(cfg, f"export-{tag}",
                                 sample_seed=int(self.rng.integers(0, 2 ** 31)))
            op["csv"] = str(out_dir / f"export-{tag}.csv")
            op["pgm"] = str(out_dir / f"export-{tag}.pgm")

    def execute(self, cli, K, op):
        draw = ["--spec", op["path"], "--count", str(SE_COUNT), "--depth", str(SE_DEPTH),
                "--seed", str(op["sample_seed"])]
        run_cli(cli, ["sample", *draw, "--out", op["csv"]])
        run_cli(cli, ["render", *draw, "--px", str(SE_PX), "--out", op["pgm"]])
        return op["csv"], op["pgm"]

    def check(self, op, result):
        csv_path, pgm_path = result
        lines = Path(csv_path).read_text().splitlines()
        if lines[0] != "x,y,word" or len(lines) != SE_COUNT + 1:
            return ["CSV header or row count is wrong"]
        rows = [ln.split(",") for ln in lines[1:]]
        pts = np.array([(float(x), float(y)) for x, y, _ in rows])
        words = np.array([[int(c) for c in w] for _, _, w in rows])
        if words.shape != (SE_COUNT, SE_DEPTH):
            return ["CSV word column has the wrong length"]
        errors = []
        _, lo, hi = oracle.centres_and_rects(self.system(op["text"]), words)
        outside = int(((pts < lo - 1e-12) | (pts > hi + 1e-12)).any(axis=1).sum())
        if outside:
            errors.append(f"{outside} CSV points lie outside their word's rectangle")
        # documented scaling: row 0 is y = 1, intensity 255 log1p(c) / log1p(max c)
        px = SE_PX
        cols = np.clip((pts[:, 0] * px).astype(np.int64), 0, px - 1)
        rws = px - 1 - np.clip((pts[:, 1] * px).astype(np.int64), 0, px - 1)
        counts = np.zeros((px, px), dtype=np.int64)
        np.add.at(counts, (rws, cols), 1)
        img = np.rint(255.0 * np.log1p(counts) / np.log1p(counts.max())).astype(np.uint8)
        want = f"P5\n{px} {px}\n255\n".encode("ascii") + img.tobytes()
        if Path(pgm_path).read_bytes() != want:
            errors.append("PGM differs from the histogram of the CSV points")
        return errors

    def digest(self, result):
        h = hashlib.sha256()
        for path in result:
            h.update(Path(path).read_bytes())
        return h.hexdigest()


# Depths whose level enumeration stays near 4-5 million words, below the
# 1e7 cap (d=2 at its cap depth 23 peaks above 700 MB).
VERIFY_DEPTH = {2: 22, 3: 14, 4: 11}
VERIFY_ROWS = 6
_RATIOS = re.compile(r"two-sided comparability decay\s+ratios (.*)$")


class VerifyEnum(Workload):
    """``verify --max-depth N --s S`` on one pool system for each d = 2, 3, 4.

    The seed picks the pool entry (ratios, kinds and s) and places the maps.
    """

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        pool = json.loads(INPUTS.read_text())["verify_pool"]
        for d in (2, 3, 4):
            entries = pool[str(d)]
            e = entries[int(self.rng.integers(0, len(entries)))]
            self.add_config(place(e["kinds"], e["a"], e["b"], self.rng), f"verify-d{d}",
                            s=e["s"], depth=VERIFY_DEPTH[d])

    def execute(self, cli, K, op):
        return run_cli(cli, ["verify", "--spec", op["path"], "--max-depth", str(op["depth"]),
                             "--s", repr(op["s"])])

    def check(self, op, stdout):
        lines = stdout.splitlines()
        errors = [f"row not PASS: {ln}" for ln in lines if not ln.startswith("PASS")]
        if len(lines) != VERIFY_ROWS:
            errors.append(f"{len(lines)} rows, expected {VERIFY_ROWS}")
        sys_ = self.system(op["text"])
        i = next(k + 1 for k in range(sys_.d) if not sys_.anti[k] and sys_.a[k] != sys_.b[k])
        j = next(k + 1 for k in range(sys_.d) if sys_.anti[k])
        printed = [m.group(1) for m in map(_RATIOS.search, lines) if m]
        if len(printed) != 1:
            return errors + ["no comparability ratios printed"]
        texts = printed[0].split(", ")
        for n, text in enumerate(texts, start=1):
            u, v = (i,) * n + (j,), (i,) * n
            want = math.exp(oracle.log_phi(sys_, u + v, op["s"])
                            - oracle.log_phi(sys_, u, op["s"]) - oracle.log_phi(sys_, v, op["s"]))
            half_unit = 0.5 * 10.0 ** (int(text.split("e")[1]) - 3)
            if abs(float(text) - want) > half_unit * (1 + 1e-9):
                errors.append(f"comparability ratio n={n}: printed {text}, oracle {want:.6e}")
        if len(texts) != 4:
            errors.append(f"{len(texts)} comparability ratios, expected 4")
        return errors

    def digest(self, stdout):
        return stdout


WORKLOADS = {
    "report-sweep": ReportSweep,
    "mc-estimate": McEstimate,
    "sample-export": SampleExport,
    "verify-enum": VerifyEnum,
}
