import warnings

import numpy as np
import pytest

from kaenmaki import AffineMap2D, MapKind, make_spec
from kaenmaki.errors import DegenerateSystemWarning

EX1_JSON = """
{"maps": [{"kind": "diag", "a": 0.3333333333333333, "b": 0.2, "tx": 0, "ty": 0},
          {"kind": "anti", "a": 0.25, "b": 0.2, "tx": 0.5, "ty": 0.5}],
 "s": null}
""".replace(', "s": null', "")


def diag(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.DIAGONAL, a=a, b=b, tx=tx, ty=ty)


def anti(a, b, tx, ty):
    return AffineMap2D(kind=MapKind.ANTI_DIAGONAL, a=a, b=b, tx=tx, ty=ty)


@pytest.fixture(scope="session")
def ex1():
    """d=2, l=2 reference system: one diagonal, one anti-diagonal map."""
    return make_spec([diag(1 / 3, 1 / 5, 0.0, 0.0), anti(1 / 4, 1 / 5, 0.5, 0.5)])


def uniform_spec(d, c, n_anti=1):
    """d maps with all ratios equal to c, placed on a disjoint diagonal strip."""
    maps = []
    step = (1.0 - c) / max(d - 1, 1)
    for k in range(d):
        t = k * step
        kind = anti if k >= d - n_anti else diag
        maps.append(kind(c, c, t, t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSystemWarning)
        return make_spec(maps)


@pytest.fixture(scope="session")
def uniform2():
    """d=2, all ratios 1/3; separated; closed forms apply."""
    return uniform_spec(2, 1 / 3)


@pytest.fixture(scope="session")
def uniform4():
    """d=4, all ratios 1/2: the pressure root sits exactly at 2."""
    return uniform_spec(4, 1 / 2)


@pytest.fixture(scope="session")
def central_fixture():
    """First map's fixed point is centered on its primary side (all dyadic)."""
    return make_spec([diag(0.5, 1 / 3, 0.25, 0.0), anti(0.25, 0.25, 0.0, 2 / 3)])


def random_spec(rng, d=None):
    """A valid random system; at least one diagonal map has a != b."""
    d = int(d if d is not None else rng.integers(2, 4))
    n_diag = int(rng.integers(1, d))
    maps = []
    for k in range(d):
        a = float(rng.uniform(0.15, 0.45))
        b = float(rng.uniform(0.15, 0.45))
        if k == 0:
            while abs(a - b) < 0.02:
                b = float(rng.uniform(0.15, 0.45))
        tx = float(rng.uniform(0.0, 1.0 - a))
        ty = float(rng.uniform(0.0, 1.0 - b))
        maps.append(diag(a, b, tx, ty) if k < n_diag else anti(a, b, tx, ty))
    return make_spec(maps)


def rho_symbol(i, d):
    """Shift-by-d involution on {1..2d}."""
    return (i + d - 1) % (2 * d) + 1


def compose_loop(spec, w):
    """(log_p, log_q, parity, x, y) of a word by one scalar pass per letter.

    Left to right for the row magnitudes (with even parity a letter adds
    (log a, log b) to the rows, with odd parity (log b, log a)) and right to
    left for the image of the square's centre: the reference for the batch
    kernel coding.signature_arrays.
    """
    log_p = log_q = 0.0
    odd = False
    for i in w:
        m = spec.map(int(i))
        la, lb = np.log(m.a), np.log(m.b)
        log_p, log_q = (log_p + lb, log_q + la) if odd else (log_p + la, log_q + lb)
        odd ^= m.anti
    x, y = 0.5, 0.5
    for i in reversed(w):
        x, y = spec.map(int(i)).apply(x, y)
    return log_p, log_q, odd, x, y


def all_words(d, n):
    """(d^n, n) matrix of all words of length n over 1..d, lexicographic."""
    idx = np.arange(d ** n)
    cols = [(idx // d ** (n - 1 - k)) % d + 1 for k in range(n)]
    return np.column_stack(cols).astype(np.int64)


def csv_text_loop(points, words):
    """The x,y,word CSV text with one f-string per row: the reference for
    sampling.csv_lines (repr of each coordinate; the word's digits, joined by
    '-' when some symbol of the set has two digits)."""
    sep = "-" if words.max() >= 10 else ""
    rows = ["x,y,word\n"]
    for point, word in zip(points, words):
        x, y = point.tolist()
        rows.append(f"{x!r},{y!r},{sep.join(map(str, word.tolist()))}\n")
    return "".join(rows)


def grid_spec(d, n_anti, seed=0):
    """d maps, one per cell of the ceil(sqrt d) grid, the last n_anti anti-diagonal."""
    rng = np.random.default_rng(seed)
    g = int(np.ceil(np.sqrt(d)))
    maps = []
    for k in range(d):
        cx, cy = divmod(k, g)
        a, b = rng.uniform(0.2, 0.9, 2) / g
        kind = anti if k >= d - n_anti else diag
        maps.append(kind(float(a), float(b), cx / g, cy / g))
    return make_spec(maps)
