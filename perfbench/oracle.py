"""The benchmark's own reference computations, built from config text alone.

Nothing here imports the program.  A system is read straight from its JSON
config; maps are numbered as the config format documents (diagonal maps
first, relative order kept), so word digits index the same maps as in the
program's output.

* Pressure: log spectral radius of the dense 2d x 2d transfer matrix on the
  doubled alphabet, from ``numpy.linalg.eigvals``.  State (k, p) is letter k
  read while the composition so far has anti-diagonal parity p; it multiplies
  the top row of the product by a_k when p = 0 and by b_k when p = 1, and its
  successors carry parity p xor anti(k).
* Affinity dimension: bisection for the root of that pressure.
* Singular value function: explicit 2x2 matrix products and
  ``numpy.linalg.svd``.
* Points and cylinder rectangles: explicit 2x2 linear parts and translations
  composed along each word.
"""

from __future__ import annotations

import json
import math

import numpy as np


class System:
    """Maps of one config, diagonal maps first."""

    def __init__(self, text: str):
        maps = json.loads(text)["maps"]
        ordered = ([m for m in maps if m["kind"] == "diag"]
                   + [m for m in maps if m["kind"] == "anti"])
        self.d = len(ordered)
        self.anti = np.array([m["kind"] == "anti" for m in ordered])
        self.a = np.array([float(m["a"]) for m in ordered])
        self.b = np.array([float(m["b"]) for m in ordered])
        self.tx = np.array([float(m["tx"]) for m in ordered])
        self.ty = np.array([float(m["ty"]) for m in ordered])

    def linear(self, k: int) -> np.ndarray:
        """Linear part of map k (0-based)."""
        if self.anti[k]:
            return np.array([[0.0, self.a[k]], [self.b[k], 0.0]])
        return np.array([[self.a[k], 0.0], [0.0, self.b[k]]])


def _weights(sys_: System, s: float) -> np.ndarray:
    """log of the singular-value-function factor of each doubled state."""
    top = np.concatenate([sys_.a, sys_.b])     # row factor picked up by (k, p)
    other = np.concatenate([sys_.b, sys_.a])
    if s < 1.0:
        return s * np.log(top)
    return np.log(top) + (s - 1.0) * np.log(other)


def transfer_matrix(sys_: System, s: float) -> np.ndarray:
    d = sys_.d
    parity = np.repeat([0, 1], d)
    after = parity ^ np.tile(sys_.anti.astype(int), 2)
    allowed = after[:, None] == parity[None, :]
    return allowed * np.exp(_weights(sys_, s))[None, :]


def pressure(sys_: System, s: float) -> float:
    return float(np.log(np.abs(np.linalg.eigvals(transfer_matrix(sys_, s))).max()))


def affinity_dimension(sys_: System) -> float:
    """Root of the pressure in (0, 2] by bisection (2 when P(2) >= 0)."""
    if pressure(sys_, 2.0) >= 0.0:
        return 2.0
    lo, hi = 1e-9, 2.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if pressure(sys_, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_over_chi1(sys_: System, s: float) -> float:
    """h / chi1 for the Gibbs chain of the top-row potential at s.

    pi is the product of the left and right Perron vectors; chi1 is minus the
    pi-integral of the s = 1 weights, h = P(s) minus the pi-integral of the
    s weights.
    """
    T = transfer_matrix(sys_, s)
    vals, right = np.linalg.eig(T)
    k = int(np.argmax(vals.real))
    lvals, left = np.linalg.eig(T.T)
    kl = int(np.argmax(lvals.real))
    pi = np.abs(right[:, k].real) * np.abs(left[:, kl].real)
    pi /= pi.sum()
    chi1 = -float(pi @ _weights(sys_, 1.0))
    h = float(np.log(vals[k].real)) - float(pi @ _weights(sys_, s))
    return h / chi1


def projection_certified(sys_: System) -> bool:
    """Successor intervals of every doubled state pairwise disjoint.

    Unshifted successors project to [tx_k, tx_k + a_k], shifted ones to
    [ty_k, ty_k + b_k]; every state has one of the two families.
    """
    for lo, size in ((sys_.tx, sys_.a), (sys_.ty, sys_.b)):
        order = np.argsort(lo)
        if ((lo + size)[order][:-1] >= lo[order][1:]).any():
            return False
    return True


def log_phi(sys_: System, word, s: float) -> float:
    """log phi^s of a word (1-based letters) from the SVD of its matrix product."""
    m = np.eye(2)
    for k in word:
        m = m @ sys_.linear(k - 1)
    sv = np.linalg.svd(m, compute_uv=False)
    if s < 1.0:
        return s * math.log(sv[0])
    return math.log(sv[0]) + (s - 1.0) * math.log(sv[1])


def compose(sys_: System, words: np.ndarray):
    """Linear parts L (N, 2, 2) and translations t (N, 2) of the composed maps.

    Row w of ``words`` (letters 1..d) gives f_{w1} o ... o f_{wn}.
    """
    words = np.asarray(words)
    n_rows = words.shape[0]
    lin = np.stack([sys_.linear(k) for k in range(sys_.d)])
    trans = np.column_stack([sys_.tx, sys_.ty])
    L = np.broadcast_to(np.eye(2), (n_rows, 2, 2)).copy()
    t = np.zeros((n_rows, 2))
    for col in range(words.shape[1]):
        k = words[:, col] - 1
        t = t + np.einsum("nij,nj->ni", L, trans[k])
        L = L @ lin[k]
    return L, t


def centres_and_rects(sys_: System, words: np.ndarray):
    """Image of the square's centre and of the unit square under each word.

    Returns (centres (N, 2), lower corners (N, 2), upper corners (N, 2)).
    """
    L, t = compose(sys_, words)
    centre = t + L.sum(axis=2) * 0.5
    span = np.abs(L).sum(axis=2)  # one nonzero entry per row of L
    return centre, t, t + span


def self_check() -> None:
    """Hold the oracle to the closed forms of uniform systems.

    d maps of common ratio c have P(s) = log(d c^s) and root log d / -log c.
    """
    for d, c in ((2, 1 / 3), (3, 0.2), (5, 0.3), (9, 0.25)):
        g = math.ceil(math.sqrt(d))
        maps = [{"kind": "anti" if k == d - 1 else "diag", "a": c, "b": c,
                 "tx": (k % g) / g, "ty": (k // g) / g} for k in range(d)]
        sys_ = System(json.dumps({"maps": maps}))
        for s in (0.3, 1.0, 1.7):
            want = math.log(d) + s * math.log(c)
            got = pressure(sys_, s)
            if abs(got - want) > 1e-12:
                raise AssertionError(f"oracle pressure {got} != {want} (d={d}, c={c}, s={s})")
        want = min(math.log(d) / -math.log(c), 2.0)
        got = affinity_dimension(sys_)
        if abs(got - want) > 1e-12:
            raise AssertionError(f"oracle root {got} != {want} (d={d}, c={c})")
