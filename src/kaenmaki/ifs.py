"""Planar iterated function systems built from diagonal and anti-diagonal contractions.

A system consists of d affine maps of the unit square into itself.  Each map
has a linear part that is either diagonal, acting as (x, y) -> (a*x, b*y), or
anti-diagonal, acting as (x, y) -> (a*y, b*x), followed by a translation.
Maps are kept sorted so that all diagonal maps precede all anti-diagonal maps;
``l`` is the 1-based index of the first anti-diagonal map.

All values are immutable after construction and every operation here is a
pure function, so the types are safe to share between threads.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateSystemWarning,
    MalformedConfig,
    NoAntiDiagonal,
    NoDiagonal,
    NonContracting,
    SOutOfRange,
    SquareEscape,
)


class MapKind(Enum):
    DIAGONAL = "diag"
    ANTI_DIAGONAL = "anti"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, other: "Rect") -> bool:
        return (self.x0 <= other.x0 and other.x1 <= self.x1
                and self.y0 <= other.y0 and other.y1 <= self.y1)


UNIT_SQUARE = Rect(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class AffineMap2D:
    """One contraction of the system.

    For a diagonal map the image of a w x h rectangle is (a*w) x (b*h); for an
    anti-diagonal map the axes swap first, so the image is (a*h) x (b*w).
    Construction enforces contraction in both directions and containment of
    the image of the unit square in the unit square.
    """

    kind: MapKind
    a: float
    b: float
    tx: float
    ty: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise NonContracting(f"ratios must lie in (0,1), got a={self.a}, b={self.b}")
        img = self(UNIT_SQUARE)
        if not UNIT_SQUARE.contains(img):
            raise SquareEscape(
                f"image [{img.x0}, {img.x1}] x [{img.y0}, {img.y1}] leaves the unit square")

    @property
    def anti(self) -> bool:
        return self.kind is MapKind.ANTI_DIAGONAL

    def apply(self, x: float, y: float) -> tuple[float, float]:
        if self.anti:
            return self.a * y + self.tx, self.b * x + self.ty
        return self.a * x + self.tx, self.b * y + self.ty

    def __call__(self, rect: Rect) -> Rect:
        """Exact image rectangle (again axis-aligned)."""
        if self.anti:
            return Rect(self.a * rect.y0 + self.tx, self.a * rect.y1 + self.tx,
                        self.b * rect.x0 + self.ty, self.b * rect.x1 + self.ty)
        return Rect(self.a * rect.x0 + self.tx, self.a * rect.x1 + self.tx,
                    self.b * rect.y0 + self.ty, self.b * rect.y1 + self.ty)


@dataclass(frozen=True)
class IfsSpec:
    """A validated system: maps 1..l-1 diagonal, maps l..d anti-diagonal.

    ``s`` is an optional dimension parameter carried over from the config
    file; operations that need s take it explicitly.
    """

    maps: tuple[AffineMap2D, ...]
    d: int
    l: int
    s: float | None = None

    @property
    def a(self) -> tuple[float, ...]:
        return tuple(m.a for m in self.maps)

    @property
    def b(self) -> tuple[float, ...]:
        return tuple(m.b for m in self.maps)

    def map(self, i: int) -> AffineMap2D:
        """1-based map lookup, matching word symbols."""
        return self.maps[i - 1]


def make_spec(maps, s: float | None = None) -> IfsSpec:
    """Sort diagonal maps first (stable), validate, and build an IfsSpec.

    Emits DegenerateSystemWarning when no diagonal map has a != b; such
    systems are accepted to support closed-form test fixtures.
    """
    maps = list(maps)
    diag = [m for m in maps if not m.anti]
    anti = [m for m in maps if m.anti]
    if not anti:
        raise NoAntiDiagonal("the class requires at least one anti-diagonal map")
    if not diag:
        raise NoDiagonal("the class requires at least one diagonal map")
    ordered = tuple(diag + anti)
    if all(m.a == m.b for m in diag):
        warnings.warn(
            "no diagonal map with a != b; dimension theory degenerates to the self-similar case",
            DegenerateSystemWarning, stacklevel=2)
    return IfsSpec(maps=ordered, d=len(ordered), l=len(diag) + 1, s=s)


def parse_ifs(config_text: str) -> IfsSpec:
    """Parse a JSON config into a validated IfsSpec.

    Expected shape::

        {"maps": [{"kind": "diag"|"anti", "a": 0.3, "b": 0.2, "tx": 0, "ty": 0}, ...],
         "s": 1.0}

    Map order in the file is free; diagonal maps are moved in front,
    preserving relative order.
    """
    try:
        obj = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise MalformedConfig(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "maps" not in obj or not isinstance(obj["maps"], list):
        raise MalformedConfig("config must be an object with a 'maps' array")
    kinds = {"diag": MapKind.DIAGONAL, "anti": MapKind.ANTI_DIAGONAL}
    maps = []
    for k, entry in enumerate(obj["maps"]):
        if not isinstance(entry, dict):
            raise MalformedConfig(f"maps[{k}] is not an object")
        try:
            kind = kinds[entry["kind"]]
            a, b = float(entry["a"]), float(entry["b"])
            tx, ty = float(entry["tx"]), float(entry["ty"])
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedConfig(f"maps[{k}]: {e!r}") from None
        maps.append(AffineMap2D(kind=kind, a=a, b=b, tx=tx, ty=ty))
    s = obj.get("s")
    if s is not None:
        s = float(s)
        if not (0.0 < s < 2.0):
            raise SOutOfRange(f"config s={s} must lie in (0,2)")
    return make_spec(maps, s=s)


@dataclass(frozen=True)
class SeparationReport:
    strong_separation: bool
    min_gap: float
    failing_pair: tuple[int, int] | None


def check_strong_separation(spec: IfsSpec) -> SeparationReport:
    """Certify strong separation via disjointness of the level-1 rectangles.

    This is a sufficient condition; the reported min_gap, the least
    sup-metric distance between two level-1 rectangles, is a usable lower
    bound for the first-level separation constant.  failing_pair is the
    first pair (i, j), i < j, whose rectangles meet.
    """
    x0, y0 = np.array([m.tx for m in spec.maps]), np.array([m.ty for m in spec.maps])
    x1, y1 = x0 + spec.a, y0 + spec.b
    gaps = np.maximum(np.maximum(x0[:, None] - x1, x0 - x1[:, None]),
                      np.maximum(y0[:, None] - y1, y0 - y1[:, None])).clip(0.0)
    np.fill_diagonal(gaps, np.inf)
    # gaps is symmetric, so its first zero in row-major order has i < j
    touching = np.argwhere(gaps == 0.0)
    failing = (int(touching[0, 0]) + 1, int(touching[0, 1]) + 1) if len(touching) else None
    min_gap = float(gaps.min())
    return SeparationReport(strong_separation=min_gap > 0.0,
                            min_gap=min_gap, failing_pair=failing)


@dataclass(frozen=True)
class TransversalityReport:
    u: tuple[float, ...]
    v: tuple[float, ...]
    holds: bool
    norm_sufficient: bool


def check_transversality(spec: IfsSpec) -> TransversalityReport:
    """Pairwise norm conditions under which projected dimensions take the
    expected value for almost every translation.

    u_i = a_i and v_i = b_i for diagonal maps; anti-diagonal maps pick up the
    largest opposite ratio among the anti-diagonal block:
    u_i = a_i * max(b_j), v_i = b_i * max(a_j).  The condition holds when
    u_i + u_j < 1 and v_i + v_j < 1 for every pair i != j.
    """
    anti_maps = [m for m in spec.maps if m.anti]
    max_b = max(m.b for m in anti_maps)
    max_a = max(m.a for m in anti_maps)
    u = [m.a * max_b if m.anti else m.a for m in spec.maps]
    v = [m.b * max_a if m.anti else m.b for m in spec.maps]
    # rounding is monotone, so the largest pair sum is that of the two largest
    holds = all(sum(sorted(x)[-2:]) < 1.0 for x in (u, v))
    norm_sufficient = all(
        max(m.a, m.b) < (0.5 if not m.anti else 0.5 ** 0.5) for m in spec.maps)
    return TransversalityReport(u=tuple(u), v=tuple(v), holds=holds,
                                norm_sufficient=norm_sufficient)
