"""Projected one-dimensional systems and the dimension formula.

The x-extents of cylinder rectangles are generated by 2d interval
contractions indexed by the doubled alphabet: ratio a_i and offset tx_i for
unshifted symbols, ratio b_(i-d) and offset ty_(i-d) for shifted ones.  The
x-interval of the planar cylinder of a word equals the interval of its tau
lift in this system; the y-interval is that of the tau lift with every
symbol shifted by d mod 2d, a lift this package does not build.  A state is
followed by one whole half of the alphabet, so the system's separation
certificate compares two families of d intervals, not 2d successor sets.

The dimension of the measure combines entropy, the two Lyapunov exponents
and the dimension of the x-projection:

    dim = h / chi2 + ((chi2 - chi1) / chi2) * dim_projected

Under a per-state separation certificate for the interval system the
projected dimension is h / chi1, below 1: it is at most the dimension of the
interval attractor, and each family's disjoint intervals in [0, 1] have ratios
summing to less than 1.  When only the pairwise norm conditions hold it is
min(h / chi1, 1) for almost every translation, flagged as a conjecture for
any specific translation.  projected_dimension resolves only these two modes,
SscFormula and ExpectedMin; a user-supplied or Monte Carlo value is built by
its caller as a ProjectedDim (the command line's project-dim builds both).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalMismatch, NoCertificate, SOutOfRange
from .ifs import IfsSpec, SeparationReport, TransversalityReport, check_strong_separation, check_transversality
from .thermo import ThermoSummary, entropy, lyapunov_exponents, thermo_summary

__all__ = [
    "check_projection_ssc",
    "ProjectedMode", "ProjectedDim", "projected_dimension",
    "ly_dimension", "DimensionReport", "dimension_report",
]


def check_projection_ssc(spec: IfsSpec) -> bool:
    """Per-state separation of the interval system.

    True when, for every state, the intervals of its allowed successors are
    pairwise disjoint (touching intervals fail).  A state is followed by all
    unshifted symbols, with intervals [tx, tx + a], or by all shifted ones,
    with intervals [ty, ty + b], so each family is sorted once.  Conservative
    sufficient certificate for the projected dimension formula.
    """
    for lo, ratios in ((spec.tx, spec.a), (spec.ty, spec.b)):
        order = np.argsort(lo)
        if ((lo + ratios)[order][:-1] >= lo[order][1:]).any():
            return False
    return True


class ProjectedMode(Enum):
    SSC_FORMULA = "SscFormula"
    EXPECTED_MIN = "ExpectedMin"
    USER_SUPPLIED = "UserSupplied"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class ProjectedDim:
    value: float
    mode: ProjectedMode
    ssc_certified: bool


def projected_dimension(spec: IfsSpec, s: float, mode_request: ProjectedMode | None = None,
                        transversality: TransversalityReport | None = None) -> ProjectedDim | None:
    """The projected dimension of the formula: h/chi1, that of the m1 part on x.

    Resolves the formula's two modes.  With no mode requested, the separation
    certificate selects SscFormula, the h/chi1 value, below 1 since each
    certified family's ratios sum to less than 1 (rounding past 1 is clamped;
    InternalMismatch above 1 + 1e-12); failing that, the pairwise norm
    conditions (a given transversality report) select ExpectedMin, min(h/chi1, 1)
    (an almost-every-translation value, flagged as such); otherwise None is returned
    and the caller reports the value as unknown.  A requested SscFormula raises
    NoCertificate without the certificate.  A user-supplied or Monte Carlo value
    is not a formula mode: its caller builds the ProjectedDim itself.
    """
    if not (0.0 < s < 2.0):
        raise SOutOfRange(f"s={s} must lie in (0,2)")
    certified = check_projection_ssc(spec)
    if mode_request is None:
        if certified:
            mode_request = ProjectedMode.SSC_FORMULA
        elif (transversality or check_transversality(spec)).holds:
            mode_request = ProjectedMode.EXPECTED_MIN
        else:
            return None

    h = entropy(spec, s)
    chi1, _ = lyapunov_exponents(spec, s)
    ratio = h / chi1
    if mode_request is ProjectedMode.SSC_FORMULA:
        if not certified:
            raise NoCertificate("projection separation certificate failed")
        if ratio > 1.0 + 1e-12:
            raise InternalMismatch(f"h/chi1={ratio} exceeds 1 under the separation certificate")
    elif mode_request is not ProjectedMode.EXPECTED_MIN:
        raise ValueError(f"{mode_request.value} is not a mode of the formula")
    return ProjectedDim(value=min(ratio, 1.0), mode=mode_request, ssc_certified=certified)


def ly_dimension(thermo: ThermoSummary, projected: ProjectedDim) -> float:
    """dim = h/chi2 + ((chi2 - chi1)/chi2) * projected value.

    When the projected value is min(h/chi1, 1) this reduces algebraically to
    h/chi1 for h <= chi1 and to 1 + (h - chi1)/chi2 otherwise.
    """
    if thermo.chi2 <= 0.0:
        raise SOutOfRange("chi2 must be positive")
    return (thermo.entropy / thermo.chi2
            + (thermo.chi2 - thermo.chi1) / thermo.chi2 * projected.value)


@dataclass(frozen=True)
class DimensionReport:
    thermo: ThermoSummary
    projected: ProjectedDim | None
    ly_dim: float | None
    separation: SeparationReport
    transversality: TransversalityReport
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "pressure": self.thermo.pressure,
            "entropy": self.thermo.entropy,
            "chi1": self.thermo.chi1,
            "chi2": self.thermo.chi2,
            "affinity_dim": self.thermo.affinity_dim,
            "projected_dim": None if self.projected is None else self.projected.value,
            "projected_mode": None if self.projected is None else self.projected.mode.value,
            "ly_dim": self.ly_dim,
            "strong_separation": self.separation.strong_separation,
            "transversality": self.transversality.holds,
            "warnings": list(self.warnings),
        }


def dimension_report(spec: IfsSpec, s: float,
                     affinity_dim: float | None = None) -> DimensionReport:
    """Assemble hypothesis checks, thermodynamic summary and the dimension;
    a given affinity_dim (the pressure root) is not searched for again."""
    notes = []
    separation = check_strong_separation(spec)
    transversality = check_transversality(spec)
    summary = thermo_summary(spec, s, affinity_dim)
    if not separation.strong_separation:
        notes.append("strong separation not certified at level 1; the dimension "
                     "formula is reported without its separation hypothesis")
    if (spec.a == spec.b)[:spec.l - 1].all():
        notes.append("degenerate system: every diagonal map has a == b")
    elif (gap := summary.chi2 - summary.chi1) < 1e-12:
        notes.append(f"Lyapunov gap {gap:.3e} below 1e-12 on a non-degenerate system")
    projected = projected_dimension(spec, s, transversality=transversality)
    if projected is None:
        notes.append("projected dimension unknown: no separation certificate and "
                     "the pairwise norm conditions fail; dimension omitted")
        ly = None
    else:
        if projected.mode is ProjectedMode.EXPECTED_MIN:
            notes.append("projected dimension uses the almost-every-translation value "
                         "min(h/chi1, 1); for this specific translation it is a "
                         "conjecture, not a theorem")
        ly = ly_dimension(summary, projected)
    return DimensionReport(thermo=summary, projected=projected, ly_dim=ly,
                           separation=separation, transversality=transversality,
                           warnings=tuple(notes))
