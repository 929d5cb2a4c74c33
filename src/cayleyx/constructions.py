"""Explicit connection-set constructions and their certification reports.

Each construction produces a ConnectionSet and a report carrying the
closed-form predictions (degree, eigenvalue set, Ramanujan claim) next to
what was actually computed by the shared character/eigensolver pipeline.
Whenever a closed form and the computation disagree, the mismatch goes into
``discrepancies`` instead of being silently patched; the known corrections
(the product construction's fifth eigenvalue class, the sign of the
Kloosterman-set valency) are applied up front and noted in ``notes``.

The GF(2^m) sets live on the additive group Z_2^m, where a polynomial-basis
element is its own flat index: coordinate i is the coefficient of
x^(m-1-i), the ravel order of :class:`cayleyx.groups.AbelianGroup`.

Every construction refuses an order above :data:`cayleyx.groups.MAX_ORDER`
before it builds anything, the GF(2^m) sets through :class:`cayleyx.gf2.Gf2Field`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gf2 import Gf2Field, _kloosterman_values, _sign_tables
from .graphs import CayleyGraph, ConnectionSet, GraphStats
from .groupring import GdsCertificate, _certificate
from .groups import AbelianGroup, check_order, check_order_log2, sorted_unique
from .spectral import (RamanujanVerdict, Spectrum, quotient_cuts, ramanujan_check,
                       spectrum_by_characters, table_identity)

__all__ = [
    "ConstructionReport",
    "certify",
    "theorem33_set",
    "theorem33_condition",
    "kloosterman_trace_set",
    "dij_set",
    "polar_trace_set",
    "bent_hadamard_set",
]


@dataclass
class ConstructionReport:
    """A graph's certification (:func:`certify`): its spectrum, statistics,
    verdict and checks; a named construction adds its closed-form
    predictions and the mismatches.  The connection set is ``graph.connection``."""

    graph: CayleyGraph
    spectrum: Spectrum
    verdict: RamanujanVerdict
    stats: GraphStats
    oracle_agrees: bool  # the table identity
    crossing_checks: dict  # the quotient cuts
    gds: GdsCertificate  # None if C's difference counts take three values or more
    srg: tuple  # (v, k, lambda, mu); None if not strongly regular or not connected
    predicted_degree: int = None
    predicted_eigenvalues: set = field(default_factory=set)
    predicted_ramanujan: bool = None
    discrepancies: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self):
        """verdict.json's dict, a construction's predictions aside."""
        st = self.stats
        return {**self.verdict.to_json(), "components": st.component_count,
                "bipartite": st.bipartite,
                "diameter": st.diameter if st.diameter != math.inf else None,
                "oracle_agrees": self.oracle_agrees, "crossing_checks": self.crossing_checks,
                "gds": list(self.gds.parameters) if self.gds else None,
                "srg": list(self.srg) if self.srg else None}


def certify(graph, seed=0):
    """The one certification of every named construction and of ``cayleyx
    analyze``, with no predictions.  C*C comes first: the statistics take
    their level-1 step from it, and the GDS certificate (C = -C) and the srg
    check read it.  The table identity draws its weights from ``seed``."""
    common = graph.common_neighbor_counts()
    spec, stats = spectrum_by_characters(graph), graph.stats()
    verdict = ramanujan_check(spec, graph.k, stats.component_count == 1)
    return ConstructionReport(
        graph, spec, verdict, stats, oracle_agrees=table_identity(graph, seed),
        crossing_checks=quotient_cuts(graph, spec),
        gds=_certificate(graph.group, graph.connection.indices, common.ravel()[1:]),
        srg=graph.srg_check() if verdict.connected else None)


def _certify(connection, predicted_degree, predicted_eigenvalues, predicted_ramanujan,
             claim_name, notes=()):
    """:func:`certify` the graph of ``connection`` with its closed-form
    predictions, and collect the prediction/computation mismatches."""
    report = replace(certify(CayleyGraph(connection)), predicted_degree=predicted_degree,
                     predicted_eigenvalues=set(predicted_eigenvalues),
                     predicted_ramanujan=predicted_ramanujan, notes=list(notes))
    k, verdict, discrepancies = report.graph.k, report.verdict, report.discrepancies
    if k != predicted_degree:
        discrepancies.append(f"degree: computed {k}, closed form {predicted_degree}")
    allowed = report.predicted_eigenvalues | {k, -k}
    stray = [v for v in report.spectrum.values() if v not in allowed]
    if stray:
        discrepancies.append(f"eigenvalues outside predicted set: {sorted(stray)}")
    if predicted_ramanujan != verdict.is_ramanujan:
        discrepancies.append(
            f"{claim_name}: predicts Ramanujan={predicted_ramanujan}, "
            f"spectrum says {verdict.is_ramanujan}"
            + ("" if verdict.connected else " (graph disconnected)")
        )
    return report


# -- product construction over Z_s x Z_r ---------------------------------------

def theorem33_condition(s, r):
    """The stated Ramanujan criterion max{r-2, s-2} < 2*sqrt(sr/2 - 3),
    evaluated through its two equivalent integer inequalities."""
    _check_even(s, r)
    return (2 * s + 4 - r) * r > 16 and (2 * r + 4 - s) * s > 16


def _check_even(s, r):
    if s < 4 or r < 4 or s % 2 or r % 2:
        raise ValueError(f"s and r must be even and >= 4, got ({s}, {r})")


def theorem33_set(s, r):
    """Symmetric difference of (C0 x K) and (E x C1) in Z_s x Z_r, where C0
    and C1 are the punctured even-index subgroups.  Degree sr/2 - 2; sr is
    checked against ``MAX_ORDER`` before any array is built."""
    _check_even(s, r)
    check_order(s * r, "theorem33")
    x, y = np.indices((s, r))  # the first mask is C0 x K, the second E x C1
    D = np.flatnonzero(((x % 2 == 0) & (x >= 2)) ^ ((y % 2 == 0) & (y >= 2)))
    # the fifth eigenvalue class: -(s-2)(r-2)/2.  The printed closed form has
    # /4, which its own worked (4,4) example (spectrum 6, 2, -2) contradicts.
    case5 = -(s - 2) * (r - 2) // 2
    predicted = {s * r // 2 - 2, r - 2, s - 2, -2, case5}
    criterion_holds = theorem33_condition(s, r)
    return _certify(
        ConnectionSet(AbelianGroup([s, r]), D),
        predicted_degree=s * r // 2 - 2,
        predicted_eigenvalues=predicted,
        predicted_ramanujan=criterion_holds,
        claim_name="product-construction criterion (2s+4-r)r>16 & (2r+4-s)s>16",
        notes=[
            "fifth eigenvalue class uses the re-derived -(s-2)(r-2)/2",
            f"criterion fired: {criterion_holds}",
        ],
    )


# -- Kloosterman trace set over GF(2^m) ----------------------------------------

def _trace_pair_set(tables, i, j):
    """Ascending int64 array of the z != 0 with Tr(z) = i and Tr(1/z) = j,
    read from a field's :func:`cayleyx.gf2._sign_tables`."""
    signs, inv_signs = tables  # inv_signs[0] = 0 matches no j
    return np.flatnonzero((signs == 1 - 2 * i) & (inv_signs == 1 - 2 * j))


def kloosterman_trace_set(m):
    """D = {z != 0 : Tr(z) = Tr(1/z) = 1} in the additive group of GF(2^m).

    Degree (k_m(1) + 2^m + 1)/4 (the printed valency carries a stray minus
    sign); nontrivial eigenvalues (-k_m(a) + k_m(a+1))/4 for a != 0, 1 plus
    the bipartite -|D|.  The stated Ramanujan filter k_m(1) > 3 is
    sufficient-only, so the prediction and the spectrum verdict can disagree
    in the other direction.
    """
    fld = Gf2Field(m)
    tables = _sign_tables(fld)  # the trace pairs and the transform both read them
    D = _trace_pair_set(tables, 1, 1)
    table = _kloosterman_values(fld, tables[1])
    k1 = int(table[1])
    degree = (k1 + fld.order + 1) // 4
    assert (k1 + fld.order + 1) % 4 == 0
    a = np.arange(2, fld.order)
    predicted = {-degree, *sorted_unique((table[a ^ 1] - table[a]) // 4).tolist()}
    return _certify(
        ConnectionSet(AbelianGroup([2] * m), D),
        predicted_degree=degree,
        predicted_eigenvalues=predicted,
        predicted_ramanujan=k1 > 3,
        claim_name="Kloosterman filter k_m(1) > 3 (sufficient-only)",
        notes=[f"k_m(1) = {k1}", "valency sign corrected to +(2^m+1+k_m(1))/4"],
    )


def dij_set(m, i, j):
    """The set {z != 0 : Tr(z) = i, Tr(1/z) = j} of field elements, as
    their own flat indices, in a ConnectionSet (always symmetric since
    -z = z); an empty set raises ValueError."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("i and j must be bits")
    D = _trace_pair_set(_sign_tables(Gf2Field(m)), i, j)
    if not D.size:
        raise ValueError(f"D_{i},{j} is empty for m={m}")
    return ConnectionSet(AbelianGroup([2] * m), D)


# -- polar trace set over GF(2^{2m}) --------------------------------------------

def polar_trace_set(m):
    """D = {x != 0 : Tr_m(x + xbar) = Tr_m(x*xbar) = 1} in GF(2^{2m}),
    xbar = x^(2^m).  Degree 2^{2m-2} (m even) or 2^{2m-2} + 2^{m-1} (m odd);
    eigenvalues within {+-degree, +-2^{m-1}, 0}; connected bipartite
    Ramanujan."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n_deg = 2 * m
    fld = Gf2Field(n_deg)
    exp, s = fld._exp_table, (1 << m) - 1
    # the norm x * xbar of x = g^i is g^((2^m+1)i), which depends on i mod s
    # only: column j of exp on the (2^m+1) x s grid has the norm exp[(2^m+1)j]
    log_norm = ((1 << m) + 1) * np.arange(s)
    norm_trace = np.zeros(s, dtype=np.int64)
    for i in range(m):  # Tr_m(y) = sum_{i < m} y^(2^i)
        norm_trace ^= exp[(log_norm << i) % exp.size]
    assert norm_trace.max() <= 1
    # the columns with Tr_m(x * xbar) = 1, then their x with Tr_m(x + xbar) = Tr(x) = 1
    D = exp.reshape(-1, s)[:, norm_trace == 1]
    D = D[fld.trace_signs()[D] == -1]
    degree = (1 << (n_deg - 2)) + (m % 2) * (1 << (m - 1))
    predicted = {degree, -degree, 1 << (m - 1), -(1 << (m - 1)), 0}
    report = _certify(
        ConnectionSet(AbelianGroup([2] * n_deg), D),
        predicted_degree=degree,
        predicted_eigenvalues=predicted,
        predicted_ramanujan=True,
        claim_name="polar construction (claims connected bipartite Ramanujan)",
    )
    if not report.stats.bipartite or report.stats.component_count != 1:
        report.discrepancies.append(
            "polar construction: graph not connected bipartite as claimed"
        )
    return report


# -- bent-function Hadamard difference set in Z_2^{2u} ---------------------------

def bent_hadamard_set(u):
    """Support of the inner-product bent function on Z_2^{2u}: the Hadamard
    difference set (2^{2u}, 2^{2u-1} - 2^{u-1}, 2^{2u-2} - 2^{u-1}), whose
    Cayley graph has spectrum {k, +-2^{u-1}}."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    # flat index x holds coordinate i at bit 2u-1-i, so the pairs g_i g_{u+i}
    # are the low u bits of x & (x >> u)
    x = np.arange(check_order_log2(2 * u, "bent-hadamard"))
    D = np.flatnonzero(np.bitwise_count(x & (x >> u) & ((1 << u) - 1)) & 1)
    k = (1 << (2 * u - 1)) - (1 << (u - 1))
    predicted = {k, 1 << (u - 1), -(1 << (u - 1))}
    return _certify(
        ConnectionSet(AbelianGroup([2] * (2 * u)), D),
        predicted_degree=k,
        predicted_eigenvalues=predicted,
        predicted_ramanujan=True,
        claim_name="elementary-abelian Hadamard set (claims Ramanujan)",
    )
