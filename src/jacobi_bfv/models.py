"""Scenario type and the builtin.

A Model is one scenario: a chart, the operator J that defines the
bracket on it, the connection every command lifts J along, a second
connection for intertwine, a section of the fiber projection and the
solver options.  Model states every default once: the flat trivial
connection, no second connection, the zero section, kmax 3 and
max_iter 64.  It checks J, rank, section, connections and counts with
the engine's own checks, so library callers and scenario files get the
same messages.  The scenario loader passes only what a file sets.  The
only builtin is the contact structure on the five-torus with two
constrained angles.
"""

from .scalar import Chart, ScalarExpr
from .multideriv import jacobi_from_pair
from .contraction import ConnectionSpec, check_connection, check_section
from .solver import _check_count


class Model:
    """One scenario: J with its chart and rank, conn, conn2 (None when
    absent), section, kmax (the largest m_k linf reports) and max_iter
    (the cap on corrections per solve and exponentials per intertwiner).
    A J, rank, section, connection or count that breaks its rule raises
    ValueError."""

    __slots__ = ("name", "chart", "rank", "J", "conn", "conn2", "section",
                 "kmax", "max_iter")

    def __init__(self, name, J, conn=None, conn2=None, section=None,
                 kmax=3, max_iter=64):
        check_connection(J, *(c for c in (conn, conn2) if c is not None))
        self.name = name
        self.chart, self.rank = J.chart, J.rank
        self.J = J
        if section is None:
            section = (0,) * len(J.chart.fiber)
        self.section = check_section(J.chart, J.rank, section)
        self.conn = ConnectionSpec(J.chart, J.rank) if conn is None else conn
        self.conn2 = conn2
        _check_count(kmax, "kmax")
        _check_count(max_iter, "max_iter")
        self.kmax = kmax
        self.max_iter = max_iter


def t5_contact():
    """Bracket data of a contact structure on the five-torus, written in
    a chart where the last two coordinates span the conormal directions
    of the submanifold  y1 = y2 = 0.  The auxiliary vector field is
    Y = sin(phi3) d4 + cos(phi3) d5; the second connection has
    vert (0, 1) = sin(phi3)."""
    chart = Chart(
        ["phi1", "phi2", "phi3", "phi4", "phi5", "y1", "y2"],
        angular=["phi1", "phi2", "phi3", "phi4", "phi5"],
        fiber=["y1", "y2"],
    )
    sin3 = ScalarExpr.sin(chart, "phi3")
    cos3 = ScalarExpr.cos(chart, "phi3")
    y1 = ScalarExpr.coord(chart, "y1")
    y2 = ScalarExpr.coord(chart, "y2")
    biv = {
        ("phi3", "phi4"): cos3,
        ("phi3", "phi5"): -sin3,
        ("phi4", "y1"): y1 * sin3,
        ("phi4", "y2"): y2 * sin3,
        ("phi5", "y1"): y1 * cos3,
        ("phi5", "y2"): y2 * cos3,
        ("phi1", "y1"): ScalarExpr.number(chart, -1),
        ("phi2", "y2"): ScalarExpr.number(chart, -1),
    }
    vec = {"phi4": sin3, "phi5": cos3}
    return Model("t5-contact", jacobi_from_pair(chart, 2, biv, vec),
                 conn2=ConnectionSpec(chart, 2, vert={(0, 1): sin3}))
