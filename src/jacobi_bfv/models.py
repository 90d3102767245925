"""Built-in scenario data.

A Model carries one chart, the operator J built from the
bivector/vector pair that defines the bracket on it, and a default
section of the fiber projection.  The only built-in is the contact
structure on the five-torus with two constrained angles.
"""

from .scalar import Chart, ScalarExpr
from .multideriv import jacobi_from_pair
from .contraction import ConnectionSpec


class Model:
    "Chart plus structure data for one scenario."

    __slots__ = ("name", "chart", "rank", "J", "flat", "section")

    def __init__(self, name, chart, rank, biv, vec, section=None):
        self.name = name
        self.chart = chart
        self.rank = rank
        self.J = jacobi_from_pair(chart, rank, biv, vec)
        self.flat = ConnectionSpec(chart, rank)
        if section is None:
            section = tuple(ScalarExpr.zero(chart) for _ in range(rank))
        self.section = tuple(section)


def t5_contact():
    """Bracket data of a contact structure on the five-torus, written in
    a chart where the last two coordinates span the conormal directions
    of the submanifold  y1 = y2 = 0.  The auxiliary vector field is
    Y = sin(phi3) d4 + cos(phi3) d5."""
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
    return Model("t5-contact", chart, 2, biv, vec)
