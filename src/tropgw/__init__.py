"""Exact quadratic-form (Grothendieck-Witt) counts of plane tropical curves.

Three mutually cross-validating pipelines compute the same counts: the
lattice path algorithm, a Caporaso-Harris style recursion, and floor
diagram / template enumeration.  All arithmetic is exact.
"""

from .ch import ch_count, seq_binom, seq_stats
from .curves import (
    SimpleCurve,
    VertexStar,
    arith_mult,
    complex_mult,
    real_mult,
    resolve_wall,
    vertex_mult,
)
from .floors import (
    FloorDiagram,
    count_markings,
    delta_floor_count,
    enumerate_diagrams,
    floor_count,
    hirzebruch_count,
    severi_count,
)
from .gw import (
    H,
    ONE,
    ZERO,
    GWElement,
    diag,
    gw_equal,
    hilbert_symbol,
    hyperbolic,
    render,
    square_free,
)
from .lattice import (
    DualSubdivision,
    Polygon,
    delta_polygon,
    hirzebruch_polygon,
    interior_points,
    lattice_length,
    normalized_area,
)
from .paths import count_lattice_path, path_mult, path_subdivisions
from .templates import (
    Template,
    enumerate_templates,
    fit_node_polynomial,
    severi_by_templates,
    severi_by_templates_range,
    template_mult,
)

__all__ = [name for name in dir() if not name.startswith("_")]
