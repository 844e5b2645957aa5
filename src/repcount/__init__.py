"""Exact orbit counting for finite reflection groups over Z/p^M.

Builds the exceptional groups G12, G24, G29, G31 and the monomial family
G(m,s,n) from explicit generator matrices, and counts orbits of their
action on (Z/p^k)^l by several independent methods (full Burnside sums,
classwise rank/torsion sums, closed forms, fundamental-domain enumeration,
a brute-force count over scalar classes of points) that must agree exactly.
"""

from .catalog import GroupSpec, build, exponents, parse_spec
from .counting import (
    CountReport,
    count_burnside_classes,
    count_burnside_full,
    count_formula_general,
    torsion_census,
    torsion_classes,
)
from .errors import RepcountError
from .formulas import theorem_a, theorem_c
from .grassmannian import build_orbits, enumerate_distinguished, theorem_b
from .groups import ConjugacyClassRecord, FiniteMatrixGroup, close
from .linalg import SquareMatrix, diagonal, kernel_size, smith_valuations
from .modp import Modulus, hensel_lift, invert, mth_root_of_unity, teichmuller
from .oracle import orbit_count_bruteforce

__version__ = "0.1.0"

__all__ = [
    "ConjugacyClassRecord",
    "CountReport",
    "FiniteMatrixGroup",
    "GroupSpec",
    "Modulus",
    "RepcountError",
    "SquareMatrix",
    "build",
    "build_orbits",
    "close",
    "count_burnside_classes",
    "count_burnside_full",
    "count_formula_general",
    "diagonal",
    "enumerate_distinguished",
    "exponents",
    "hensel_lift",
    "invert",
    "kernel_size",
    "mth_root_of_unity",
    "orbit_count_bruteforce",
    "parse_spec",
    "smith_valuations",
    "teichmuller",
    "theorem_a",
    "theorem_b",
    "theorem_c",
    "torsion_census",
    "torsion_classes",
]
