"""scipy as a second point-space oracle: orbits as weak components.

The points of (Z/p^k)^l are the integers 0 .. p^(kl) - 1, one base-p^k digit
per coordinate, and each generator g of ``catalog.generators`` at p^k adds
the edge x -> x g from every point.  The group's orbits are the weak
components of that graph, which ``scipy.sparse.csgraph`` counts.  Nothing
here reads ``oracle`` or the class partition, so the count is checked
against both and against theorem B or C, which share no code with it;
nothing in the package imports scipy.
"""

import numpy as np
import pytest

csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")

from repcount import catalog, counting, oracle  # noqa: E402
from repcount.formulas import theorem_c  # noqa: E402
from repcount.grassmannian import theorem_b  # noqa: E402
from repcount.modp import Modulus  # noqa: E402


def weak_components(spec, k: int) -> int:
    """The orbits of the spec's group on (Z/p^k)^l, counted as weak components."""
    p, l = spec.p, spec.rank
    q = p ** k
    points = np.arange(q ** l, dtype=np.int64)
    digits = points[:, None] // q ** np.arange(l, dtype=np.int64) % q  # (N, l)
    heads = []
    for g in catalog.generators(spec, Modulus(p, k)):
        image = digits @ np.array(g.rows, dtype=np.int64) % q  # entries below q: no overflow
        heads.append(image @ q ** np.arange(l, dtype=np.int64))
    n = points.size
    graph = sparse.csr_array((np.ones(n * len(heads), dtype=np.int8),
                              (np.tile(points, len(heads)), np.concatenate(heads))),
                             shape=(n, n))
    return csgraph.connected_components(graph, directed=True, connection="weak")[0]


def closed_form(spec, k: int) -> int:
    if "theoremC" in spec.methods:
        return theorem_c(spec.kind, k)
    return theorem_b(spec.m, spec.s, spec.n, spec.p, k)


@pytest.mark.parametrize("label,k,want", [
    ("g12", 3, 23),
    ("g24", 3, 10),
    ("g29", 2, 185),
    ("g31", 2, 53),
    ("family2a:m=4,s=2,n=5,p=5", 1, 7),
    ("sphere:m=4,p=5", 6, 3907),
])
def test_weak_components_are_the_orbits(request, label, k, want):
    spec = catalog.parse_spec(label)
    got = weak_components(spec, k)
    assert got == closed_form(spec, k) == want
    group = (request.getfixturevalue("exceptional_groups")[label]
             if label.startswith("g") else catalog.build(spec))
    assert counting.count_burnside_classes(group, k).count == got
    assert oracle.orbit_count_bruteforce(group, k) == got
