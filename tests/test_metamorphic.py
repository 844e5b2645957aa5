"""Metamorphic relations: changes to a group's input that must leave its class table fixed.

*Change of generating set.*  Reversing the catalog's generators, or appending
the product of the first and the last, generates the same group, so the
multiset of (class size, element order, rank, |A_w|) over its classes must
not change; only the representatives' indices may.  Unlike the counts,
which sum |c| * fix(c) over the classes and so are blind to a partition that
is too fine, this relation sees a class partition that misses one
generator's conjugation: dropping the last generator's conjugation drops a
different one once the list is reversed, and none once a product is
appended.
"""

import pytest

from matrix_helpers import close_rows, prod
from repcount import catalog
from repcount.catalog import parse_spec
from repcount.modp import Modulus

SPECS = ["g12", "g24", "g29", "g31", "family2a:m=4,s=2,n=3,p=5", "family2a:m=3,s=3,n=3,p=7",
         "sphere:m=4,p=5"]

#: Each change of generating set, as a map of the catalog's rows at a modulus.
CHANGES = {
    "as listed": lambda gens, modulus: gens,
    "reversed": lambda gens, modulus: gens[::-1],
    "first times last appended": lambda gens, modulus: gens + [prod(modulus, gens[0], gens[-1])],
}


def class_table(spec, change) -> list:
    """The sorted (class size, element order, rank, |A_w|) of the spec's group
    closed at M0 from the changed generators, with a factory that changes them alike."""
    def factory(modulus):
        return change(catalog.generators(spec, modulus), modulus)

    modulus = Modulus(spec.p, spec.min_modulus_exponent())
    group = close_rows(factory(modulus), modulus, spec.expected_order,
                       generator_factory=factory, name=spec.label())
    return sorted((r.class_size, r.element_order, r.rank, r.torsion_order)
                  for r in group.conjugacy_classes())


@pytest.mark.parametrize("label", SPECS)
def test_class_table_is_independent_of_the_generating_set(label):
    spec = parse_spec(label)
    tables = {name: class_table(spec, change) for name, change in CHANGES.items()}
    assert tables["reversed"] == tables["as listed"]
    assert tables["first times last appended"] == tables["as listed"]
