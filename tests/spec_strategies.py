"""Hypothesis strategies and spec families shared by the test modules.

``code_specs`` draws valid specs beyond the catalog's default g2 family, so
a fast path can be checked against its oracle on ideals the catalog never
reaches; ``widened_n3_specs`` lists all 3,328 specs of the widened n=3
catalog, the only catalog that reaches all 15 of its ideals.
"""

import itertools

from hypothesis import strategies as st

from dnacyclic.cli import iter_catalog_specs
from dnacyclic.codes import CodeSpec
from dnacyclic.polynomials import PolyR, all_monic_divisors
from dnacyclic.ring import ALL_ELEMENTS


@st.composite
def code_specs(draw, lengths=(1, 3, 5)):
    """A valid spec: g1 from the divisor lattice of x^n - 1, g3 absent or a
    lattice divisor of g1, and g2 with any of the 16 ring elements as
    coefficients and deg g2 <= deg g1."""
    n = draw(st.sampled_from(lengths))
    divisors = all_monic_divisors(n)
    g1 = draw(st.sampled_from(divisors))
    g3 = draw(st.none() | st.sampled_from([d for d in divisors if d.divides_mod2(g1)]))
    g2 = PolyR(draw(st.lists(st.sampled_from(ALL_ELEMENTS), max_size=g1.degree + 1)))
    return CodeSpec(n=n, g1=g1, g2=g2, g3=g3)


def widened_n3_specs():
    """The specs of ``catalog 3 --g2-degree-bound 1`` with all 16 ring
    elements as g2 coefficients: 13 (g1, g3) pairs times 256 g2."""
    family = [PolyR(list(cs)) for cs in itertools.product(ALL_ELEMENTS, repeat=2)]
    return iter_catalog_specs(3, g2_family=family)
