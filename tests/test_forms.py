"""Properties of the form product on random forms.

The wedge of forms multiplies the Koszul-algebra coefficients; these
checks pin it down as an associative product that restricts to the
Koszul-algebra product on forms without dx and dxi factors.
"""

from hypothesis import given, settings, strategies as st

from critlocus import CdgaElement, FormElement, MultiPoly

ARITY = 3

# mostly short odd monomials, so that products of three factors are often nonzero
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
monomials = st.tuples(*[st.integers(0, 2)] * ARITY)
polys = st.dictionaries(monomials, scalars, min_size=1, max_size=2).map(
    lambda t: MultiPoly(t, ARITY)
)
odd_keys = st.sets(st.integers(0, ARITY - 1), max_size=2).map(lambda s: tuple(sorted(s)))
even_keys = st.lists(st.integers(0, ARITY - 1), max_size=2).map(lambda s: tuple(sorted(s)))
cdgas = st.dictionaries(odd_keys, polys, min_size=1, max_size=3).map(
    lambda t: CdgaElement(t, ARITY)
)
forms = st.dictionaries(st.tuples(odd_keys, even_keys), cdgas, min_size=1, max_size=3).map(
    lambda t: FormElement(t, ARITY)
)


@settings(max_examples=60, deadline=None)
@given(forms, forms, forms)
def test_wedge_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(cdgas, cdgas)
def test_wedge_restricts_to_the_cdga_product(e1, e2):
    product = FormElement.from_cdga(e1) * FormElement.from_cdga(e2)
    assert product == FormElement.from_cdga(e1 * e2)
