import random
from fractions import Fraction as F

import pytest

from critlocus import (
    KoszulComplex,
    MultiPoly,
    OneForm,
    build_crit,
    de_rham_and_internal,
    omega_minus_one,
    one_form_closed,
    zero_locus_one_form,
)
from critlocus.symplectic import pairing_form

from conftest import random_poly
from oracles import differential_of, pullback_tautological, tautological_one_form


def variables(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


def random_one_form(rng, n, max_degree=3):
    return OneForm(tuple(random_poly(rng, n, max_degree) for _ in range(n)))


class TestClosedness:
    def test_exact_form(self):
        x, y = variables(2)
        assert one_form_closed(OneForm((y, x)))

    def test_curl_detection(self):
        x, y = variables(2)
        assert not one_form_closed(OneForm((y, MultiPoly.zero(2))))

    def test_differentials_are_closed(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, max_degree=4)
            assert one_form_closed(differential_of(f))


class TestZeroLocus:
    def test_matches_critical_locus_for_differentials(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, max_degree=3)
            result = zero_locus_one_form(differential_of(f))
            K = build_crit(f)
            assert result.complex.diff_images == K.diff_images
            assert result.closed

    def test_closed_swap_form(self):
        x, y = variables(2)
        result = zero_locus_one_form(OneForm((y, x)))
        assert result.closed and result.lagrangian_flag and result.symplectic_claim
        from critlocus import koszul_homology

        rep = koszul_homology(result.complex, bound=4)
        assert rep.mode == "finite" and rep.dimensions[0] == 1

    def test_non_closed_still_builds_complex(self):
        x, y = variables(2)
        result = zero_locus_one_form(OneForm((y, MultiPoly.zero(2))))
        assert not result.closed and not result.lagrangian_flag
        assert not result.symplectic_claim
        assert result.complex.diff_images == (y, MultiPoly.zero(2))


class TestPullbackTautological:
    def test_polynomial_section(self):
        x, y = variables(2)
        alpha = OneForm((x**2, x * y))
        record = pullback_tautological(alpha)
        assert record.matches_input and record.pulled_back == alpha

    def test_zero_section(self):
        record = pullback_tautological(OneForm.zero(3))
        assert record.matches_input

    def test_identity_on_100_random_forms(self):
        rng = random.Random(1203)
        for _ in range(100):
            n = rng.randint(1, 3)
            alpha = random_one_form(rng, n, max_degree=3)
            record = pullback_tautological(alpha)
            assert record.matches_input
            assert record.pulled_back == alpha


class TestOmegaMinusOne:
    def test_univariate_morse_all_checks(self):
        x = variables(1)[0]
        K = KoszulComplex(1, (2 * x,), "critical_locus")
        internal_closed = omega_minus_one(1, K)
        omega, pairing, invertible = pairing_form(1)
        d_lam, _ = de_rham_and_internal(tautological_one_form(1), K)
        d_omega, _ = de_rham_and_internal(omega, K)
        assert d_lam == omega  # omega is the de Rham differential of lambda
        assert d_omega.is_zero()
        assert internal_closed
        assert pairing == ((F(1),),)
        assert invertible

    def test_internal_closed_for_any_critical_locus(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, max_degree=4)
            K = build_crit(f)
            assert omega_minus_one(n, K)  # symmetry of second partials

    def test_non_closed_one_form_residue(self):
        y = variables(2)[1]
        K = KoszulComplex(2, (y, MultiPoly.zero(2)), "one_form")
        assert not omega_minus_one(2, K)
        _, residue = de_rham_and_internal(pairing_form(2)[0], K)
        # residue is (-1) * dx^dy
        from critlocus import CdgaElement, FormElement

        expected = FormElement(
            {((0, 1), ()): CdgaElement.from_poly(MultiPoly.constant(-1, 2))}, 2
        )
        assert residue == expected

    def test_pairing_is_identity_for_all_arities(self):
        for n in range(1, 4):
            K = KoszulComplex(n, tuple(MultiPoly.zero(n) for _ in range(n)))
            omega, pairing, invertible = pairing_form(n)
            assert pairing == tuple(
                tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n)
            )
            assert invertible
            # d never reads K: d(lambda) = omega and d(omega) = 0 in every arity
            d_lam, _ = de_rham_and_internal(tautological_one_form(n), K)
            assert d_lam == omega
            assert de_rham_and_internal(omega, K)[0].is_zero()

    def test_closedness_gating_agreement(self, rng):
        # one_form_closed and vanishing of the internal differential of the
        # pairing form are independent detections of the same condition
        for _ in range(60):
            n = rng.randint(1, 3)
            alpha = random_one_form(rng, n)
            result = zero_locus_one_form(alpha)
            assert result.closed == omega_minus_one(n, result.complex)
