"""Elliptic Apostol-Dedekind sums, reciprocity functions, generating
functions and Machide sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellded.exact import CoprimePair, apostol_sum, g_poly
from ellded.qseries import TauPoint, eisenstein, elliptic_bernoulli_points
from ellded.symbols import (
    MachideSpec,
    Route,
    elliptic_apostol_sum,
    expected_constant,
    generating_D,
    generating_R,
    machide_reciprocity_residuals,
    machide_sum,
    proposition31_constant_closed_form,
    proposition31_residual,
    reciprocity_rhs,
    _fsum,
)

TWO_PI_I = 2j * math.pi

TAU_I = TauPoint(1j)
TAU_G = TauPoint(0.3 + 1.1j)


def _d(n, p, q, tau, route=Route.ZETA_DERIVATIVE):
    return elliptic_apostol_sum(n, CoprimePair(p, q), tau, route)


class TestEllipticApostolSum:
    def test_empty_sum(self):
        res = _d(1, 1, 5, TauPoint(2j))
        assert res.value.value == 0

    def test_periodicity_and_oddness(self):
        n, p, q = 1, 5, 2
        base = _d(n, p, q, TAU_G).value
        shift = _d(n, p, q + p, TAU_G).value
        neg = _d(n, p, -q, TAU_G).value
        assert abs(shift.value - base.value) <= 2 * (shift.err + base.err)
        assert abs(neg.value + base.value) <= 2 * (neg.err + base.err)

    def test_degeneration_limit(self):
        for n, p, q in ((1, 3, 1), (1, 5, 3), (2, 5, 2)):
            d = _d(n, p, q, TauPoint(20j)).value
            limit = (-(TWO_PI_I ** (2 * n)) / math.factorial(2 * n + 1)
                     * p ** (2 * n) * float(apostol_sum(2 * n + 1, q, p)))
            assert abs(d.value - limit) < 1e-8

    def test_route_cross_check(self):
        n, p, q = 2, 7, 3
        a = _d(n, p, q, TAU_I, Route.ZETA_DERIVATIVE).value
        b = _d(n, p, q, TAU_I, Route.BERNOULLI_PRODUCT).value
        assert abs(a.value - b.value) <= a.err + b.err

    def test_coprimality(self):
        with pytest.raises(ValueError):
            _d(1, 4, 2, TAU_I)

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_symbol_axioms_sampled(self, data):
        n = data.draw(st.integers(1, 2))
        p = data.draw(st.integers(1, 6))
        q = data.draw(st.integers(-6, 6).filter(lambda v: math.gcd(p, v) == 1))
        tau = TauPoint(complex(data.draw(st.floats(-0.3, 0.3)),
                               data.draw(st.floats(0.9, 1.4))))
        base = _d(n, p, q, tau).value
        shift = _d(n, p, q + p, tau).value
        neg = _d(n, p, -q, tau).value
        assert abs(shift.value - base.value) <= 2 * (shift.err + base.err) + 1e-13
        assert abs(neg.value + base.value) <= 2 * (neg.err + base.err) + 1e-13


class TestReciprocityRhs:
    def test_symmetry(self):
        a = reciprocity_rhs(2, CoprimePair(3, 2), TAU_G)
        b = reciprocity_rhs(2, CoprimePair(2, 3), TAU_G)
        assert abs(a.value - b.value) <= 2 * (a.err + b.err)

    def test_degenerates_to_g_poly(self):
        # at large Im(tau), R^-_w -> (2 (2 pi i)^w / w!) g_w(p, q)
        for w, p, q in ((2, 3, 1), (4, 5, 2)):
            n = w // 2
            r = reciprocity_rhs(n, CoprimePair(p, q), TauPoint(20j)).value
            target = (2 * TWO_PI_I**w / math.factorial(w)
                      * complex(g_poly(w).evaluate(p, q)))
            assert abs(r - target) < 1e-8

    def test_reciprocity_law(self):
        for n, p, q in ((1, 3, 2), (2, 5, 3)):
            for tau in (TAU_I, TAU_G):
                d1 = _d(n, p, q, tau).value
                d2 = _d(n, q, p, tau).value
                r = reciprocity_rhs(n, CoprimePair(p, q), tau)
                assert abs((d1 + d2 - r).value) <= (d1 + d2 - r).err

    def test_requires_u(self):
        with pytest.raises(ValueError):
            reciprocity_rhs(1, CoprimePair(3, -2), TAU_I)


class TestGeneratingFunctions:
    def test_d_empty(self):
        assert generating_D(CoprimePair(1, 4), TAU_I, 0.1).value == 0

    def test_d_oddness_in_q(self):
        pair_pos = CoprimePair(3, 2)
        pair_neg = CoprimePair(3, -2)
        a = generating_D(pair_pos, TAU_I, 0.01)
        b = generating_D(pair_neg, TAU_I, 0.01)
        assert abs(a.value + b.value) <= 2 * (a.err + b.err)

    def test_d_taylor_reconstruction(self):
        # even part in x reproduces sum_n D_{2n} x^{2n}
        p, q, x = 3, 2, 0.01
        pair = CoprimePair(p, q)
        even = (generating_D(pair, TAU_I, x).value
                + generating_D(pair, TAU_I, -x).value) / 2
        series = sum(
            _d(n, p, q, TAU_I).value.value * x ** (2 * n) for n in range(1, 4)
        )
        assert abs(even - series) < 1e-8

    def test_r_symmetry(self):
        a = generating_R(CoprimePair(3, 2), TAU_I, 0.02)
        b = generating_R(CoprimePair(2, 3), TAU_I, 0.02)
        assert abs(a.value - b.value) <= 2 * (a.err + b.err)

    def test_r_taylor_coefficient(self):
        # x^2 coefficient via Richardson-extrapolated central differences
        pair = CoprimePair(2, 1)
        tau = TAU_I

        def f(x):
            return generating_R(pair, tau, x).value

        def second_deriv(h):
            return (f(h) - 2 * _r0(pair, tau) + f(-h)) / h**2

        # R(x) - R0 ~ c2 x^2 + c4 x^4; even function, so use the even part
        def _r0(pair, tau):
            # constant term: limit by Richardson from two small steps
            h1, h2 = 0.01, 0.005
            a = (f(h1) + f(-h1)) / 2
            b = (f(h2) + f(-h2)) / 2
            return (4 * b - a) / 3

        h1, h2 = 0.02, 0.01
        d1 = second_deriv(h1)
        d2 = second_deriv(h2)
        c2 = (4 * d2 - d1) / 3 / 2  # Richardson, then /2! for the coefficient
        target = reciprocity_rhs(1, pair, tau).value
        assert abs(c2 - target) < 1e-6

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            generating_D(CoprimePair(3, 2), TAU_I, 0.4)
        with pytest.raises(ValueError):
            generating_R(CoprimePair(3, 2), TAU_I, 0.0)

    def test_theorem13_constancy_and_constant(self):
        for tau in (TAU_I, TauPoint(0.2 + 1.2j)):
            pair = CoprimePair(3, 2)
            swap = CoprimePair(2, 3)
            vals = []
            for x in (0.003, 0.007, 0.011):
                v = (generating_D(pair, tau, x)
                     + generating_D(swap, tau, x)
                     - generating_R(pair, tau, x))
                vals.append(v.value)
            assert max(abs(a - b) for a in vals for b in vals) < 1e-8
            const = expected_constant(pair, tau).value
            assert abs(vals[0] - const) < 1e-8


class TestMachide:
    def test_single_term_zero_factor(self):
        # all vectors (1,1); arguments reduce to B_1(-1/2, 0), which vanishes
        spec = MachideSpec((1, 1), (1, 1), (1, 1),
                           (0.5, 0.0), (0.5, 0.0), (0.0, 0.0), 1, 1)
        val = machide_sum(spec, TAU_I)
        assert abs(val.value) < 1e-12

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            MachideSpec((1, 1), (1, 1), (1, 1),
                        (0.0, 0.0), (0.5, 0.0), (0.0, 0.0), 1, 1)
        with pytest.raises(ValueError):
            MachideSpec((1, 1), (1, 1), (1, 1),
                        (0.5, 0.0), (1.0 + 5e-10, 0.0), (0.0, 0.0), 1, 1)

    def test_nonpositive_vectors_rejected(self):
        with pytest.raises(ValueError):
            MachideSpec((0, 1), (1, 1), (1, 1),
                        (0.5, 0.0), (0.5, 0.0), (0.0, 0.0), 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vec", ["vec_x", "vec_y", "vec_z"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_vectors_rejected(self, vec, slot, bad):
        # rejected as such, before the degeneracy checks round them
        reals = {"vec_x": [0.5, 0.0], "vec_y": [0.5, 0.0], "vec_z": [0.3, 0.0]}
        reals[vec][slot] = bad
        with pytest.raises(ValueError, match="must be finite"):
            MachideSpec((1, 1), (1, 1), (1, 1), *map(tuple, reals.values()), 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_parameters_rejected(self, bad):
        # s enters vec_x; t enters vec_y and vec_z
        for s, t in ((bad, 0.007), (0.013, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                machide_reciprocity_residuals(CoprimePair(3, 2), s, t, TAU_I)

    @pytest.mark.parametrize("pq", [(3, 2), (5, 3)])
    def test_lemma_combinations_vanish(self, pq):
        rs = machide_reciprocity_residuals(CoprimePair(*pq), 0.013, 0.007, TAU_I)
        for r in rs:
            assert abs(r.value) < 1e-7

    def test_lemma_combinations_perturbed(self):
        rs = machide_reciprocity_residuals(
            CoprimePair(3, 2), 0.019, 0.011, TauPoint(0.1 + 1.2j))
        for r in rs:
            assert abs(r.value) < 1e-7


class TestProposition31:
    def test_constancy_in_s(self):
        r1 = proposition31_residual(CoprimePair(3, 2), 0.006, TAU_I)
        r2 = proposition31_residual(CoprimePair(3, 2), 0.009, TAU_I)
        assert abs((r1 - r2).value) <= (r1 - r2).err

    def test_constant_value(self):
        r = proposition31_residual(CoprimePair(3, 2), 0.009, TAU_I)
        const = expected_constant(CoprimePair(3, 2), TAU_I)
        assert abs(r.value - const.value) < 1e-8
        # spot-check the expected constant itself
        e2 = eisenstein(1, TAU_I).value
        assert abs(const.value - (-e2 / ((TWO_PI_I**2).real * 6))) < 1e-15

    def test_closed_form(self):
        r = proposition31_residual(CoprimePair(3, 2), 0.009, TAU_I)
        c = proposition31_constant_closed_form(CoprimePair(3, 2), TAU_I)
        assert abs((r - c).value) <= (r - c).err

    def test_s_domain_guard(self):
        with pytest.raises(ValueError):
            proposition31_residual(CoprimePair(3, 2), 0.4, TAU_I)

    @pytest.mark.parametrize("t", [0.3 + 1.1j, 0.2 + 0.06j])
    @pytest.mark.parametrize("pq", [(5, 3), (3, 4), (23, 12), (12, 23), (7, 10)])
    def test_closed_form_division_sum_vanishes(self, pq, t):
        """The closed form's sum over P != 0, sum B_2(pP; tau) over the
        q-division points, is zero within its err while its terms are not:
        the closed form is expected_constant plus rounding, not an
        independent route to C(tau)."""
        p, q = pq
        lam, mu = np.divmod(np.arange(1, q * q), q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            b2 = elliptic_bernoulli_points(2, p * lam / q, p * mu / q, TauPoint(t))
        total = _fsum(b2)
        assert abs(total.value) <= total.err < 0.01 * math.fsum(np.abs(b2.value))


# ---------------------------------------------------------------------------
# Division-point sums against the per-point loop reference
# ---------------------------------------------------------------------------

import warnings  # noqa: E402

import loop_reference as ref  # noqa: E402
from ellded.qseries import SlowNomeWarning  # noqa: E402


def _within_combined_err(a, b):
    """Criterion 11: two routes agree within their combined err."""
    assert abs(a.value - b.value) <= a.err + b.err, (a, b)


_pairs = st.integers(2, 13).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1)))
_taus = st.builds(lambda re, im: TauPoint(complex(re, im)),
                  st.floats(-0.5, 0.5), st.sampled_from((1.1, 0.3, 0.11, 0.06)))


class TestAgainstLoopReference:
    @given(n=st.integers(1, 3), pq=_pairs, tau=_taus)
    @settings(max_examples=10, deadline=None)
    def test_elliptic_apostol_sum_both_routes(self, n, pq, tau):
        pair = CoprimePair(*pq)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            for route in Route:
                _within_combined_err(elliptic_apostol_sum(n, pair, tau, route).value,
                                     ref.elliptic_apostol_sum(n, pair, tau, route))

    @given(pq=_pairs, tau=_taus, u=st.floats(-0.9, 0.9))
    @settings(max_examples=10, deadline=None)
    def test_generating_D(self, pq, tau, u):
        pair = CoprimePair(*pq)
        x = u / (2 * pair.p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            _within_combined_err(generating_D(pair, tau, x), ref.generating_D(pair, tau, x))

    @given(pq=_pairs, tau=_taus, u=st.floats(0.1, 0.9), neg=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_proposition31(self, pq, tau, u, neg):
        pair = CoprimePair(*pq)
        s = (-u if neg else u) / (2 * max(pq))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            _within_combined_err(proposition31_residual(pair, s, tau),
                                 ref.proposition31_residual(pair, s, tau))
            _within_combined_err(proposition31_constant_closed_form(pair, tau),
                                 ref.proposition31_constant_closed_form(pair, tau))

    @given(pq=_pairs, tau=_taus, m=st.integers(0, 2), n=st.integers(0, 2),
           s=st.floats(0.005, 0.02), t=st.floats(0.003, 0.012))
    @settings(max_examples=10, deadline=None)
    def test_machide_sum(self, pq, tau, m, n, s, t):
        p, q = pq
        try:
            spec = MachideSpec((1, 1), (p, p), (q, q), (s, 0.0), (p * t, 0.0),
                               (-q * t, 0.0), m, n)
        except ValueError:
            return  # degenerate spec, rejected before any sum is formed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowNomeWarning)
            _within_combined_err(machide_sum(spec, tau), ref.machide_sum(spec, tau))

    def test_machide_rectangular_grid(self):
        # c != c' exercises the (j, j') grid in row-major order
        spec = MachideSpec((2, 3), (1, 2), (3, 5), (0.11, 0.2), (0.05, 0.3),
                           (0.07, 0.01), 2, 1)
        _within_combined_err(machide_sum(spec, TAU_G), ref.machide_sum(spec, TAU_G))

    def test_division_points_rounded_like_the_loops(self):
        # (lambda + mu tau)/p in numpy divides through a rounded 1/p; the
        # sums' steep factors turned that ulp into reciprocity residuals
        # several times larger
        from ellded.symbols import _division_z, _grid
        for p, tau in ((14, TauPoint(0.0218 + 1.1j)), (23, TAU_G), (7, TauPoint(-0.3 + 0.06j))):
            lam, mu = _grid(p, p)
            z = _division_z(lam, mu, tau, p)
            assert [complex(v) for v in z] == [(l + m * tau.tau) / p
                                               for l, m in zip(lam.tolist(), mu.tolist())]

    def test_repeat_runs_bit_identical(self):
        pair = CoprimePair(7, 3)
        a = elliptic_apostol_sum(2, pair, TAU_G, Route.BERNOULLI_PRODUCT).value
        b = elliptic_apostol_sum(2, pair, TAU_G, Route.BERNOULLI_PRODUCT).value
        assert a == b
        assert generating_D(pair, TAU_G, 0.01) == generating_D(pair, TAU_G, 0.01)


# ---------------------------------------------------------------------------
# One point per pair {P, -P}
# ---------------------------------------------------------------------------

from ellded.symbols import _half_division_points  # noqa: E402


@pytest.mark.parametrize("p", range(1, 25))
def test_half_division_points_one_per_pair(p):
    lam, mu, w = _half_division_points(p)
    points = list(zip(lam.tolist(), mu.tolist()))

    def pair(P):
        return frozenset({P, (-P[0] % p, -P[1] % p)})

    pairs = {pair((a, b)) for a in range(p) for b in range(p) if (a, b) != (0, 0)}
    assert len(points) == len(pairs) and {pair(P) for P in points} == pairs
    assert w.sum() == p * p - 1
    torsion = {P for P in points if len(pair(P)) == 1}
    assert torsion == {P for P, v in zip(points, w.tolist()) if v == 1.0}
    assert set(w.tolist()) <= {1.0, 2.0}
    assert len(torsion) == (3 if p % 2 == 0 else 0)
    if p == 2:
        assert torsion == set(points)


@pytest.mark.parametrize("p", [1, 2, 7])
def test_half_division_points_built_once_read_only(p):
    """The table of a p is built once and shared: a second call returns the
    same arrays, which refuse writes."""
    first = _half_division_points(p)
    again = _half_division_points(p)
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


#: even p (weight-1 points) next to odd, with an even q for the sums over q
PAIRED_PQ = [(2, 1), (4, 3), (12, 5), (23, 12)]


@pytest.mark.parametrize("im", [1.1, 0.06])
@pytest.mark.parametrize("p, q", PAIRED_PQ)
def test_paired_sums_against_loop_reference(p, q, im):
    """The sums over one point per pair {P, -P} against the per-point loops
    over all of them: both routes, D^-(x), the Prop. 3.1 residual and the
    closed form of its constant (over q and, swapped, over p)."""
    tau, pair = TauPoint(complex(0.2, im)), CoprimePair(p, q)
    x, s = 0.3 / (2 * p), 0.3 / (2 * max(p, q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        for route in Route:
            _within_combined_err(elliptic_apostol_sum(2, pair, tau, route).value,
                                 ref.elliptic_apostol_sum(2, pair, tau, route))
        _within_combined_err(generating_D(pair, tau, x), ref.generating_D(pair, tau, x))
        _within_combined_err(proposition31_residual(pair, s, tau),
                             ref.proposition31_residual(pair, s, tau))
        for u, v in ((p, q), (q, p)):
            _within_combined_err(proposition31_constant_closed_form(CoprimePair(u, v), tau),
                                 ref.proposition31_constant_closed_form(CoprimePair(u, v), tau))
