"""Elliptic Apostol-Dedekind sums, reciprocity functions, generating
functions and Machide sums."""

import math
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellded import qseries, symbols
from ellded.exact import CoprimePair, apostol_sum, g_poly
from ellded.qseries import (
    DEFAULT_POLICY,
    LatticePointError,
    NonConvergenceError,
    SeriesPolicy,
    TauPoint,
    eisenstein,
    elliptic_bernoulli_points,
)
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

    def test_route_by_value(self):
        # a route's value runs that route; any other raises
        for route in Route:
            by_value, by_member = _d(2, 7, 3, TAU_G, route.value), _d(2, 7, 3, TAU_G, route)
            assert by_value.route is route
            assert repr(by_value) == repr(by_member)
        with pytest.raises(ValueError, match="no-such-route"):
            _d(2, 7, 3, TAU_G, "no-such-route")

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

    def test_numpy_pair_matches_ints(self):
        # a numpy pair was summed with p**i wrapped at int64
        tau = TauPoint(0.1 + 1.1j)
        want = reciprocity_rhs(8, CoprimePair(23, 12), tau)
        assert reciprocity_rhs(8, CoprimePair(np.int64(23), np.int64(12)), tau) == want


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

    @pytest.mark.parametrize("x", [1e-100, -1e-13])
    def test_r_rejects_points_on_the_lattice(self, x):
        # p x, q x and x within the lattice check's reach of 0: a
        # LatticePointError, not an err of Infinity or of 1e23
        with pytest.raises(LatticePointError, match="is a lattice point"):
            generating_R(CoprimePair(2, 1), TauPoint(0.1 + 1j), x)

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

    @pytest.mark.parametrize("field, bad", [("vec_a", (1.5, 1)), ("vec_c", (2, True)),
                                            ("m", True), ("n", 2.0)])
    def test_integer_fields_rejected_at_the_spec(self, field, bad):
        # a float component raised TypeError out of math.gcd, and m = True
        # or 2.0 passed the spec to fail in the kernel
        args = dict(vec_a=(1, 1), vec_b=(1, 1), vec_c=(1, 1), vec_x=(0.5, 0.0),
                    vec_y=(0.5, 0.0), vec_z=(0.3, 0.0), m=1, n=1)
        args[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            MachideSpec(**args)

    def test_numpy_integers_stored_as_int(self):
        vecs = [(0.013, 0.0), (0.021, 0.0), (-0.014, 0.0)]
        spec = MachideSpec((np.int64(1), 1), (np.int64(3), np.int32(3)), (2, np.int64(2)),
                           *vecs, np.int64(1), np.int64(1))
        assert all(type(v) is int
                   for v in (*spec.vec_a, *spec.vec_b, *spec.vec_c, spec.m, spec.n))
        assert spec == MachideSpec((1, 1), (3, 3), (2, 2), *vecs, 1, 1)

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

    @staticmethod
    def _first_spec_error(p, q, s, t):
        """The ValueError of the first of the triple's eight sums, in the
        order r1, r2, r3 meet them, whose spec is degenerate, or None."""
        va, vb, vc = (1, 1), (p, p), (q, q)
        vx, vy, vz = (s, 0.0), (p * t, 0.0), (-q * t, 0.0)
        arr = {1: (va, vb, vc, vx, vy, vz), 2: (vb, vc, va, vy, vz, vx),
               3: (vc, va, vb, vz, vx, vy)}
        for k, m, n in [(2, 2, 0), (3, 0, 2), (1, 2, 0), (2, 0, 2),
                        (1, 0, 2), (1, 1, 1), (2, 1, 1), (3, 1, 1)]:
            try:
                MachideSpec(*arr[k], m, n)
            except ValueError as e:
                return str(e)
        return None

    @pytest.mark.parametrize("p, q, s, t", [
        (5, 3, 0.01, 0.01),                     # A2: a'z' - c'x' = p (s - t)
        (5, 3, 0.013, 1 / 30),                  # A3: a'z' - c'x' = 2 p q t
        (5, 3, 1 / 3 - 0.007, 0.007),           # A2: b'z' - c'y' = q (s + t)
        (3, 2, 0.007 + 1 / 3 + 1e-10, 0.007),   # A2: p (s - t) within 1e-9
        (3, 2, 0.013, 0.007),                   # none
    ])
    def test_degenerate_residual_parameters_raise_the_first_sums_error(self, p, q, s, t):
        """Each arrangement is checked once; a degenerate (s, t) raises the
        error of the first of the eight sums whose spec is degenerate."""
        want = self._first_spec_error(p, q, s, t)
        if want is None:
            machide_reciprocity_residuals(CoprimePair(p, q), s, t, TAU_G)
            return
        with pytest.raises(ValueError) as caught:
            machide_reciprocity_residuals(CoprimePair(p, q), s, t, TAU_G)
        assert str(caught.value) == want

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


def _division_map_cases(p):
    """Every q coprime to p, |q| < 2 p, q > p and q < 0 among them, and
    each one's inverse mod p, the table the Bernoulli route reads."""
    qs = [q for q in range(1 - 2 * p, 2 * p) if math.gcd(p, q) == 1]
    return sorted(set(qs) | {pow(q, -1, p) if p > 1 else 0 for q in qs})


@pytest.mark.parametrize("p", range(1, 61))
def test_division_map_permutes_the_half_points(p):
    """The integer table of q P over the half points, for every q coprime
    to p within 2 p and every inverse mod p: pi is a bijection of the half
    points that keeps their weights, so maps 2-torsion points to 2-torsion
    points, and q P - s P' is a lattice point a + b tau with b = (q mu -
    k)/p, the table's shift k = s mu' in units of 1/p."""
    lam, mu, w = _half_division_points(p)
    for q in _division_map_cases(p):
        pi, s, k = symbols._division_map(p, q)
        assert np.array_equal(np.sort(pi), np.arange(len(lam))), q
        assert np.array_equal(w[pi], w), q
        assert set(s.tolist()) <= {-1.0, 1.0} and np.array_equal(k, s * mu[pi]), q
        assert not ((q * lam - s * lam[pi]) % p).any() and not ((q * mu - k) % p).any(), q
        for a in (pi, s, k):
            assert not a.flags.writeable


def test_cold_division_map_costs_no_more_than_shifted_points():
    """A cold table of (p, q), as a benchmark run that loads the package
    afresh builds it for each pair it meets, costs no more than the
    shifted symbols' cold table of the same (p, q) (`_shifted_points`):
    summed over every pair with p up to 23, each pair's build timed as the
    best of seven taken in turn, so that a pause of the machine falls on
    one sample, not on a sum; the tables of p warm in both."""
    pairs = [(p, q) for p in range(2, 24) for q in range(1, p) if math.gcd(p, q) == 1]
    tables = (symbols._division_map.__wrapped__, symbols._shifted_points.__wrapped__)
    total = [0.0, 0.0]
    for p, q in pairs:
        _half_division_points(p)
        best = [math.inf, math.inf]
        for _ in range(7):
            for i, table in enumerate(tables):
                start = time.perf_counter()
                table(p, q)
                best[i] = min(best[i], time.perf_counter() - start)
        total = [t + b for t, b in zip(total, best)]
    assert total[0] <= total[1]


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


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.3 + 0.06j])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p, q", PAIRED_PQ)
def test_periodicity_and_oddness_against_unreduced_reference(p, q, n, t):
    """D^-(p, q) by the zeta route is periodic and odd in q: it agrees
    with the per-point loop reference at (p, q + p), and its negation with
    the reference at (p, -q), within their combined err.  The package reads
    the factor at q P through the table of q mod p (`_division_map`), so
    its own D at q + p and -q equals D at q by construction; the reference
    multiplies each point by the unreduced q."""
    tau = TauPoint(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        d = elliptic_apostol_sum(n, CoprimePair(p, q), tau).value
        _within_combined_err(
            d, ref.elliptic_apostol_sum(n, CoprimePair(p, q + p), tau, Route.ZETA_DERIVATIVE))
        _within_combined_err(
            -d, ref.elliptic_apostol_sum(n, CoprimePair(p, -q), tau, Route.ZETA_DERIVATIVE))


#: (p, q, u) of the R^-(x) checks, at x = u / (2 max(p, q)): x of both
#: signs, q on both sides of p, and q = 1
GENERATING_R_CASES = [(3, 2, 0.3), (5, 3, -0.7), (7, 11, 0.45), (2, 1, 0.9), (4, 7, -0.2)]


@pytest.mark.parametrize("t", [0.3 + 1.1j, -0.45 + 0.7j, 0.2 + 0.3j, 0.3 + 0.06j, 1.2 + 0.8j])
def test_generating_R_against_zeta_closed_form(t):
    """R^-(x), from B_1 and B_2 by the heat identity, against its closed
    form in zeta, pe and E_2, a route that reads no B_2: the public
    kernels, each reduced by its own weight, and E_2 at tau itself,

        (-b(px) b(qx) + (q/2p)(b(px)^2 - pe(px)) + (p/2q)(b(qx)^2 - pe(qx))
         + (pe(x) + E_2) / pq) / (2 pi i)^2,   b = zeta(z) - E_2 z,

    within the combined err, on F and off it."""
    from ellded.qseries import weierstrass_p_deriv, weierstrass_zeta
    tau = TauPoint(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        e2 = eisenstein(1, tau)
        for p, q, u in GENERATING_R_CASES:
            x = u / (2 * max(p, q))
            b = [weierstrass_zeta(z, tau) - e2 * z for z in (p * x, q * x)]
            pe = [weierstrass_p_deriv(0, z, tau) for z in (p * x, q * x, x)]
            form = (-(b[0] * b[1]) + (b[0] * b[0] - pe[0]) * (q / (2 * p))
                    + (b[1] * b[1] - pe[1]) * (p / (2 * q)) + (pe[2] + e2) * (1.0 / (p * q)))
            _within_combined_err(generating_R(CoprimePair(p, q), tau, x),
                                 form * (1.0 / (2j * math.pi) ** 2).real)


@given(pq=st.tuples(st.integers(1, 13), st.integers(1, 13)).filter(
           lambda pq: math.gcd(*pq) == 1 and max(pq) > 1),
       u=st.floats(0.05, 0.95), neg=st.booleans(),
       re=st.floats(-1.0, 1.0), im=st.floats(0.06, 1.5))
@settings(max_examples=30, deadline=None)
def test_proposition31_residual_is_thm13_expression(pq, u, neg, re, im):
    """Prop. 3.1's residual at s is Theorem 1.3's expression
    D^-(p, q; s) + D^-(q, p; s) - R^-(p, q; s) at x = s, within their
    combined err, on F and off it: its division sums are the two D^- at
    s, and its right side is R^-(s) by the heat identity."""
    pair, swap = CoprimePair(*pq), CoprimePair(pq[1], pq[0])
    s = (-u if neg else u) / (2 * max(pq))
    tau = TauPoint(complex(re, im))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        thm13 = generating_D(pair, tau, s) + generating_D(swap, tau, s) - generating_R(pair, tau, s)
        _within_combined_err(proposition31_residual(pair, s, tau), thm13)


# ---------------------------------------------------------------------------
# The Theorem 1.3 record: one pass per (p, q, tau, x) that every term reads
# ---------------------------------------------------------------------------

def _outcome(call):
    """The repr of what a call returns, or the type, message and partial
    of what it raises."""
    try:
        return repr(call())
    except (ValueError, ArithmeticError, NonConvergenceError) as e:
        return type(e).__name__, str(e), repr(getattr(e, "partial", None))


def _theorem13_calls(p, q, tau, x, policy=DEFAULT_POLICY):
    """D^-(p, q; x), D^-(q, p; x), R^-(p, q; x) and the Prop. 3.1 residual
    at s = x, by name; D^-(q, p; x) only where (q, p) is a pair."""
    pair = CoprimePair(p, q)
    calls = {"D": lambda: generating_D(pair, tau, x, policy),
             "R": lambda: generating_R(pair, tau, x, policy),
             "P": lambda: proposition31_residual(pair, x, tau, policy)}
    if q >= 1:
        calls["D swapped"] = lambda: generating_D(CoprimePair(q, p), tau, x, policy)
    return calls


def _own_pass(p, q, at, x, want):
    """`symbols._theorem13` with no record: one pass over the caller's
    part `want` alone, "D" for D^-(p, q; x), "R" for R^-(p, q; x) and "P"
    for the three parts of Prop. 3.1."""
    mine = [] if want == "R" else [(p, q)] if want == "D" else [(p, q), (q, p)]
    return symbols._pass13(mine, want != "D", p, q, at, x)


def _alone(calls):
    """Each call made alone on emptied caches and keeping no record, so
    that it runs its own part, and only that, in its own pass."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbols, "_theorem13", _own_pass)
        for name, call in calls.items():
            symbols._RECORDS.clear()
            out[name] = _outcome(call)
    return out


def _every_order_equals_alone(calls):
    """In every call order, each call through the records equals its call
    alone, each order on emptied records."""
    alone = _alone(calls)
    for order in permutations(calls):
        symbols._RECORDS.clear()
        assert {name: _outcome(calls[name]) for name in order} == alone, order
    return alone


@given(pq=st.tuples(st.integers(1, 13), st.integers(1, 13)).filter(
           lambda pq: math.gcd(*pq) == 1 and max(pq) > 1),
       u=st.floats(0.02, 0.98), neg=st.booleans(),
       re=st.floats(-1.0, 1.0), im=st.floats(0.06, 1.5))
@settings(max_examples=20, deadline=None)
def test_record_reads_equal_calls_alone(pq, u, neg, re, im):
    """D^-(p, q; x), D^-(q, p; x), R^-(x) and the Prop. 3.1 residual read
    through a record are repr-equal to the same calls made alone, in every
    call order, on F and off it."""
    x = (-u if neg else u) / (2 * max(pq))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        alone = _every_order_equals_alone(_theorem13_calls(*pq, TauPoint(complex(re, im)), x))
    assert all(isinstance(v, str) for v in alone.values())


#: (p, q, x) where some part is undefined: R^-'s lattice check fails at an
#: x so near 0, D^-(q, p; x) and R^- are undefined where q > p and
#: 1/(2q) <= |x| < 1/(2p), and outside U at q <= 0; the sums over no
#: division points at p = 1 and at q = 1
UNDEFINED_PARTS = [(5, 3, 1e-14), (5, 3, -3e-13), (3, 5, 0.12), (2, 13, -0.2),
                   (5, -3, 0.05), (7, -2, -0.06), (1, 7, 0.05), (7, 1, -0.05), (1, 1, 0.2)]


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.2 + 0.3j, 0.3 + 0.06j])
@pytest.mark.parametrize("p, q, x", UNDEFINED_PARTS)
def test_undefined_part_changes_no_call(p, q, x, t):
    """Where a part is undefined, each call returns or raises what it
    returns or raises alone, in every call order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        _every_order_equals_alone(_theorem13_calls(p, q, TauPoint(t), x))


#: (p, q, x, tau, max_terms) of the capped Theorem 1.3 calls, off F, where
#: every part runs at tau' in F, under a cap below the theta pass's rows
CAPPED = [(2, 13, 0.95 / 26, 0.3 + 0.06j, 4), (3, 5, -0.05, 0.3 + 0.06j, 4),
          (3, 2, 0.95 / 6, 0.3 + 0.06j, 4), (4, 9, 0.7 / 18, 0.3 + 0.06j, 4)]


@pytest.mark.parametrize("p, q, x, t, cap", CAPPED)
def test_capped_speculative_part_changes_no_call(p, q, x, t, cap):
    """A theta pass runs 2N rows, N set by tau' alone, so that a term cap
    fails every part of a record or none.  Under a cap below 2N every call
    raises the cap's NonConvergenceError as it does alone, in every call
    order, and D^-(p, q; x)'s pass over every part, which raises, is rerun
    with its part alone, which raises the same; under a cap of 2N every
    call returns what it returns uncapped."""
    tau = TauPoint(t)
    runs, run = [], symbols._pass13
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore", SlowNomeWarning)
        at = qseries._checked(tau, DEFAULT_POLICY)
        red = qseries._reduction(at.tau)
        rows = 2 * qseries._theta_rows(red.checked(at) if red else at)[0]
        uncapped = _alone(_theorem13_calls(p, q, tau, x))
        assert _every_order_equals_alone(
            _theorem13_calls(p, q, tau, x, SeriesPolicy(max_terms=rows))) == uncapped
        calls = _theorem13_calls(p, q, tau, x, SeriesPolicy(max_terms=cap))
        alone = _every_order_equals_alone(calls)
        mp.setattr(symbols, "_pass13", lambda *args: runs.append(args[:2]) or run(*args))
        symbols._RECORDS.clear()
        assert _outcome(calls["D"]) == alone["D"]
    assert cap < rows and all(isinstance(v, str) for v in uncapped.values())
    assert {v[:2] for v in alone.values()} == {
        ("NonConvergenceError", f"theta series hit max_terms={cap}")}
    assert len(runs) == 2 and runs[0] != runs[1] == ([(p, q)], False)


#: (symbol, call at x) of the symbols that take a real x, s or t
REAL_ARG_CALLS = {
    "D": lambda x, tau: generating_D(CoprimePair(5, 3), tau, x),
    "R": lambda x, tau: generating_R(CoprimePair(5, 3), tau, x),
    "P": lambda x, tau: proposition31_residual(CoprimePair(5, 3), x, tau),
    "machide_s": lambda x, tau: machide_reciprocity_residuals(CoprimePair(5, 3), x, 0.007, tau),
    "machide_t": lambda x, tau: machide_reciprocity_residuals(CoprimePair(5, 3), 0.013, x, tau),
}


@pytest.mark.parametrize("t", [0.3 + 1.1j, 0.3 + 0.06j])
@pytest.mark.parametrize("x", [np.float32(0.05), np.float32(0.013), Fraction(1, 20),
                               Fraction(-7, 1000), 0, np.int64(0)])
@pytest.mark.parametrize("name", REAL_ARG_CALLS)
def test_real_argument_computes_as_its_float(name, x, t):
    """A real x, s or t of another type, a numpy float32, a Fraction or
    an int, returns or raises what the call at float(x) does, bit for bit,
    each on emptied records: a float32 x does not round p x in float32,
    and a Fraction reaches no ufunc."""
    call, tau = REAL_ARG_CALLS[name], TauPoint(t)
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowNomeWarning)
        for v in (x, float(x)):
            symbols._RECORDS.clear()
            outcomes.append(_outcome(lambda: call(v, tau)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("x", [0.01 + 0j, "0.01", None])
@pytest.mark.parametrize("name", REAL_ARG_CALLS)
def test_non_real_argument_rejected(name, x):
    """Any x, s or t that is not a real number raises TypeError before any
    pass runs."""
    with pytest.raises(TypeError, match="must be a real number"):
        REAL_ARG_CALLS[name](x, TAU_I)
