from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logdisc import oracle
from logdisc.inertia import SymMatrixQ, critical_count
from logdisc.oracle import (LINE_SEARCH_HALVINGS, NEWTON_TOL, _damping,
                            _exact_eval_grid, _LagrangeSystem, _newton,
                            _solve_steps, find_critical_points, grid_euler)
from logdisc.parse import parse_poly
from logdisc.poly import Polynomial, VarTable


def test_critical_points_one_variable_well(a1):
    # F = x^2 + u at u = -1: one critical point at the origin, value -1
    rep = find_critical_points(a1.f0 + a1.p("u"), {"u": Fraction(-1)}, 1)
    assert rep.complete
    assert len(rep.points) == 1
    coords, fval, morse, hsign = rep.points[0]
    assert abs(coords[0]) < 1e-8
    assert abs(fval + 1.0) < 1e-8
    assert morse == 0 and hsign == 1
    # the signed count tallies sgn(F) over real critical points
    assert rep.signed_count == -1
    assert rep.residual_bound < NEWTON_TOL


def test_critical_points_cusp_unfolding(a2):
    # F = x^3 + b*x + u: two Morse points when b < 0, none when b > 0
    F = a2.spec.F
    rep = find_critical_points(F, {"u": Fraction(0), "b": Fraction(-3)}, 2)
    assert rep.complete
    assert len(rep.points) == 2
    assert rep.signed_count == 0
    xs = sorted(c[0] for c, _, _, _ in rep.points)
    assert abs(xs[0] + 1.0) < 1e-7 and abs(xs[1] - 1.0) < 1e-7
    rep = find_critical_points(F, {"u": Fraction(0), "b": Fraction(3)}, 2)
    assert not rep.complete
    assert len(rep.points) == 0
    assert rep.signed_count == 0


def test_signed_count_matches_exact_signature(ex1):
    point = {"u": Fraction(1), "d": Fraction(1), "c": Fraction(-1),
             "b": Fraction(2)}
    rep = find_critical_points(ex1.spec.F, point, ex1.spec.mu, seed=3)
    sigma_t = ex1.logm.sigma * ex1.tf.T
    exact = critical_count(SymMatrixQ.from_poly_matrix(sigma_t, point))
    assert rep.signed_count == exact
    assert len(rep.points) <= ex1.spec.mu


def test_dedup_never_exceeds_mu(e6):
    point = {"u": Fraction(-10), "a": Fraction(-9, 10), "b": Fraction(-2, 5),
             "c": Fraction(1, 10), "d": Fraction(1, 10), "g": Fraction(-1, 10)}
    rep = find_critical_points(e6.spec.F, point, e6.spec.mu, seed=1)
    assert len(rep.points) <= e6.spec.mu
    assert rep.signed_count == -2


def test_constrained_critical_points():
    # u = x1^2 + x2^2 restricted to the unit circle x1^2 + x2^2 = 1 is
    # constant, so perturb: u = x1 on the circle has two critical points
    vt = VarTable(("x1", "x2"), ("u",))
    F = parse_poly("x1 + u", vt)
    g = parse_poly("x1^2 + x2^2 - 1", vt)
    rep = find_critical_points(F, {"u": Fraction(0)}, 2, constraints=(g,))
    assert len(rep.points) == 2
    xs = sorted(c[0] for c, _, _, _ in rep.points)
    assert abs(xs[0] + 1.0) < 1e-7 and abs(xs[1] - 1.0) < 1e-7
    assert rep.residual_bound < NEWTON_TOL


def _per_start_reference(F, assignment, mu, constraints=(), seed=0,
                         ball_radius=10.0):
    """The finder one start at a time, in plain Python floats."""
    def compile_(p):
        terms = [(m[:nx], float(c))
                 for m, c in p.evaluate(assignment).terms.items()]

        def f(x):
            acc = 0.0
            for m, c in terms:
                for xi, e in zip(x, m):
                    c = c * xi ** e
                acc += c
            return acc
        return f

    xs, nx, k = F.vt.x_vars, F.vt.nx, len(constraints)
    fF = compile_(F)
    grad = [compile_(F.diff(a)) for a in xs]
    hess = [[compile_(F.diff(a).diff(b)) for b in xs] for a in xs]
    g = [compile_(c) for c in constraints]
    gj = [[compile_(c.diff(a)) for a in xs] for c in constraints]
    gh = [[[compile_(c.diff(a).diff(b)) for b in xs] for a in xs]
          for c in constraints]

    def system(z):
        x, lam = z[:nx], z[nx:]
        return np.array([grad[i](x) + sum(lam[q] * gj[q][i](x)
                                          for q in range(k))
                         for i in range(nx)] + [g[q](x) for q in range(k)])

    def lagrange_hessian(z):
        x, lam = z[:nx], z[nx:]
        return np.array([[hess[i][j](x) + sum(lam[q] * gh[q][i][j](x)
                                              for q in range(k))
                          for j in range(nx)] for i in range(nx)])

    def jacobian(z):
        jc = np.array([[gj[q][i](z[:nx]) for i in range(nx)]
                       for q in range(k)]).reshape(k, nx)
        return np.block([[lagrange_hessian(z), jc.T],
                         [jc, np.zeros((k, k))]])

    rng = np.random.default_rng(seed)
    found = []
    for _ in range(200 * max(mu, 1)):
        z = np.concatenate([rng.uniform(-ball_radius, ball_radius, nx),
                            rng.uniform(-1.0, 1.0, k)])
        ok = False
        for _ in range(80):
            r = system(z)
            if np.linalg.norm(r) < 1e-10:
                ok = True
                break
            try:
                step = np.linalg.solve(jacobian(z), r)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            for _ in range(30):
                if np.linalg.norm(system(z - t * step)) <= np.linalg.norm(r):
                    break
                t /= 2
            else:
                break   # every step length rejected: the start is stuck
            z = z - t * step
            if np.linalg.norm(z[:nx]) > 50 * ball_radius:
                break
        x = z[:nx]
        if not ok or np.linalg.norm(x) > ball_radius or any(
                np.linalg.norm(x - p[0]) < 1e-6 * ball_radius
                for p in found):
            continue
        h = lagrange_hessian(z)
        if k:
            tangent = np.linalg.svd(jacobian(z)[nx:, :nx])[2][k:].T
            h = tangent.T @ h @ tangent
        eig = np.linalg.eigvalsh(h)
        found.append((x, fF(x), int((eig < 0).sum()),
                      1 if np.prod(np.sign(eig)) > 0 else -1))
        if len(found) == mu:
            break
    return found


def test_batched_finder_matches_per_start_reference(a2, e6):
    vt = VarTable(("x1", "x2"), ("u",))
    circle = parse_poly("x1^2 + x2^2 - 1", vt)
    e6_point = {"u": Fraction(-10), "a": Fraction(-9, 10),
                "b": Fraction(-2, 5), "c": Fraction(1, 10),
                "d": Fraction(1, 10), "g": Fraction(-1, 10)}
    cases = [
        (a2.spec.F, {"u": Fraction(0), "b": Fraction(-3)}, 2, (), 0),
        (e6.spec.F, e6_point, e6.spec.mu, (), 1),
        (parse_poly("x1 + u", vt), {"u": Fraction(0)}, 2, (circle,), 0),
        # asking for more points than exist spends the whole budget
        (parse_poly("x1 + x2 + u", vt), {"u": Fraction(1, 3)}, 3,
         (circle,), 2),
        # the first mu starts give all mu points, so the search stops there
        (parse_poly("x1^3 - 3*x1 + x2^2 + u", vt), {"u": Fraction(0)}, 2,
         (), 1),
    ]
    for F, point, mu, cons, seed in cases:
        want = _per_start_reference(F, point, mu, cons, seed)
        rep = find_critical_points(F, point, mu, constraints=cons, seed=seed)
        assert len(rep.points) == len(want) > 0
        for (coords, fval, morse, hsign), (x, f, m, h) in zip(rep.points,
                                                               want):
            assert np.allclose(coords, x, rtol=0, atol=1e-9)
            assert abs(fval - f) < 1e-9
            assert (morse, hsign) == (m, h)


def test_one_newton_batch_per_query(monkeypatch, a2):
    # every start of the budget runs in one _newton call, also where the
    # first mu starts give all mu points (x1 = 1, then x1 = -1, on seed 1)
    vt = VarTable(("x1", "x2"), ("u",))
    circle = parse_poly("x1^2 + x2^2 - 1", vt)
    calls = []

    def spy(system, Z, ball_radius):
        calls.append(len(Z))
        return _newton(system, Z, ball_radius)

    monkeypatch.setattr(oracle, "_newton", spy)
    cases = [
        # no real critical point: the whole budget is spent
        (a2.spec.F, {"u": Fraction(0), "b": Fraction(3)}, 2, (), 0),
        (parse_poly("x1 + u", vt), {"u": Fraction(0)}, 2, (circle,), 0),
        (parse_poly("x1^3 - 3*x1 + x2^2 + u", vt), {"u": Fraction(0)}, 2,
         (), 1),
    ]
    for F, point, mu, cons, seed in cases:
        calls.clear()
        find_critical_points(F, point, mu, constraints=cons, seed=seed)
        assert calls == [200 * max(mu, 1)]


def test_damping_halves_until_the_residual_does_not_grow():
    # r(x) = x: from x = 1 the step 10 is first accepted at t = 1/8, and
    # a bound of 0 is never met, which leaves the step at t = 2^-30
    vt = VarTable(("x",), ("u",))
    system = _LagrangeSystem(parse_poly("1/2*x^2 + u", vt),
                             {"u": Fraction(0)}, ())
    Z = np.ones((3, 1))
    step = np.array([[1.0], [10.0], [10.0]])
    base = np.array([1.0, 1.0, 0.0])
    assert _damping(system, Z, step, base).tolist() == [1.0, 0.125,
                                                         2.0 ** -30]


def _one_batch_damping(system, Z, step, base):
    """Every trial length of every row in one batch; the first accepted."""
    ts = np.ldexp(1.0, -np.arange(LINE_SEARCH_HALVINGS))
    trial = Z[:, None] - ts[None, :, None] * step[:, None]
    accept = (np.linalg.norm(system.residual(
        trial.reshape(-1, Z.shape[1])), axis=1).reshape(len(Z), -1)
        <= base[:, None])
    return np.where(accept.any(axis=1), ts[accept.argmax(axis=1)],
                    np.ldexp(1.0, -LINE_SEARCH_HALVINGS))


def test_blocked_damping_matches_one_batch():
    # r(x) = x from x = 1 with bound 1 accepts the step 2^k first at
    # t = 2^-(k-1), so these rows accept at every halving count, and the
    # last row rejects them all
    vt = VarTable(("x",), ("u",))
    system = _LagrangeSystem(parse_poly("1/2*x^2 + u", vt),
                             {"u": Fraction(0)}, ())
    step = np.ldexp(1.0, np.arange(LINE_SEARCH_HALVINGS + 2))[:, None]
    Z = np.ones_like(step)
    base = np.ones(len(Z))
    t = _damping(system, Z, step, base)
    assert t.tolist() == _one_batch_damping(system, Z, step, base).tolist()
    assert t[-1] == np.ldexp(1.0, -LINE_SEARCH_HALVINGS)
    assert t[-2] == np.ldexp(1.0, -(LINE_SEARCH_HALVINGS - 1))
    assert len(set(t.tolist())) == LINE_SEARCH_HALVINGS + 1
    # a two-variable system with random rows and steps
    vt = VarTable(("x1", "x2"), ("u",))
    system = _LagrangeSystem(parse_poly("x1^4 - 3*x1^2*x2 + x2^3 + u", vt),
                             {"u": Fraction(1, 3)}, ())
    rng = np.random.default_rng(5)
    Z = rng.uniform(-3, 3, (200, 2))
    step = rng.uniform(-1, 1, (200, 2)) * np.ldexp(1.0, rng.integers(
        0, 40, (200, 1)))
    base = np.linalg.norm(system.residual(Z), axis=1)
    t = _damping(system, Z, step, base)
    assert t.tolist() == _one_batch_damping(system, Z, step, base).tolist()
    assert len(set(t.tolist())) > 10


def _trial_sizes(system):
    """Record the number of rows of every residual evaluation."""
    sizes, residual = [], system.residual

    def spy(Z):
        sizes.append(len(Z))
        return residual(Z)

    system.residual = spy
    return sizes


def test_damping_trial_batches_are_capped_by_points():
    # r(x) = x from x = 1 with bound 1, as above: the step 2^(h+1) is
    # first accepted after h halvings
    vt = VarTable(("x",), ("u",))
    system = _LagrangeSystem(parse_poly("1/2*x^2 + u", vt),
                             {"u": Fraction(0)}, ())
    sizes = _trial_sizes(system)
    # four rows reject t = 1: one trial batch holds all their halvings
    step = np.ldexp(1.0, [[0], [5], [20], [29], [40]])
    Z, base = np.ones_like(step), np.ones(len(step))
    t = _damping(system, Z, step, base)
    assert sizes == [5, 4 * (LINE_SEARCH_HALVINGS - 1)]
    assert t.tolist() == _one_batch_damping(system, Z, step, base).tolist()
    # more than _TRIAL_POINTS // 10 rows reject t = 1: each tries 10
    # halvings per batch until few enough are left for the rest at once
    rows = oracle._TRIAL_POINTS // 10 + 100
    h = np.arange(rows) % (LINE_SEARCH_HALVINGS + 2) + 1
    step = np.ldexp(1.0, h + 1)[:, None]
    Z, base = np.ones_like(step), np.ones(rows)
    sizes.clear()
    t = _damping(system, Z, step, base)
    assert sizes == [rows, 10 * rows, 10 * (h > 10).sum(), 9 * (h > 20).sum()]
    assert t.tolist() == _one_batch_damping(system, Z, step, base).tolist()


def test_stuck_start_fails_without_stepping(monkeypatch):
    # r(x) = x^2 + 1 from x = 1e-5: the Newton step is about 5e4, and
    # only t < 2^-31 would keep |r| from growing, so the start fails at its
    # first step and is left where it was (stepping it by 2^-30 would put
    # it where t = 2^-28 is accepted, and it would crawl on)
    vt = VarTable(("x",), ("u",))
    system = _LagrangeSystem(parse_poly("1/3*x^3 + x + u", vt),
                             {"u": Fraction(0)}, ())
    calls = []

    def spy(*args):
        calls.append(1)
        return _damping(*args)

    monkeypatch.setattr(oracle, "_damping", spy)
    Z, ok, _ = _newton(system, np.array([[1e-5]]), 10.0)
    assert len(calls) == 1
    assert not ok[0]
    assert Z[0, 0] == 1e-5


def test_singular_jacobian_drops_only_its_start():
    J = np.array([[[2.0, 0.0], [0.0, 4.0]],
                  [[1.0, 2.0], [2.0, 4.0]],
                  [[0.0, 1.0], [1.0, 0.0]]])
    r = np.array([[2.0, 4.0], [1.0, 1.0], [3.0, 5.0]])
    steps, solved = _solve_steps(J, r)
    assert solved.tolist() == [True, False, True]
    assert np.allclose(steps[0], [1.0, 1.0])
    assert np.allclose(steps[2], [5.0, 3.0])


def test_grid_positive_constant():
    vt = VarTable(("x1", "x2"), ("u",))
    F = parse_poly("x1^2 + x2^2 + u", vt)
    res = grid_euler(F, {"u": Fraction(1)})
    assert res.stable
    assert (res.chi_ge, res.chi_le, res.chi_eq) == (1, 0, 0)


def test_grid_circle():
    vt = VarTable(("x1", "x2"), ("u",))
    F = parse_poly("u - x1^2 - x2^2", vt)
    res = grid_euler(F, {"u": Fraction(1)})
    assert res.stable
    # disk (chi 1), complement annulus (chi 0), circle (chi 0)
    assert (res.chi_ge, res.chi_le, res.chi_eq) == (1, 0, 0)


def test_grid_one_variable(a1):
    res = grid_euler(a1.f0 + a1.p("u"), {"u": Fraction(-1)})
    assert res.stable
    assert (res.chi_ge, res.chi_le, res.chi_eq) == (2, 1, 2)


def test_grid_additivity():
    vt = VarTable(("x1", "x2"), ("u",))
    F = parse_poly("x1*x2 + u", vt)
    for u in (Fraction(1), Fraction(-1), Fraction(1, 7)):
        res = grid_euler(F, {"u": u})
        assert res.stable
        assert res.chi_ge + res.chi_le - res.chi_eq == 1


def test_grid_rejects_three_variables():
    vt = VarTable(("x1", "x2", "x3"), ("u",))
    F = parse_poly("x1^2 + x2^2 + x3^2 + u", vt)
    with pytest.raises(ValueError):
        grid_euler(F, {"u": Fraction(1)})


def _fraction_signs(F, assignment, radius, n):
    """Signs of F on the grid of ``_exact_eval_grid``, point by point in
    Fractions."""
    q = F.evaluate(assignment)
    nx = F.vt.nx
    r = Fraction(radius)
    xs = [r * (2 * i - n) / n for i in range(n + 1)]
    out = np.zeros((n + 1, n + 1 if nx == 2 else 1), dtype=np.int8)
    for i in range(n + 1):
        for j in range(out.shape[1]):
            point = (xs[i], xs[j])[:nx]
            v = Fraction(0)
            for m, c in q.terms.items():
                for x, e in zip(point, m):
                    c *= x ** e
                v += c
            out[i, j] = (v > 0) - (v < 0)
    return out


GRID_VT = {1: VarTable(("x1",), ("u",)), 2: VarTable(("x1", "x2"), ("u",))}


@st.composite
def grid_polys(draw, nxs=(1, 2)):
    nx = draw(st.sampled_from(nxs))
    # integers up to 10^400 overflow float64; small ones make exact zeros
    coeff = st.one_of(st.integers(-4, 4),
                      st.integers(-10 ** 400, 10 ** 400),
                      st.fractions(max_denominator=50))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * nx, st.integers(0, 1)), coeff,
        max_size=6))
    u = draw(st.sampled_from((Fraction(0), Fraction(-1), Fraction(2, 7))))
    radius = draw(st.sampled_from((Fraction(10), Fraction(3, 2),
                                   Fraction(7, 3))))
    n = draw(st.integers(1, 12))
    return Polynomial(GRID_VT[nx], terms), {"u": u}, radius, n


@settings(max_examples=60, deadline=None)
@given(grid_polys())
@example((parse_poly("x1*x2 + u", GRID_VT[2]), {"u": Fraction(0)},
          Fraction(10), 8))
@example((parse_poly("x1^2 - 2*x2^2 + u", GRID_VT[2]), {"u": Fraction(0)},
          Fraction(10), 12))
@example((Polynomial(GRID_VT[2], {(4, 0, 0): 10 ** 400, (0, 1, 0): -1}),
          {"u": Fraction(0)}, Fraction(10), 6))
@example((parse_poly("(x1 - 1/3)^3*u", GRID_VT[1]), {"u": Fraction(1)},
          Fraction(3, 2), 9))
# at x1 = x2 = 1 the float sum of the scaled terms 2^62, 616, -460, -408
# and -2^62 rounds up at every step and ends at +1024, while F = -63
@example((Polynomial(GRID_VT[2], {(1, 0, 0): 2 ** 60, (0, 0, 0): 154,
                                  (2, 0, 0): -115, (0, 2, 0): -102,
                                  (0, 1, 0): -2 ** 60}),
          {"u": Fraction(0)}, Fraction(1), 2))
def test_filtered_grid_signs_equal_exact_signs(case):
    F, point, radius, n = case
    assert (_exact_eval_grid(F, point, radius, n).tolist()
            == _fraction_signs(F, point, radius, n).tolist())


def _segment_chi(sign):
    """chi of F >= 0, F <= 0 and F = 0 for one variable, from the closed
    1-complex of the grid edges with a marked end."""
    def seg(marked):
        e = marked[:-1] | marked[1:]
        v = np.zeros(len(marked), dtype=bool)
        v[:-1] |= e
        v[1:] |= e
        return e, v

    (e_ge, v_ge), (e_le, v_le) = seg(sign >= 0), seg(sign <= 0)
    return tuple(int(v.sum()) - int(e.sum()) for e, v in
                 ((e_ge, v_ge), (e_le, v_le), (e_ge & e_le, v_ge & v_le)))


@settings(max_examples=60, deadline=None)
@given(grid_polys(nxs=(1,)))
@example((parse_poly("x1^2 + u", GRID_VT[1]), {"u": Fraction(-1)},
          Fraction(10), 8))
def test_one_variable_grid_is_the_segment_complex(case):
    """One variable runs through the two-variable complex on the strip
    K x [0, 1], whose chi is that of the segment complex K."""
    F, point, radius, n = case
    sign = _exact_eval_grid(F, point, radius, n)[:, 0]
    assert oracle._chi_at(F, point, radius, n) == _segment_chi(sign)
