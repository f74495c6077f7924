"""Independent numeric verifiers for the exact pipeline: a multistart
Newton critical-point finder with Morse classification and a cubical-grid
Euler-characteristic estimator for one or two space variables.

The Newton finder runs its starts as numpy batches. Every polynomial of the
gradient (or Lagrange) system is a coefficient vector over one shared
monomial set, so a batch of points is evaluated with one matrix product, and
each Newton step makes one stacked call to ``np.linalg.solve``. The batches
are run in chunks of growing size (mu, 2 mu, 4 mu, ...), so that points
whose critical points are found by the first starts stay cheap.

Floating point lives only here; the exact modules never consume these
results as truth. numpy is imported inside the functions that use it, so
importing logdisc (and running any exact command) does not load it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

NEWTON_TOL = 1e-10
DEDUP_FACTOR = 1e-6
START_BUDGET_PER_MU = 200
DEFAULT_BALL = 10.0
NEWTON_STEPS = 80
LINE_SEARCH_HALVINGS = 30
DIVERGENCE_FACTOR = 50


@dataclass
class CriticalPointReport:
    """Numerically found critical points with Morse data and the signed
    count sum(sgn F) for comparison with the exact signature.

    ``residual_bound`` is the largest Euclidean norm of the full (x, lambda)
    system, evaluated at each reported point with its own multipliers; it is
    below ``NEWTON_TOL`` whenever points were found and 0.0 when none
    were."""

    points: list   # (coords tuple, F value, morse index, hessian sign)
    residual_bound: float
    signed_count: int
    complete: bool  # found the expected mu points

    @property
    def count(self):
        return len(self.points)


class _PolyBatch:
    """Float evaluation of several polynomials in the x-variables (fixed
    parameter values already substituted) at many points at once: the
    values are monomials(X) @ coeffs over their shared monomial set."""

    def __init__(self, polys, nx):
        import numpy as np
        mons = sorted({m[:nx] for p in polys for m in p.terms})
        index = {m: i for i, m in enumerate(mons)}
        self.expts = np.array(mons, dtype=np.int64).reshape(len(mons), nx)
        self.coeffs = np.zeros((len(mons), len(polys)))
        for j, p in enumerate(polys):
            for m, c in p.terms.items():
                self.coeffs[index[m[:nx]], j] = float(c)
        self.degree = int(self.expts.max(initial=0))

    def __call__(self, X):
        """Values of the polynomials at the rows of X, shape (n, count)."""
        import numpy as np
        xt = X.T
        powers = np.empty((self.degree + 1,) + xt.shape)
        powers[0] = 1.0
        for e in range(1, self.degree + 1):
            powers[e] = powers[e - 1] * xt
        mon = powers[self.expts, np.arange(len(xt))].prod(axis=1)
        return mon.T @ self.coeffs


class _LagrangeSystem:
    """The gradient system of F (k = 0) or the Lagrange system of F on
    g_1 = ... = g_k = 0, in the unknowns z = (x, lambda), batched over the
    rows of Z."""

    def __init__(self, F, assignment, constraints):
        self.nx = nx = F.vt.nx
        self.k = len(constraints)
        f = F.evaluate(assignment)
        gs = [g.evaluate(assignment) for g in constraints]
        xs = F.vt.x_vars
        # first order: grad F, g_q, then dg_q/dx_i row by row
        first = ([f.diff(x) for x in xs] + gs
                 + [g.diff(x) for g in gs for x in xs])
        # second order: Hess F, then Hess g_q, each row-major
        second = [h.diff(a).diff(b) for h in [f] + gs for a in xs for b in xs]
        self.n_first = len(first)
        self.value = _PolyBatch([f], nx)
        self.first = _PolyBatch(first, nx)
        self.both = _PolyBatch(first + second, nx)

    def _residual(self, Z, v):
        import numpy as np
        nx, k = self.nx, self.k
        jg = v[:, nx + k:self.n_first].reshape(len(Z), k, nx)
        lam = Z[:, nx:]
        r_x = v[:, :nx] + sum(lam[:, q, None] * jg[:, q] for q in range(k))
        return np.concatenate([r_x, v[:, nx:nx + k]], axis=1), jg

    def residual(self, Z):
        return self._residual(Z, self.first(Z[:, :self.nx]))[0]

    def linearize(self, Z):
        """Residuals r, Jacobians J, Hessians of the Lagrangian
        F + sum lambda_q g_q in x, and constraint Jacobians at the rows
        of Z."""
        import numpy as np
        n, nx, k = len(Z), self.nx, self.k
        v = self.both(Z[:, :nx])
        r, jg = self._residual(Z, v)
        h = v[:, self.n_first:].reshape(n, k + 1, nx, nx)
        lam = Z[:, nx:]
        hess = h[:, 0] + sum(lam[:, q, None, None] * h[:, q + 1]
                             for q in range(k))
        J = np.zeros((n, nx + k, nx + k))
        J[:, :nx, :nx] = hess
        J[:, :nx, nx:] = jg.transpose(0, 2, 1)
        J[:, nx:, :nx] = jg
        return r, J, hess, jg

    def classify(self, z):
        """Morse index and Hessian sign at one converged z; with
        constraints, of the second fundamental form on their tangent
        space."""
        import numpy as np
        _, _, hess, jg = self.linearize(z[None, :])
        if self.k == 0:
            eig = np.linalg.eigvalsh(hess[0])
        else:
            _, _, vh = np.linalg.svd(jg[0])
            tangent = vh[self.k:].T
            eig = np.linalg.eigvalsh(tangent.T @ hess[0] @ tangent)
        morse = int((eig < 0).sum())
        hsign = 1 if np.prod(np.sign(eig)) > 0 else -1
        return morse, hsign


def _solve_steps(J, r):
    """Newton steps J^-1 r for a stack of systems, and a mask of the
    systems that were solvable. A singular Jacobian drops only its own
    start: when the stacked solve fails, each system is solved alone."""
    import numpy as np
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0], \
            np.ones(len(r), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(r)
    solved = np.ones(len(r), dtype=bool)
    for i in range(len(r)):
        try:
            steps[i] = np.linalg.solve(J[i], r[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return steps, solved


def _damping(system, Z, step, base):
    """Step lengths against overshoot: per row the first t in 1, 1/2, ...,
    2^-(LINE_SEARCH_HALVINGS - 1) with ||r(z - t step)|| <= base, else
    2^-LINE_SEARCH_HALVINGS. Rows that reject t = 1 have all their shorter
    steps tried in one batch."""
    import numpy as np
    t = np.ones(len(Z))
    accept = np.linalg.norm(system.residual(Z - step), axis=1) <= base
    rest = np.flatnonzero(~accept)
    if len(rest):
        ts = np.ldexp(1.0, -np.arange(1, LINE_SEARCH_HALVINGS))
        trial = Z[rest, None] - ts[None, :, None] * step[rest, None]
        accept = (np.linalg.norm(system.residual(
            trial.reshape(-1, Z.shape[1])), axis=1).reshape(len(rest), -1)
            <= base[rest, None])
        first = np.where(accept.any(axis=1), accept.argmax(axis=1) + 1,
                         LINE_SEARCH_HALVINGS)
        t[rest] = np.ldexp(1.0, -first)
    return t


def _newton(system, Z, ball_radius):
    """Damped Newton from every row of Z at once. Returns the final Z, a
    mask of the rows that converged and their residual norms there.

    Per start this is: at most NEWTON_STEPS steps; stop with success when
    ||r(z)|| < NEWTON_TOL; stop with failure on a singular Jacobian or when
    |x| exceeds DIVERGENCE_FACTOR * ball_radius; step length t = 1, halved
    up to LINE_SEARCH_HALVINGS times until ||r(z - t step)|| <= ||r(z)||."""
    import numpy as np
    n = len(Z)
    Z = Z.copy()
    ok = np.zeros(n, dtype=bool)
    res = np.zeros(n)
    active = np.arange(n)
    for _ in range(NEWTON_STEPS):
        za = Z[active]
        r, J, _, _ = system.linearize(za)
        base = np.linalg.norm(r, axis=1)
        done = base < NEWTON_TOL
        ok[active[done]] = True
        res[active[done]] = base[done]
        active, za, r, J, base = (active[~done], za[~done], r[~done],
                                  J[~done], base[~done])
        if not len(active):
            break
        step, solved = _solve_steps(J, r)
        active, za, step, base = (active[solved], za[solved], step[solved],
                                  base[solved])
        za = za - _damping(system, za, step, base)[:, None] * step
        Z[active] = za
        active = active[~(np.linalg.norm(za[:, :system.nx], axis=1)
                          > DIVERGENCE_FACTOR * ball_radius)]
    return Z, ok, res


def find_critical_points(F, assignment, mu, ball_radius=DEFAULT_BALL,
                         constraints=(), seed=0):
    """Multistart damped Newton on the gradient (or Lagrange) system inside
    a ball, with deduplication and Morse classification.

    The starts run as numpy batches in chunks of mu, 2 mu, 4 mu, ... starts,
    capped by what is left of the budget, and the search stops after the
    chunk in which the mu-th point was found. Every start runs on its own
    row, so the chunking changes the cost, not the points. Fixed are:

    - the budget of START_BUDGET_PER_MU * max(mu, 1) starts;
    - the Newton and line-search limits and tolerances of ``_newton``;
    - the draws, start by start, of x uniform in [-R, R]^nx and then lambda
      uniform in [-1, 1]^k from ``np.random.default_rng(seed)``;
    - deduplication of the converged points inside the ball in start
      order, at distance DEDUP_FACTOR * R;
    - the stop at the mu-th distinct point."""
    import numpy as np
    system = _LagrangeSystem(F, assignment, constraints)
    nx, k = system.nx, system.k
    R = float(ball_radius)
    low = np.array([-R] * nx + [-1.0] * k)
    high = np.array([R] * nx + [1.0] * k)
    rng = np.random.default_rng(seed)
    budget = START_BUDGET_PER_MU * max(mu, 1)
    dedup = DEDUP_FACTOR * R
    found = []
    residual = 0.0
    chunk = max(mu, 1)
    spent = 0
    stop = False
    with np.errstate(all="ignore"):
        while spent < budget and not stop:
            n = min(chunk, budget - spent)
            spent += n
            chunk *= 2
            # row by row the same draws as uniform(-R, R, nx) followed by
            # uniform(-1, 1, k) for each start in turn
            Z0 = low + (high - low) * rng.random((n, nx + k))
            Z, ok, res = _newton(system, Z0, R)
            inside = ok & ~(np.linalg.norm(Z[:, :nx], axis=1) > R)
            for i in np.flatnonzero(inside):
                x = Z[i, :nx]
                if any(np.linalg.norm(x - np.asarray(p[0])) < dedup
                       for p in found):
                    continue
                morse, hsign = system.classify(Z[i])
                fval = float(system.value(x[None, :])[0, 0])
                found.append((tuple(x), fval, morse, hsign))
                residual = max(residual, float(res[i]))
                if len(found) == mu:
                    stop = True
                    break
    signed = sum(1 if p[1] > 0 else -1 for p in found)
    return CriticalPointReport(found, residual, signed, len(found) == mu)


@dataclass
class GridChi:
    resolution: int
    chi_ge: int
    chi_le: int
    chi_eq: int
    stable: bool


def _exact_eval_grid(F, assignment, radius, n):
    """Signs of F on an (n+1)^2 rational grid over [-radius, radius]^2,
    computed in exact integer arithmetic after clearing denominators."""
    from math import gcd

    import numpy as np

    vt = F.vt
    q = F.evaluate(assignment)
    nx = vt.nx
    r = Fraction(radius)
    den = 1
    for c in q.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    # grid point i is A_i / D with D = r.denominator * n
    D = r.denominator * n
    A = [r.numerator * (2 * i - n) for i in range(n + 1)]
    deg = max((sum(m[:nx]) for m in q.terms), default=0)
    # scale by den * D^deg so every term is an integer
    terms = [(m[:nx], c.numerator * (den // c.denominator)
              * D ** (deg - sum(m[:nx]))) for m, c in q.terms.items()]
    pows = [[a ** e for e in range(deg + 1)] for a in A]
    sign = np.zeros((n + 1, n + 1), dtype=np.int8)
    if nx == 1:
        for i in range(n + 1):
            v = sum(c * pows[i][m[0]] for m, c in terms)
            sign[i, 0] = (v > 0) - (v < 0)
        return sign[:, :1]
    for i in range(n + 1):
        pi = pows[i]
        for j in range(n + 1):
            pj = pows[j]
            v = 0
            for m, c in terms:
                v += c * pi[m[0]] * pj[m[1]]
            sign[i, j] = (v > 0) - (v < 0)
    return sign


def _complex_2d(marked):
    """Closed cubical complex spanned by grid squares having at least one
    marked vertex: (squares, x-edges, y-edges, vertices) membership masks."""
    import numpy as np
    sq = marked[:-1, :-1] | marked[1:, :-1] | marked[:-1, 1:] | marked[1:, 1:]
    pad = np.zeros((sq.shape[0] + 2, sq.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = sq
    ex = pad[1:-1, :-1] | pad[1:-1, 1:]   # x-edge (i, j) borders squares (i, j-1), (i, j)
    ey = pad[:-1, 1:-1] | pad[1:, 1:-1]
    v = pad[:-1, :-1] | pad[:-1, 1:] | pad[1:, :-1] | pad[1:, 1:]
    return sq, ex, ey, v


def _chi_of(parts):
    sq, ex, ey, v = parts
    return int(v.sum()) - int(ex.sum()) - int(ey.sum()) + int(sq.sum())


def _chi_at(F, assignment, radius, n):
    import numpy as np
    sign = _exact_eval_grid(F, assignment, radius, n)
    if sign.shape[1] == 1:
        s = sign[:, 0]

        def seg(marked):
            e = marked[:-1] | marked[1:]
            pad = np.zeros(len(e) + 2, dtype=bool)
            pad[1:-1] = e
            v = pad[:-1] | pad[1:]
            return e, v

        e_ge, v_ge = seg(s >= 0)
        e_le, v_le = seg(s <= 0)
        chi_ge = int(v_ge.sum()) - int(e_ge.sum())
        chi_le = int(v_le.sum()) - int(e_le.sum())
        chi_eq = int((v_ge & v_le).sum()) - int((e_ge & e_le).sum())
        return chi_ge, chi_le, chi_eq
    pge = _complex_2d(sign >= 0)
    ple = _complex_2d(sign <= 0)
    peq = tuple(a & b for a, b in zip(pge, ple))
    return _chi_of(pge), _chi_of(ple), _chi_of(peq)


def grid_euler(F, assignment, ball_radius=DEFAULT_BALL, resolution=64,
               max_doublings=6):
    """Grid-based Euler characteristics of the regions F >= 0, F <= 0 and
    F = 0 on a square around the origin, doubled until two consecutive
    resolutions agree."""
    if F.vt.nx > 2:
        raise ValueError("grid oracle supports at most two space variables")
    n = resolution
    prev = None
    for _ in range(max_doublings + 1):
        cur = _chi_at(F, assignment, ball_radius, n)
        if prev is not None and cur == prev:
            return GridChi(n, cur[0], cur[1], cur[2], True)
        prev = cur
        n *= 2
    return GridChi(n // 2, prev[0], prev[1], prev[2], False)
