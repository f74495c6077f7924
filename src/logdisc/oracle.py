"""Independent numeric verifiers for the exact pipeline: a multistart
Newton critical-point finder with Morse classification and a cubical-grid
Euler-characteristic estimator for one or two space variables.

The Newton finder runs its starts as numpy batches. Every polynomial of the
gradient (or Lagrange) system is a coefficient vector over one shared
monomial set, so a batch of points is evaluated with one matrix product, and
each Newton step makes one stacked call to ``np.linalg.solve``. The whole
start budget runs as one batch, every start on its own row; the points are
taken in start order, so the batch changes the cost, not the points. A
start whose line search rejects every step length is stuck and stops with
failure, like one with a singular Jacobian.

The grid oracle's signs are exact: a float64 evaluation with a rigorous
error bound settles almost every grid point, and the others are evaluated
in Python integers.

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
GRID_DOUBLINGS = 6
_TRIAL_POINTS = 2048   # line-search trial points per residual evaluation


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
        mon = powers[self.expts[:, 0], 0]
        for i in range(1, len(xt)):
            mon *= powers[self.expts[:, i], i]
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
        if not k:
            return v[:, :nx], jg
        lam = Z[:, nx:]
        r_x = v[:, :nx] + sum(lam[:, q, None] * jg[:, q] for q in range(k))
        return np.concatenate([r_x, v[:, nx:nx + k]], axis=1), jg

    def residual(self, Z):
        return self._residual(Z, self.first(Z[:, :self.nx]))[0]

    def linearize(self, Z):
        """Residuals r, Jacobians J, Hessians of the Lagrangian
        F + sum lambda_q g_q in x, and constraint Jacobians at the rows
        of Z. With k = 0, r and J are the gradient and the Hessian of F,
        read off one evaluation."""
        import numpy as np
        n, nx, k = len(Z), self.nx, self.k
        v = self.both(Z[:, :nx])
        r, jg = self._residual(Z, v)
        h = v[:, self.n_first:].reshape(n, k + 1, nx, nx)
        if not k:
            return r, h[:, 0], h[:, 0], jg
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
    solved = np.ones(len(r), dtype=bool)
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(r)
    for i in range(len(r)):
        try:
            steps[i] = np.linalg.solve(J[i], r[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return steps, solved


def _norms(a):
    """Row norms of a real array, as ``np.linalg.norm(a, axis=1)``."""
    import numpy as np
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _damping(system, Z, step, base):
    """Step lengths against overshoot: per row the first t in 1, 1/2, ...,
    2^-(LINE_SEARCH_HALVINGS - 1) with ||r(z - t step)|| <= base, else
    2^-LINE_SEARCH_HALVINGS. Rows that reject t = 1 try the next
    max(10, _TRIAL_POINTS // rows) halvings per trial batch, where rows
    counts the rows that rejected every length so far: a few rows try all
    the halvings in one batch, and many try 10 each."""
    import numpy as np
    t = np.ones(len(Z))
    rest = np.flatnonzero(~(_norms(system.residual(Z - step)) <= base))
    lo = 1
    while len(rest) and lo < LINE_SEARCH_HALVINGS:
        hi = min(lo + max(10, _TRIAL_POINTS // len(rest)),
                 LINE_SEARCH_HALVINGS)
        ts = np.ldexp(1.0, -np.arange(lo, hi))
        trial = Z[rest, None] - ts[None, :, None] * step[rest, None]
        accept = (_norms(system.residual(trial.reshape(-1, Z.shape[1])))
                  .reshape(len(rest), -1) <= base[rest, None])
        hit = accept.any(axis=1)
        t[rest[hit]] = ts[accept[hit].argmax(axis=1)]
        rest = rest[~hit]
        lo = hi
    t[rest] = np.ldexp(1.0, -LINE_SEARCH_HALVINGS)
    return t


def _newton(system, Z, ball_radius):
    """Damped Newton from every row of Z at once. Returns the final Z, a
    mask of the rows that converged and their residual norms there.

    Per start this is: at most NEWTON_STEPS steps; stop with success when
    ||r(z)|| < NEWTON_TOL; step length t = 1, halved up to
    LINE_SEARCH_HALVINGS - 1 times until ||r(z - t step)|| <= ||r(z)||;
    stop with failure on a singular Jacobian, when every step length is
    rejected (the start is stuck; it is not stepped), or when |x| exceeds
    DIVERGENCE_FACTOR * ball_radius."""
    import numpy as np
    Z = za = Z.copy()
    ok = np.zeros(len(Z), dtype=bool)
    res = np.zeros(len(Z))
    active = np.arange(len(Z))
    stuck = np.ldexp(1.0, -LINE_SEARCH_HALVINGS)
    for _ in range(NEWTON_STEPS):
        r, J, _, _ = system.linearize(za)
        base = _norms(r)
        done = base < NEWTON_TOL
        if done.any():
            ok[active[done]] = True
            res[active[done]] = base[done]
            keep = ~done
            active, za, r, J, base = (active[keep], za[keep], r[keep],
                                      J[keep], base[keep])
        if not len(active):
            break
        step, solved = _solve_steps(J, r)
        if not solved.all():
            active, za, step, base = (active[solved], za[solved],
                                      step[solved], base[solved])
        t = _damping(system, za, step, base)
        moved = t != stuck
        if not moved.all():
            active, za, step, t = (active[moved], za[moved], step[moved],
                                   t[moved])
        za = za - t[:, None] * step
        Z[active] = za
        out = _norms(za[:, :system.nx]) > DIVERGENCE_FACTOR * ball_radius
        if out.any():
            active, za = active[~out], za[~out]
    return Z, ok, res


def find_critical_points(F, assignment, mu, ball_radius=DEFAULT_BALL,
                         constraints=(), seed=0):
    """Multistart damped Newton on the gradient (or Lagrange) system inside
    a ball, with deduplication and Morse classification.

    The starts run as one numpy batch, each on its own row, and the points
    are taken from it in start order. Fixed are:

    - the budget of START_BUDGET_PER_MU * max(mu, 1) starts;
    - the Newton and line-search limits, tolerances and failure rules of
      ``_newton``;
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
    found, residual = [], 0.0
    with np.errstate(all="ignore"):
        # row by row the same draws as uniform(-R, R, nx) followed by
        # uniform(-1, 1, k) for each start in turn
        Z0 = low + (high - low) * rng.random((budget, nx + k))
        Z, ok, res = _newton(system, Z0, R)
        rows = np.flatnonzero(ok & ~(_norms(Z[:, :nx]) > R))
        X = Z[rows, :nx]
        # in start order, the first row not within dedup of a point found
        # so far is the next point
        fresh = np.ones(len(rows), dtype=bool)
        while fresh.any():
            j = fresh.argmax()
            i, x = rows[j], X[j]
            morse, hsign = system.classify(Z[i])
            fval = float(system.value(x[None, :])[0, 0])
            found.append((tuple(x), fval, morse, hsign))
            residual = max(residual, float(res[i]))
            if len(found) == mu:
                break
            fresh[j] = False
            fresh &= ~(_norms(X - x) < dedup)
    signed = sum(1 if p[1] > 0 else -1 for p in found)
    return CriticalPointReport(found, residual, signed, len(found) == mu)


@dataclass
class GridChi:
    resolution: int
    chi_ge: int
    chi_le: int
    chi_eq: int
    stable: bool


GRID_BLOCK = 1 << 14   # grid points per float block of _exact_eval_grid


def _to_float(v):
    """v as a float64, or a signed infinity where it overflows."""
    try:
        return float(v)
    except OverflowError:
        return float("inf") if v > 0 else float("-inf")


def _exact_eval_grid(F, assignment, radius, n):
    """Signs of F on an (n+1)^2 rational grid over [-radius, radius]^2 (n+1
    points of [-radius, radius] with one space variable; shape (n+1, 1)),
    exact.

    Grid point i is A_i / D with integers A_i and D = radius.denominator * n,
    and clearing den * D^deg turns F into an integer polynomial
    P = sum_k c_k x^m_k of T terms and degree deg. P is first evaluated in
    float64, a block of grid rows at a time, with the powers of each A_i
    built by repeated multiplication. Every nonzero input is an integer of
    magnitude at least 1, so nothing underflows, and each computed term
    carries at most 2 deg + 1 roundings (the conversions of c_k and A_i and
    the products) and the sum T - 1 more. With N = 2 deg + T + 1 the
    computed value v therefore satisfies |v - P| <= gamma_N sum_k |c_k x^m_k|,
    gamma_N = N u / (1 - N u) and u = 2^-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., sections 3.1 and 4.2). The
    filter compares |v| with gamma_2N times the computed sum of the |terms|;
    the doubling covers the roundings of that sum and of the bound. A point
    takes the sign of v where v is finite and |v| exceeds the bound; every
    other point (a zero of F, a near-zero, an overflow to inf or nan) is
    evaluated exactly in Python integers."""
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
    terms = [(m[:nx] + (0,) * (2 - nx), c.numerator * (den // c.denominator)
              * D ** (deg - sum(m[:nx]))) for m, c in q.terms.items()]
    # gamma_2N with N = 2 deg + T + 1; no filter if it is not small
    u2n = 2 * (2 * deg + len(terms) + 1) * np.ldexp(1.0, -53)
    gamma = u2n / (1 - u2n) if u2n < 0.25 else float("inf")
    fc = [_to_float(c) for _, c in terms]
    pw = np.empty((deg + 1, n + 1))
    pw[0] = 1.0
    if deg:
        pw[1] = [_to_float(a) for a in A]
    for e in range(2, deg + 1):
        pw[e] = pw[e - 1] * pw[1]
    cols = pw[:, None, :] if nx == 2 else np.ones((deg + 1, 1, 1))
    ncols = cols.shape[2]
    sign = np.zeros((n + 1, ncols), dtype=np.int8)
    block = max(1, GRID_BLOCK // ncols)
    for i0 in range(0, n + 1, block):
        rows = pw[:, i0:i0 + block, None]
        v = np.zeros((rows.shape[1], ncols))
        size = np.zeros_like(v)
        with np.errstate(all="ignore"):
            for (m, _), c in zip(terms, fc):
                term = c * rows[m[0]] * cols[m[1]]
                v += term
                size += np.abs(term)
            sure = np.isfinite(v) & (np.abs(v) > gamma * size)
        sign[i0:i0 + block] = np.where(sure, np.sign(v), 0)
        unsure = np.argwhere(~sure)
        unsure[:, 0] += i0
        for i, j in unsure.tolist():
            exact = sum(c * A[i] ** m[0] * A[j] ** m[1] for m, c in terms)
            sign[i, j] = (exact > 0) - (exact < 0)
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
        # one variable: the strip K x [0, 1] has the Euler characteristic
        # of K, and so has its intersection for F = 0
        sign = np.repeat(sign, 2, axis=1)
    pge = _complex_2d(sign >= 0)
    ple = _complex_2d(sign <= 0)
    peq = tuple(a & b for a, b in zip(pge, ple))
    return _chi_of(pge), _chi_of(ple), _chi_of(peq)


def grid_euler(F, assignment, ball_radius=DEFAULT_BALL, resolution=64):
    """Grid-based Euler characteristics of the regions F >= 0, F <= 0 and
    F = 0 on a square around the origin, doubled until two consecutive
    resolutions agree (at most GRID_DOUBLINGS doublings)."""
    if F.vt.nx > 2:
        raise ValueError("grid oracle supports at most two space variables")
    n = resolution
    prev = None
    for _ in range(GRID_DOUBLINGS + 1):
        cur = _chi_at(F, assignment, ball_radius, n)
        if prev is not None and cur == prev:
            return GridChi(n, cur[0], cur[1], cur[2], True)
        prev = cur
        n *= 2
    return GridChi(n // 2, prev[0], prev[1], prev[2], False)
