"""Independent checks of every CLI answer the benchmark times.

No check compares with a stored copy of an earlier output. Each one tests
a property the answer must have, computed with ``qpoly`` (which shares no
code with ``logdisc``), with ``numpy.roots`` for one-variable families, or
against the program's Newton oracle, a witness that shares no code with the
exact path:

- det Sigma and det P: weighted homogeneity, the u^mu coefficient, a zero
  at a point built to put a critical value at 0 and none once u moves off
  it, and for one variable a constant ratio to the classical disc_x F;
- det T: weighted homogeneity and a zero at a point built to make a
  critical point degenerate;
- the Maxwell candidate: zeros on a symmetry locus or on a point built to
  give two critical points the same value;
- structure constants: the multiplication matrices commute, multiply as the
  basis monomials do and satisfy the relations of the ideal; traces, P and
  the trace forms T, B^H and B^HF agree with them (traceforms is checked
  against the tables answer of its family, gm against ci-tables);
- connection coefficients: the closed form on monomial bases;
- signed counts and Euler characteristics: real roots of F' (one
  variable) or the Newton oracle (two variables, k = 2);
- oracle-check: its own ``agree`` flag (Newton count against the exact
  signature). Its ``chi_agree`` flag is counted, not failed: the grid
  oracle calls a too-coarse answer stable at points where a critical value
  lies close to 0 or a region is thinner than a cell, and at some D5 points
  its square of half-width 10 is too small for the chi of the large ball the
  exact answer describes. Such points turn up on some seeds and not others,
  so a false ``chi_agree`` does not show a wrong exact answer. The exact chi
  is checked in the points workload's ``euler`` jobs: directly for one
  variable, through sign B^H and sign B^HF for two.

A check raises ``CheckFailed``; the benchmark counts the job as failed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import qpoly
from jobs import SMALL_DENS, Family, Job, rational
from qpoly import QPoly


class CheckFailed(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Checker:
    """Checks the outputs of one pass. ``outputs`` maps a job to its parsed
    JSON output, so that gm and traceforms can be checked against the
    tables of the same family. ``newton(fam, point, F, constraints, mu=None)`` runs the
    program's Newton oracle outside the timed region."""

    def __init__(self, seed, newton):
        self.rng = random.Random("check:%d" % seed)
        self.newton = newton
        self.families = {}
        self.outputs = {}
        self.chi_disagree = 0

    def family(self, name):
        if name not in self.families:
            self.families[name] = Family.load(name)
        return self.families[name]

    def check(self, job, out):
        fam = self.family(job.family)
        point = dict(job.point) if job.point is not None else None
        CHECKS[job.command](self, fam, out, point)


# -- helpers ----------------------------------------------------------------

def _poly(fam, text):
    return QPoly.parse(text, fam.names)


def _matrix(fam, rows):
    return [[_poly(fam, e) for e in row] for row in rows]


def _at(mat, values):
    return [[e.value(values) for e in row] for row in mat]


def _random_params(fam, rng):
    return {s: rational(rng, 2, SMALL_DENS) for s in fam.params}


def _generic_params(fam, rng):
    """A random point with denominators near 10^6, which lies on a given
    hypersurface of small degree only with negligible probability."""
    return {s: Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 * 10 ** 6),
                        10 ** 6 + rng.randint(1, 999)) for s in fam.params}


def _solve_gradient(fam, values):
    """Set each linear parameter so that grad F vanishes at the x-values."""
    for xi in fam.x:
        s = fam.linear_param(xi)
        values[s] = Fraction(0)
        values[s] = -fam.F.diff(xi).value(values)


def critical_value_point(fam, rng):
    """Parameters at which F has a critical point with critical value 0."""
    values = _random_params(fam, rng)
    for xi in fam.x:
        # a coordinate without a linear parameter sits at f0's critical point
        values[xi] = rational(rng, 2, SMALL_DENS) if fam.linear_param(xi) else 0
    if any(fam.linear_param(xi) for xi in fam.x):
        _solve_gradient(fam, values)
    u = fam.params[0]
    values[u] = Fraction(0)
    values[u] = -fam.F.value(values)
    return {s: values[s] for s in fam.params}


def _hessian_det(fam):
    F = fam.F
    if fam.nx == 1:
        return F.diff(fam.x[0]).diff(fam.x[0])
    x, y = fam.x
    return F.diff(x).diff(x) * F.diff(y).diff(y) - F.diff(x).diff(y) ** 2


def degenerate_point(fam, rng, tries=20):
    """Parameters at which F has a degenerate critical point, or None when
    the family has none (mu = 1). det Hess F is solved in the first
    variable it is linear in, then grad F = 0 in the linear parameters."""
    if not all(fam.linear_param(xi) for xi in fam.x):
        return None
    H = _hessian_det(fam)
    quadratic = [s for s, e in zip(fam.params, fam.basis)
                 if sum(next(iter(e.terms))[:fam.nx]) >= 2]
    for _ in range(tries):
        values = _random_params(fam, rng)
        for xi in fam.x:
            values[xi] = rational(rng, 2, SMALL_DENS)
        for v in quadratic + list(fam.x):
            rest = {k: c for k, c in values.items() if k != v}
            cs = qpoly.univariate(H, v, rest)
            if len(cs) == 2 and cs[1]:
                values[v] = -cs[0] / cs[1]
                _solve_gradient(fam, values)
                return {s: values[s] for s in fam.params}
    return None


def _check_discriminant(ck, fam, D, mu, u_coeff, what):
    """det Sigma (u_coeff = wF^mu) or det P (u_coeff = (-1)^mu)."""
    _, wF, pw = fam.weights()
    nx = fam.nx
    for m in D.terms:
        expect(not any(m[:nx]), "%s involves x" % what)
        weight = sum(pw[s] * e for s, e in zip(fam.params, m[nx:]))
        expect(weight == mu * wF, "%s is not weighted-homogeneous of weight "
               "%d: a term has weight %d" % (what, mu * wF, weight))
    u = fam.params[0]
    umu = tuple(mu if n == u else 0 for n in fam.names)
    expect(D.coeff(umu) == u_coeff, "%s: u^%d coefficient %s, expected %s"
           % (what, mu, D.coeff(umu), u_coeff))
    pt = critical_value_point(fam, ck.rng)
    expect(D.value(pt) == 0, "%s does not vanish at %s, where 0 is a "
           "critical value" % (what, pt))
    pt[u] += Fraction(ck.rng.randint(1, 96), 97)
    expect(D.value(pt) != 0, "%s vanishes at %s, off the discriminant"
           % (what, pt))
    if fam.nx == 1:
        ratios = set()
        x = fam.x[0]
        for _ in range(3):
            pt = _generic_params(fam, ck.rng)
            cs = qpoly.univariate(fam.F, x, pt)
            dcs = [c * k for k, c in enumerate(cs)][1:]
            classical = qpoly.resultant(cs, dcs)
            if classical:
                ratios.add(D.value(pt) / classical)
        expect(len(ratios) == 1 and 0 not in ratios,
               "%s is not a constant multiple of disc_x F (ratios %s)"
               % (what, sorted(ratios)))


def _weights_of_terms(fam, p):
    _, _, pw = fam.weights()
    return {sum(pw[s] * e for s, e in zip(fam.params, m[fam.nx:]))
            for m in p.terms}


def _check_bifurcation(ck, fam, detT, what="det T"):
    if fam.mu == 1:
        expect(detT.variables() == set() and not detT.is_zero,
               "%s of a mu = 1 family must be a nonzero constant" % what)
        return
    expect(len(_weights_of_terms(fam, detT)) == 1,
           "%s is not weighted-homogeneous" % what)
    pt = degenerate_point(fam, ck.rng)
    expect(pt is not None, "no degenerate point could be built")
    expect(detT.value(pt) == 0, "%s does not vanish at %s, where a critical "
           "point is degenerate" % (what, pt))
    expect(detT.value(_generic_params(fam, ck.rng)) != 0,
           "%s vanishes at a random point" % what)


# -- structure constants ----------------------------------------------------

def _monomial_exponents(fam, p):
    expect(len(p.terms) == 1, "basis element %s is not a monomial" % p.terms)
    (m, c), = p.terms.items()
    expect(c == 1 and not any(m[fam.nx:]), "basis element is not monic in x")
    return m[:fam.nx]


def _mat_poly(p, X, values, fam):
    """p with the parameters set to ``values`` and x_i replaced by the
    commuting matrices X[i]."""
    n = len(X[0])
    q = p.subs(values)
    out = [[Fraction(0)] * n for _ in range(n)]
    for m, c in q.terms.items():
        term = qpoly.identity(n)
        for i, e in enumerate(m[:fam.nx]):
            for _ in range(e):
                term = qpoly.matmul(term, X[i])
        out = [[a + c * b for a, b in zip(r1, r2)] for r1, r2 in zip(out, term)]
    return out


def _check_algebra(ck, fam, out, tau_key):
    """Structure constants tau^l_ij: M_j[l][i] = tau^l_ij(s) is the matrix
    of multiplication by e_j at a random point s."""
    mu = out["mu"]
    basis = [_monomial_exponents(fam, _poly(fam, b)) for b in out["basis"]]
    expect(len(basis) == mu and not any(basis[0]), "basis must start with 1")
    tau = [_matrix(fam, t) for t in out[tau_key]]
    u = fam.params[0]
    expect(all(e.degree_in(u) <= 0 for t in tau for row in t for e in row),
           "structure constants involve u")
    s = _random_params(fam, ck.rng)
    tv = [_at(t, s) for t in tau]
    M = [[[tv[l][i][j] for i in range(mu)] for l in range(mu)]
         for j in range(mu)]
    expect(M[0] == qpoly.identity(mu), "e_0 = 1 does not act as identity")
    for i in range(mu):
        for j in range(mu):
            prod = qpoly.matmul(M[i], M[j])
            expect(prod == qpoly.matmul(M[j], M[i]),
                   "multiplication matrices do not commute")
            comb = [[sum((tv[l][i][j] * M[l][a][b] for l in range(mu)),
                         Fraction(0)) for b in range(mu)] for a in range(mu)]
            expect(prod == comb, "structure constants are not associative")
    zeta = [_poly(fam, z).value(s) for z in out["zeta"]]
    expect(zeta[0] == mu, "zeta_0 = %s, expected mu = %d" % (zeta[0], mu))
    for r in range(mu):
        expect(zeta[r] == sum(M[r][i][i] for i in range(mu)),
               "zeta_%d is not the trace of multiplication" % r)
    unit = [tuple(int(i == j) for j in range(fam.nx)) for i in range(fam.nx)]
    if all(e in basis for e in unit):
        X = [M[basis.index(e)] for e in unit]
        for j, m in enumerate(basis):
            mono = QPoly(fam.names, {m + (0,) * len(fam.params): 1})
            expect(_mat_poly(mono, X, s, fam) == M[j],
                   "multiplication by basis element %d is not the product "
                   "of the coordinate matrices" % j)
        zero = [[0] * mu for _ in range(mu)]
        for rel in fam.relations():
            expect(_mat_poly(rel, X, s, fam) == zero,
                   "the algebra does not satisfy a relation of the ideal")
        return M, X, s
    return M, None, s


def check_tables(ck, fam, out, point):
    expect(out["mu"] == fam.mu, "mu = %s, expected %d" % (out["mu"], fam.mu))
    _check_algebra(ck, fam, out, "tau")


def check_ci_tables(ck, fam, out, point):
    M, X, s = _check_algebra(ck, fam, out, "tau")
    mu = out["mu"]
    T = _at(_matrix(fam, out["T"]), s)
    for i in range(mu):
        for j in range(mu):
            tr = sum(qpoly.matmul(M[i], M[j])[a][a] for a in range(mu))
            expect(T[i][j] == tr, "T is not the trace form")
    if X is not None:
        u = fam.params[0]
        s = dict(s)
        s[u] = rational(ck.rng, 2, SMALL_DENS)
        P = _at(_matrix(fam, out["P"]), s)
        F1 = _mat_poly(fam.ci_maps()[0], X, s, fam)
        expect(P == [list(r) for r in zip(*F1)],
               "P is not the matrix of multiplication by the first map")


def check_gm(ck, fam, out, point):
    tables = ck.outputs.get(Job("ci-tables", fam.name))
    expect(tables is not None, "gm is checked against ci-tables of %s"
           % fam.name)
    gm = out["gm"]
    xw, fw = gm["x_weights"], gm["f_weights"]
    maps = fam.ci_maps()
    expect(len(fw) == len(maps) and min(xw) > 0, "bad weight vectors")
    for f, wf in zip(maps, fw):
        for m in f.terms:
            if any(m[:fam.nx]) and not any(m[fam.nx:]):
                expect(sum(a * b for a, b in zip(xw, m)) == wf,
                       "map is not quasihomogeneous of weight %d" % wf)
    expect(gm["trM0"] == sum(fw), "trM0 is not the sum of the map weights")
    mu = tables["mu"]
    wt = [sum(a * b for a, b in zip(xw, _monomial_exponents(fam, _poly(fam, b))))
          for b in tables["basis"]]
    W = [_matrix(fam, w) for w in tables["tau"]]
    B = [_matrix(fam, b) for b in gm["B"]]
    expect(len(B) == mu, "expected %d matrices B_j" % mu)
    # div(phi_i phi_j E) = (sum w + wt(phi_i phi_j)) phi_i phi_j for monomials
    for j in range(mu):
        for i in range(mu):
            c = gm["trM0"] + sum(xw) + wt[i] + wt[j]
            for l in range(mu):
                expect((B[j][i][l] - W[l][i][j] * c).is_zero,
                       "B_%d[%d][%d] differs from its closed form" % (j, i, l))


def check_discriminant(ck, fam, out, point):
    expect(out["mu"] == fam.mu, "wrong mu")
    _, wF, _ = fam.weights()
    _check_discriminant(ck, fam, _poly(fam, out["detSigma"]), fam.mu,
                        Fraction(wF) ** fam.mu, "det Sigma")


def check_ci_discriminant(ck, fam, out, point):
    mu = out["mu"]
    _check_discriminant(ck, fam, _poly(fam, out["detP"]), mu,
                        Fraction(-1) ** mu, "det P")
    _check_bifurcation(ck, fam, _poly(fam, out["detT"]), "det T (CI)")


def check_bifurcation(ck, fam, out, point):
    _check_bifurcation(ck, fam, _poly(fam, out["detT"]))


# points on a symmetry locus: F is invariant under a symmetry there, so
# critical points come in pairs with equal critical values
SYMMETRY_LOCI = {"example1": ("c", "d"), "a3": ("a", 0), "d4": ("a", 0)}


def maxwell_point(fam, rng):
    """A point where two real critical points share a critical value. On a
    symmetry locus; for one variable with mu >= 4 F' is built as
    (k+1)(x - r1)(x - r2)q(x) with the integral of F' from r1 to r2 zero."""
    pt = _random_params(fam, rng)
    if fam.name in SYMMETRY_LOCI:
        s, t = SYMMETRY_LOCI[fam.name]
        pt[s] = pt[t] if isinstance(t, str) else Fraction(t)
        return pt
    expect(fam.nx == 1 and fam.mu >= 4, "no Maxwell point construction")
    k = fam.mu
    names = ("x", "q0")
    x, q0 = QPoly.var(names, "x"), QPoly.var(names, "q0")
    r1 = rational(rng, 2, SMALL_DENS)
    r2 = r1 + 1 + abs(rational(rng, 1, SMALL_DENS))
    # q is monic of degree k - 2; its x^(k-3) coefficient makes the roots
    # of F' sum to zero, its constant term q0 is solved for
    q = x ** (k - 2) + (r1 + r2) * x ** (k - 3) + q0
    for j in range(1, k - 3):
        q = q + rational(rng, 1, SMALL_DENS) * x ** j
    dF = (k + 1) * (x - r1) * (x - r2) * q
    F = QPoly(names, {(m[0] + 1, m[1]): c / (m[0] + 1)
                      for m, c in dF.terms.items()})
    lin = F.subs({"x": r2}) - F.subs({"x": r1})     # a*q0 + b
    dF = dF.subs({"q0": -lin.coeff((0, 0)) / lin.coeff((0, 1))})
    expect(dF.coeff((k - 1, 0)) == 0, "constructed F' has an x^(k-1) term")
    for j, s in enumerate(fam.params[1:], start=1):
        pt[s] = dF.coeff((j - 1, 0)) / j
    return pt


def check_maxwell(ck, fam, out, point):
    _check_bifurcation(ck, fam, _poly(fam, out["detT"]))
    M = _poly(fam, out["maxwell"])
    for _ in range(2):
        pt = maxwell_point(fam, ck.rng)
        expect(M.value(pt) == 0, "Maxwell candidate does not vanish at %s, "
               "where two critical values coincide" % pt)
    expect(M.value(_generic_params(fam, ck.rng)) != 0,
           "Maxwell candidate vanishes at a random point")


def check_traceforms(ck, fam, out, point):
    """T, B^H and B^HF against the trace forms of the algebra of the same
    family's ``tables`` answer (itself checked against the ideal), and
    their signatures against the real critical points."""
    tables = ck.outputs.get(Job("tables", fam.name))
    expect(tables is not None, "traceforms is checked against tables of %s"
           % fam.name)
    mu = fam.mu
    forms = {k: _matrix(fam, out[k]) for k in ("T", "BH", "BHF")}
    M, X, s = _check_algebra(ck, fam, tables, "tau")
    expect(X is not None, "the basis must contain the coordinates")
    _, wF, _ = fam.weights()
    H = _mat_poly(_hessian_det(fam), X, s, fam)
    HF = qpoly.matmul(_mat_poly(fam.F, X, s, fam), H)
    weights = {"T": (qpoly.identity(mu), 1), "BH": (H, 1), "BHF": (HF, wF)}
    for name, (A, c) in weights.items():
        got = _at(forms[name], s)
        for i in range(mu):
            for j in range(mu):
                prod = qpoly.matmul(A, qpoly.matmul(M[i], M[j]))
                expect(got[i][j] == c * sum(prod[a][a] for a in range(mu)),
                       "%s[%d][%d] is not the trace form" % (name, i, j))
    pt = _generic_params(fam, ck.rng)
    crit = _real_critical_points(ck, fam, pt)
    sig = {k: qpoly.signature(_at(m, pt))[0] for k, m in forms.items()}
    expect(sig["T"] == len(crit), "sig T = %d, but %d real critical points"
           % (sig["T"], len(crit)))
    expect(sig["BH"] == sum(h for _, h in crit), "sig BH disagrees")
    expect(sig["BHF"] == sum(v * h for v, h in crit), "sig BHF disagrees")


# -- point queries ----------------------------------------------------------

def _sign(v):
    return int(v > 0) - int(v < 0)


def _real_critical_points(ck, fam, pt):
    """[(sign F, sign det Hess F)] at the real critical points: from
    numpy.roots of F' for one variable, else from the Newton oracle."""
    if fam.nx == 1:
        x = fam.x[0]
        cs = [float(c) for c in qpoly.univariate(fam.F, x, pt)]
        d1 = [k * c for k, c in enumerate(cs)][1:]
        d2 = [k * c for k, c in enumerate(d1)][1:]
        out = []
        for r in np.roots(d1[::-1]):
            if abs(r.imag) <= 1e-7 * max(1.0, abs(r)):
                fv = np.polyval(cs[::-1], r.real)
                hv = np.polyval(d2[::-1], r.real)
                out.append((_sign(fv), _sign(hv)))
        return out
    rep = ck.newton(fam, pt, fam.F, ())
    return [(_sign(p[1]), p[3]) for p in rep.points]


def _end_signs(fam, pt):
    cs = qpoly.univariate(fam.F, fam.x[0], pt)
    d = len(cs) - 1
    lead = _sign(cs[-1])
    return lead * (-1) ** d, lead


def check_count(ck, fam, out, point):
    tri = out["inertia"]
    expect(tri["n_zero"] == 0 and tri["n_plus"] + tri["n_minus"] == fam.mu,
           "inertia of Sigma T is not nondegenerate of size mu")
    crit = _real_critical_points(ck, fam, point)
    expected = sum(v for v, _ in crit)
    expect(out["count"] == expected, "signed count %s, expected %d"
           % (out["count"], expected))


def check_euler(ck, fam, out, point):
    chi = out["chi"]
    crit = _real_critical_points(ck, fam, point)
    expect(chi["sign_BH"] == sum(h for _, h in crit), "sign BH disagrees")
    expect(chi["sign_BHF"] == sum(v * h for v, h in crit),
           "sign BHF disagrees")
    # an identity of the formulas, not evidence: kept as a sanity check
    expect(chi["ge"] + chi["le"] - chi["eq"] == 1, "additivity violated")
    if fam.nx == 1:
        # F is monotone between consecutive critical points: components of
        # {F >= 0} are runs of nonnegative values in this sequence
        x = fam.x[0]
        cs = [float(c) for c in qpoly.univariate(fam.F, x, point)]
        d1 = [k * c for k, c in enumerate(cs)][1:]
        roots = sorted(r.real for r in np.roots(d1[::-1])
                       if abs(r.imag) <= 1e-7 * max(1.0, abs(r)))
        lo, hi = _end_signs(fam, point)
        seq = [lo] + [_sign(np.polyval(cs[::-1], r)) for r in roots] + [hi]

        def runs(ok):
            return sum(1 for i, v in enumerate(seq)
                       if ok(v) and (i == 0 or not ok(seq[i - 1])))
        expect(chi["ge"] == runs(lambda v: v >= 0), "chi(F >= 0) disagrees")
        expect(chi["le"] == runs(lambda v: v <= 0), "chi(F <= 0) disagrees")
        zeros = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        expect(chi["eq"] == zeros, "chi(F = 0) disagrees")


def check_ci_count(ck, fam, out, point):
    tri = out["inertia"]
    expect(tri["n_zero"] == 0 and tri["n_plus"] + tri["n_minus"] == out["mu"],
           "inertia of P T is not nondegenerate of size mu")
    maps = fam.ci_maps()
    rep = ck.newton(fam, point, maps[0], tuple(maps[1:]), out["mu"])
    expect(out["count"] == rep.signed_count,
           "signed count %s, Newton oracle %d" % (out["count"],
                                                  rep.signed_count))


def check_oracle(ck, fam, out, point):
    oc = out["oracle"]
    expect(oc["agree"] is True, "oracle-check reports agree = %r"
           % oc["agree"])
    grid = oc.get("grid")
    if grid is not None and grid["stable"] and oc["chi_agree"] is not True:
        ck.chi_disagree += 1
    if fam.maps is None and fam.nx == 1:
        expected = sum(v for v, _ in _real_critical_points(ck, fam, point))
        expect(oc["exact_signature"] == expected,
               "exact signature %s, numpy.roots %d"
               % (oc["exact_signature"], expected))


CHECKS = {
    "tables": check_tables,
    "ci-tables": check_ci_tables,
    "gm": check_gm,
    "discriminant": check_discriminant,
    "ci-discriminant": check_ci_discriminant,
    "bifurcation": check_bifurcation,
    "maxwell": check_maxwell,
    "traceforms": check_traceforms,
    "count": check_count,
    "euler": check_euler,
    "ci-count": check_ci_count,
    "oracle-check": check_oracle,
}
