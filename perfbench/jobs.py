"""Families, seeded parameter points and the fixed job list of each workload.

A job is one CLI command: ``(command, family, point)``, run as
``logdisc <command> <family file> --json [--params ...]``. The job lists
depend only on the seed, so a run attempts whole passes over the same
operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from qpoly import QPoly

FAMILY_FILES = {
    "a1": "fixtures/a1.ls",
    "a2": "fixtures/a2.ls",
    "example1": "fixtures/example1.ls",
    "e6": "fixtures/e6.ls",
    "ci_k2": "fixtures/ci_k2.ls",
    "a3": "perfbench/families/a3.ls",
    "a4": "perfbench/families/a4.ls",
    "a5": "perfbench/families/a5.ls",
    "a6": "perfbench/families/a6.ls",
    "d4": "perfbench/families/d4.ls",
    "d5": "perfbench/families/d5.ls",
    "k2": "perfbench/families/k2.ls",
}


def _list(text):
    return [p.strip().strip('"') for p in text.strip()[1:-1].split(",")
            if p.strip()]


@dataclass
class Family:
    """One input file read by the benchmark's own reader."""

    name: str
    path: str
    kind: str
    x: tuple
    params: tuple
    f0: QPoly = None
    basis: list = None
    maps: list = None

    @classmethod
    def load(cls, name):
        path = FAMILY_FILES[name]
        fields = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    key, _, val = line.partition("=")
                    fields[key.strip()] = val.strip()
        x = tuple(_list(fields["x_vars"]))
        params = tuple(_list(fields["params"]))
        names = x + params
        fam = cls(name, path, fields["kind"], x, params)
        if fam.kind == "hypersurface":
            fam.f0 = QPoly.parse(fields["f0"].strip('"'), names)
            fam.basis = [QPoly.parse(b, names) for b in _list(fields["basis"])]
        else:
            fam.maps = [QPoly.parse(m, names) for m in _list(fields["maps"])]
        return fam

    @property
    def names(self):
        return self.x + self.params

    @property
    def nx(self):
        return len(self.x)

    @property
    def mu(self):
        return len(self.basis)

    @property
    def F(self):
        """F = f0 + sum s_i e_i with e_0 = 1, s_0 = u."""
        out = self.f0
        for s, e in zip(self.params, self.basis):
            out = out + QPoly.var(self.names, s) * e
        return out

    def ci_maps(self):
        """The maps of the complete-intersection pipeline; a hypersurface
        is recast as the single map -(F - u) - u."""
        if self.maps is not None:
            return self.maps
        u = QPoly.var(self.names, self.params[0])
        return [-(self.F - u) - u]

    def x_weights(self):
        """Smallest positive integer weights making f0 quasihomogeneous."""
        monos = [m[:self.nx] for m in self.f0.terms]
        for w in _weight_candidates(self.nx):
            if len({sum(a * b for a, b in zip(w, m)) for m in monos}) == 1:
                return w
        raise ValueError("%s is not quasihomogeneous" % self.name)

    def weights(self):
        """(x weights, wF, parameter weights) with w(s_i) = wF - w(e_i)."""
        w = self.x_weights()
        m0 = next(iter(self.f0.terms))[:self.nx]
        wF = sum(a * b for a, b in zip(w, m0))
        ps = {}
        for s, e in zip(self.params, self.basis):
            em = next(iter(e.terms))[:self.nx]
            ps[s] = wF - sum(a * b for a, b in zip(w, em))
        return w, wF, ps

    def linear_param(self, xi):
        """The parameter whose basis element is the coordinate ``xi``."""
        target = QPoly.var(self.names, xi)
        for s, e in zip(self.params, self.basis):
            if e.terms == target.terms:
                return s
        return None

    def relations(self):
        """Generators of the ideal of the quotient algebra: the partial
        derivatives of F, or for maps the maximal minors of their
        x-Jacobian together with the later maps."""
        if self.maps is None:
            return [self.F.diff(x) for x in self.x]
        k = len(self.maps)
        jac = [[f.diff(x) for x in self.x] for f in self.maps]
        out = []
        for cols in combinations(range(self.nx), k):
            out.append(_det_poly([[jac[q][c] for c in cols] for q in range(k)]))
        return [r for r in out if not r.is_zero] + list(self.maps[1:])


def _det_poly(rows):
    if len(rows) == 1:
        return rows[0][0]
    out = None
    for j, c in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = c * _det_poly(minor)
        out = term if out is None else (out + term if j % 2 == 0 else out - term)
    return out


def _weight_candidates(nx):
    for bound in range(1, 13):
        for w in _tuples(nx, bound):
            if max(w) == bound:
                yield w


def _tuples(n, bound):
    if n == 0:
        yield ()
        return
    for head in range(1, bound + 1):
        for rest in _tuples(n - 1, bound):
            yield (head,) + rest


def rational(rng, mag, dens):
    """A rational of absolute value at most ``mag`` with a denominator
    drawn from ``dens``."""
    den = rng.choice(dens)
    return Fraction(rng.randint(-mag * den, mag * den), den)


def rational_in(rng, lo, hi, dens):
    """A rational in [lo, hi] with a denominator drawn from ``dens``."""
    den = rng.choice(dens)
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def params_text(point):
    return ",".join("%s=%s" % (k, v) for k, v in point.items())


@dataclass(frozen=True)
class Job:
    command: str
    family: str
    point: tuple = None   # ((name, Fraction), ...) in parameter order

    def argv(self):
        argv = [self.command, FAMILY_FILES[self.family], "--json"]
        if self.point is not None:
            argv += ["--params", params_text(dict(self.point))]
        return argv

    def label(self):
        if self.point is None:
            return "%s %s" % (self.command, self.family)
        return "%s %s %s" % (self.command, self.family,
                             params_text(dict(self.point)))


# -- symbolic ---------------------------------------------------------------

# tables, ci-tables, gm and discriminant on every fixture and on the
# generated A3-A6 and D5 families (ci_k2 has only the CI commands), the four
# heavy e6 commands, and maxwell on mu <= 4 families only: on mu = 5 it does
# not finish.
SYMBOLIC_SWEEP = ("a1", "a2", "example1", "e6", "a3", "a4", "a5", "a6", "d5")
MAXWELL_FAMILIES = ("example1", "a3", "a4", "d4")


def symbolic_jobs():
    jobs = [Job(c, "e6") for c in ("bifurcation", "ci-discriminant",
                                   "traceforms")]
    for fam in SYMBOLIC_SWEEP:
        jobs += [Job(c, fam) for c in ("tables", "ci-tables", "gm",
                                       "discriminant")]
    jobs += [Job("ci-tables", "ci_k2"), Job("gm", "ci_k2")]
    jobs += [Job("maxwell", f) for f in MAXWELL_FAMILIES]
    return jobs


# -- point generation -------------------------------------------------------

SMALL_DENS = (1, 2, 3, 4, 5, 7)
# e6 points are not screened by running the program (one query costs
# seconds), so they are drawn with large denominators, where a point on the
# discriminant or bifurcation set has negligible probability.
LARGE_DENS = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def random_point(fam, rng, dens=SMALL_DENS):
    return {s: rational(rng, 2, dens) for s in fam.params}


def one_variable_point(fam, rng, all_real):
    """A point of the A_k family x^(k+1) + u + sum s_j x^j whose derivative
    has k distinct real roots (all_real) or a pair of complex roots."""
    k = fam.mu
    names = fam.names
    x = QPoly.var(names, fam.x[0])
    roots = []
    while len(roots) < (k if all_real else k - 2):
        r = rational(rng, 2, SMALL_DENS)
        if r not in roots:
            roots.append(r)
    if all_real:
        roots[-1] = -sum(roots[:-1], Fraction(0))
        if len(set(roots)) < k:
            return None
        dF = QPoly.const(names, k + 1)
        for r in roots:
            dF = dF * (x - r)
    else:
        alpha = sum(roots, Fraction(0))   # roots of F' sum to zero
        beta = alpha * alpha / 4 + Fraction(rng.randint(1, 12), 4)
        dF = QPoly.const(names, k + 1) * (x * x + alpha * x + beta)
        for r in roots:
            dF = dF * (x - r)
    point = {fam.params[0]: rational(rng, 2, SMALL_DENS)}
    for j, s in enumerate(fam.params[1:], start=1):
        point[s] = dF.coeff((j - 1,) + (0,) * len(fam.params)) / j
    return point


def freeze(point):
    return tuple(point.items())


class Screen:
    """Runs a candidate job through the program before timing starts and
    keeps it only if the program accepts the point (exit 2 means the point
    is degenerate, which is correct behaviour there)."""

    def __init__(self, run_quiet):
        self.run_quiet = run_quiet
        self.skipped = 0

    def accepts(self, job):
        code = self.run_quiet(job.argv())
        if code == 2:
            self.skipped += 1
            return False
        return True


def _screened_points(fam, rng, n, screen, commands, draw):
    out = []
    for _ in range(200):
        if len(out) == n:
            return out
        pt = draw()
        if pt is None:
            continue
        if all(screen.accepts(Job(c, fam.name, freeze(pt))) for c in commands):
            out.append(pt)
    raise RuntimeError("could not draw %d nondegenerate points on %s"
                       % (n, fam.name))


POINT_FAMILIES = {
    # family: (commands at each point, points per pass)
    "a1": (("count", "euler"), 4),
    "a2": (("count", "euler"), 4),
    "a3": (("count", "euler"), 4),
    "a4": (("count", "euler"), 4),
    "example1": (("count", "euler", "ci-count"), 4),
    "d4": (("count", "euler", "ci-count"), 4),
    "k2": (("ci-count",), 8),
}


def points_jobs(seed, screen):
    rng = random.Random("points:%d" % seed)
    jobs = []
    for name, (commands, n) in POINT_FAMILIES.items():
        fam = Family.load(name)
        for pt in _screened_points(fam, rng, n, screen, commands,
                                   lambda: random_point(fam, rng)):
            jobs += [Job(c, name, freeze(pt)) for c in commands]
    e6 = Family.load("e6")
    jobs.append(Job("count", "e6", freeze(random_point(e6, rng, LARGE_DENS))))
    jobs.append(Job("euler", "e6", freeze(random_point(e6, rng, LARGE_DENS))))
    return jobs


ORACLE_FAMILIES = ("example1", "a2", "a3", "a4", "d4", "d5", "k2")
ORACLE_POINTS_PER_KIND = 12

# Parameter boxes near a morsification with all critical points real: a
# separable cubic pair (example1), the even D4 and D5 deformations, and a
# parabola deep enough for three critical points (k2). Random points
# elsewhere mostly have fewer real critical points. Each draw is still
# sorted by its number of real critical points.
ALL_REAL_BOXES = {
    "example1": {"c": (-3, -1), "d": (-3, -1), "b": (-0.25, 0.25)},
    "d4": {"a": (-0.25, 0.25), "b": (-2, -0.5)},
    "d5": {"a": (-0.25, 0.25), "b": (-0.25, 0.25), "c": (-0.6, -0.2),
           "d": (-3, -1.5)},
    "k2": {"t1": (-0.25, 0.25), "t2": (1, 2.5)},
}


def box_point(fam, rng, box):
    pt = random_point(fam, rng)
    for s, (lo, hi) in box.items():
        pt[s] = rational_in(rng, lo, hi, SMALL_DENS)
    return pt


def oracle_jobs(seed, screen, all_real_at):
    """``all_real_at(fam, point)`` tells whether all mu critical points are
    real there, or None where the trace form T is singular; it sorts the
    random points of two-variable families by kind (one-variable points are
    built to be of their kind)."""
    rng = random.Random("oracle:%d" % seed)
    jobs = []
    for name in ORACLE_FAMILIES:
        fam = Family.load(name)
        # oracle-check refuses a point exactly when these refuse it; for a
        # hypersurface, Sigma T is singular only where T or B^HF = Sigma B^H
        # is, and a singular T is rejected when the kind is drawn
        screen_with = ("ci-count",) if fam.maps else ("euler",)
        for all_real in (True, False):
            if fam.maps is None and fam.nx == 1:
                def draw(all_real=all_real):
                    return one_variable_point(fam, rng, all_real)
            else:
                def draw(all_real=all_real):
                    box = ALL_REAL_BOXES[name] if all_real else {}
                    pt = box_point(fam, rng, box)
                    return pt if all_real_at(fam, pt) == all_real else None
            for pt in _screened_points(fam, rng, ORACLE_POINTS_PER_KIND,
                                       screen, screen_with, draw):
                jobs.append(Job("oracle-check", name, freeze(pt)))
    return jobs
