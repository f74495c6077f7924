"""Command-line front end: input-file parsing, command dispatch, text and
JSON output."""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cached_property

from . import ci as ci_mod
from . import hyper as hy
from .groebner import NonConstantScaleError, InfiniteQuotientError
from .inertia import (DegeneratePointError, SymMatrixQ, critical_count,
                      euler_characteristics, inertia)
from .matrix import det_bareiss
from .oracle import (DEFAULT_BALL, DEFAULT_RESOLUTION, find_critical_points,
                     grid_euler)
from .parse import PolyParseError, parse_poly
from .poly import VarTable

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2


class InputError(ValueError):
    pass


def _parse_list(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError("expected a bracketed list, got %r" % text)
    return [part for part in map(_unquote, text[1:-1].split(",")) if part]


def _unquote(text):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    return text


def read_input_file(path):
    """Flat key = value format; values are names, quoted polynomial strings,
    or bracketed lists thereof."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError("line %d: expected key = value" % lineno)
            key, _, val = line.partition("=")
            key = key.strip()
            if key in fields:
                raise InputError("line %d: key %r given twice" % (lineno, key))
            fields[key] = val.strip()
    return fields


class LoadedSpec:
    """Everything a command might need, built lazily from the input file.
    Both kinds build one algebra from their CISpec; a hypersurface is the
    k = 1 case with the single map -F."""

    def __init__(self, fields, basis_override=None):
        kind = _unquote(fields.get("kind", "hypersurface"))
        if kind not in ("hypersurface", "complete-intersection"):
            raise InputError("kind must be hypersurface or "
                             "complete-intersection, got %r" % kind)
        self.kind = kind
        if "x_vars" not in fields or "params" not in fields:
            raise InputError("x_vars and params are required")
        x_vars = _parse_list(fields["x_vars"])
        params = _parse_list(fields["params"])
        self.vt = VarTable(tuple(x_vars), tuple(params))
        basis_text = basis_override
        if basis_text is None and "basis" in fields:
            basis_text = _parse_list(fields["basis"])
        elif basis_text is not None:
            basis_text = [b.strip() for b in basis_text.split(",")]
        self.basis_text = basis_text
        self.fields = fields

    @cached_property
    def basis(self):
        """The basis polynomials, or None where the input gives none."""
        if self.basis_text is not None:
            return [parse_poly(b, self.vt) for b in self.basis_text]

    @cached_property
    def spec(self):
        if self.kind != "hypersurface":
            raise InputError("this command needs a hypersurface input")
        if "f0" not in self.fields:
            raise InputError("f0 is required for hypersurface inputs")
        f0 = parse_poly(_unquote(self.fields["f0"]), self.vt)
        if self.basis is None:
            raise InputError("basis is required for hypersurface inputs")
        return hy.DeformationSpec.build(f0, self.basis, self.vt.s_vars)

    @cached_property
    def cspec(self):
        if self.kind == "hypersurface":
            return ci_mod.hyper_to_ci(self.spec)
        if "maps" not in self.fields:
            raise InputError("maps is required for "
                             "complete-intersection inputs")
        maps = [parse_poly(m, self.vt)
                for m in _parse_list(self.fields["maps"])]
        return ci_mod.CISpec(tuple(maps), self.vt.s_vars)

    @cached_property
    def algebra(self):
        cspec = self.cspec  # the maps' input errors come before the basis's
        hint = None if self.basis is None else ci_mod.monomial_hint(self.basis)
        return ci_mod.ci_tables(cspec, basis_hint=hint)

    @cached_property
    def sigma(self):
        spec = self.spec
        ws = hy.derive_weights(spec.f0, self.algebra.phi)
        return hy.log_matrix(spec, ws, self.algebra)


def parse_param_point(text, vt):
    point = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError("bad parameter assignment %r" % item)
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in vt.s_vars:
            raise InputError("unknown parameter %r" % name)
        if name in point:
            raise InputError("parameter %r given twice" % name)
        try:
            point[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError("bad rational value %r" % val) from None
    missing = [s for s in vt.s_vars if s not in point]
    if missing:
        raise InputError("missing parameter values for %s"
                         % ", ".join(missing))
    return point


def _mat(m):
    return [[str(e) for e in row] for row in m.entries]


def _matrix_text(name, rows):
    return "\n".join(["%s:" % name]
                     + ["  [" + ", ".join(row) + "]" for row in rows])


def _triple(tri):
    return {"n_plus": tri.n_plus, "n_minus": tri.n_minus, "n_zero": tri.n_zero}


def _at_point(algebra, args, sign):
    """The algebra over Q at the --params point (``ci.PointTables``) and
    sign * c, c the first map's coordinates there (a hypersurface takes
    -c, F's). The point's structure constants, c and T come from the
    Groebner basis specialised at the point, and equal the evaluated
    parametric ones; the algebra and its checks come before the point is
    read."""
    algebra.require_specialisable()
    point = parse_param_point(args.params or "", algebra.phi.vt)
    at = ci_mod.PointTables(algebra, point)
    return at, [sign * e for e in at.first_map_coords]


def _euler_at(loaded, at, f):
    """The Euler characteristics at one point from B^H and the trace form
    of F h there, f holding F's coordinates. The Hessian is specialised
    before its determinant is taken, and h is its normal form at the
    point."""
    F = loaded.spec.F.evaluate(at.point)
    h = at.coordinates(hy.hessian_determinant(F))
    bh, bhf = hy.hessian_forms(at.tau, at.T, f, h)
    return euler_characteristics(SymMatrixQ(bh), SymMatrixQ(bhf),
                                 loaded.vt.nx)


def _trace_inertia(at, g):
    """The inertia of g's trace form at the point, whose signature is the
    exact count."""
    return inertia(SymMatrixQ(ci_mod.trace_form(at.tau, at.T, g)))


def tables(loaded, args):
    """`tables` (hypersurfaces): tau and zeta; `ci-tables` adds T and P."""
    algebra = loaded.algebra
    out = {"mu": algebra.mu,
           "basis": [str(p) for p in algebra.phi.polynomials()],
           "tau": [_mat(t) for t in algebra.tau],
           "zeta": [str(z) for z in algebra.zeta]}
    if args.command == "ci-tables":
        out["T"] = _mat(algebra.T)
        out["P"] = _mat(algebra.P)
    return out


def print_tables(o):
    print("mu = %d" % o["mu"], "basis = " + ", ".join(o["basis"]), sep="\n")
    if "P" in o:
        print(_matrix_text("P", o["P"]), _matrix_text("T", o["T"]), sep="\n")
    else:
        print(*(_matrix_text("tau^%d" % r, t)
                for r, t in enumerate(o["tau"], start=1)), sep="\n")
        print("zeta = " + ", ".join(o["zeta"]))


def logfields(loaded, args):
    sigma = loaded.sigma
    return {"mu": loaded.algebra.mu,
            "basis": [str(p) for p in loaded.algebra.phi.polynomials()],
            "Sigma": _mat(sigma),
            "detSigma": str(det_bareiss(sigma))}


def maxwell(loaded, args):
    bif, mx = hy.maxwell_bifurcation(loaded.algebra, loaded.cspec.u)
    return {"mu": loaded.algebra.mu, "detT": str(bif), "maxwell": str(mx)}


def traceforms(loaded, args):
    tf = hy.trace_forms(loaded.spec, loaded.algebra, loaded.sigma)
    return {"mu": loaded.algebra.mu, "T": _mat(tf.T), "BH": _mat(tf.BH),
            "BHF": _mat(tf.BHF)}


def euler(loaded, args):
    rep = _euler_at(loaded, *_at_point(loaded.algebra, args, -1))
    return {"mu": loaded.algebra.mu,
            "inertia": {"BH": _triple(rep.BH), "BHF": _triple(rep.BHF)},
            "chi": {"ge": rep.chi_ge, "le": rep.chi_le, "eq": rep.chi_eq,
                    "sign_BH": rep.BH.signature,
                    "sign_BHF": rep.BHF.signature},
            "note": "ball assumed to contain all real critical points"}


def count(loaded, args):
    """`count` (hypersurfaces) takes the signature of the trace form of F,
    `ci-count` that of the first map F_1 - u."""
    sign = -1 if args.command == "count" else 1
    tri = _trace_inertia(*_at_point(loaded.algebra, args, sign))
    return {"mu": loaded.algebra.mu, "inertia": _triple(tri),
            "count": critical_count(tri)}


def ci_discriminant(loaded, args):
    algebra = loaded.algebra
    return {"mu": algebra.mu, "detP": str(det_bareiss(algebra.P)),
            "detT": str(det_bareiss(algebra.T))}


def gm(loaded, args):
    algebra = loaded.algebra
    ws = ci_mod.ci_weights(loaded.cspec)
    coeffs = ci_mod.gm_coefficients(loaded.cspec, algebra, ws)
    return {"mu": algebra.mu,
            "gm": {"trM0": coeffs.trM0,
                   "x_weights": list(ws.x_weights),
                   "f_weights": list(ws.f_weights),
                   "B": [_mat(b) for b in coeffs.B]}}


def oracle_check(loaded, args):
    """The finder runs on F for a hypersurface (and the grid in at most two
    variables), on the maps for a complete intersection."""
    hyper = loaded.kind == "hypersurface"
    at, f = _at_point(loaded.algebra, args, -1 if hyper else 1)
    exact = critical_count(_trace_inertia(at, f))
    maps = (loaded.spec.F,) if hyper else loaded.cspec.maps
    rep = find_critical_points(maps[0], at.point, loaded.algebra.mu,
                               ball_radius=args.ball, constraints=maps[1:])
    oc = {"count": len(rep.points), "signed": rep.signed_count,
          "exact_signature": exact, "agree": rep.signed_count == exact}
    if hyper and loaded.vt.nx <= 2:
        chi = _euler_at(loaded, at, f)
        g = grid_euler(maps[0], at.point, ball_radius=args.ball,
                       resolution=args.resolution)
        oc["grid"] = {"resolution": g.resolution, "stable": g.stable,
                      "chi_ge": g.chi_ge, "chi_le": g.chi_le,
                      "chi_eq": g.chi_eq}
        oc["chi_agree"] = (g.stable and (g.chi_ge, g.chi_le, g.chi_eq)
                           == (chi.chi_ge, chi.chi_le, chi.chi_eq))
    return {"mu": loaded.algebra.mu, "oracle": oc}


def print_oracle_check(o):
    oc = o["oracle"]
    print("numeric signed count = %(signed)d, exact signature = "
          "%(exact_signature)d, agree = %(agree)s" % oc)
    if "grid" in oc:
        g = oc["grid"]
        print("grid chi = (%d, %d, %d) stable=%s, agree = %s"
              % (g["chi_ge"], g["chi_le"], g["chi_eq"], g["stable"],
                 oc["chi_agree"]))


def print_count(o):
    print("signed critical point count = %(count)d" % o)


# command -> (output builder (loaded, args) -> dict, text printer of it)
COMMANDS = {
    "tables": (tables, print_tables),
    "logfields": (logfields, lambda o: print(
        _matrix_text("Sigma", o["Sigma"]), "det Sigma = " + o["detSigma"],
        sep="\n")),
    "discriminant": (
        lambda loaded, args: {"mu": loaded.algebra.mu,
                              "detSigma": str(det_bareiss(loaded.sigma))},
        lambda o: print(o["detSigma"])),
    "bifurcation": (
        lambda loaded, args: {"mu": loaded.algebra.mu,
                              "detT": str(det_bareiss(loaded.algebra.T))},
        lambda o: print(o["detT"])),
    "maxwell": (maxwell, lambda o: print(
        "det T = %(detT)s\nmaxwell candidate = %(maxwell)s" % o)),
    "traceforms": (traceforms, lambda o: print(
        *(_matrix_text(k, o[k]) for k in ("T", "BH", "BHF")), sep="\n")),
    "euler": (euler, lambda o: print(
        "chi(F>=0) = %(ge)d, chi(F<=0) = %(le)d, chi(F=0) = %(eq)d\n"
        "sign BH = %(sign_BH)d, sign BHF = %(sign_BHF)d" % o["chi"])),
    "count": (count, print_count),
    "ci-tables": (tables, print_tables),
    "ci-discriminant": (ci_discriminant, lambda o: print(
        "det P = %(detP)s\ndet T = %(detT)s" % o)),
    "ci-count": (count, print_count),
    "gm": (gm, lambda o: print(
        "tr M0 = %d" % o["gm"]["trM0"],
        *(_matrix_text("B_%d" % j, b) for j, b in enumerate(o["gm"]["B"])),
        sep="\n")),
    "oracle-check": (oracle_check, print_oracle_check),
}
HYPERSURFACE_ONLY = {"tables", "logfields", "discriminant", "bifurcation",
                     "maxwell", "traceforms", "euler", "count"}


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: they exit 1, not argparse's 2, which
    means a degenerate parameter point."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    ap = _Parser(
        prog="logdisc",
        description="Exact discriminants, trace forms and Euler "
                    "characteristics for versal deformations.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("input", help="input file")
    ap.add_argument("--params", help="parameter point k=v,... "
                                     "(rationals or exact decimals)")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--ball", type=float, default=DEFAULT_BALL,
                    help="ball radius for oracle checks")
    ap.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                    help="starting grid resolution for the grid oracle")
    ap.add_argument("--basis", help="override basis: comma-separated "
                                    "monomials")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        build, show = COMMANDS[args.command]
        if not (math.isfinite(args.ball) and args.ball > 0):
            raise InputError("--ball must be finite and positive, got %s"
                             % args.ball)
        if args.resolution < 1:
            raise InputError("--resolution must be at least 1, got %d"
                             % args.resolution)
        loaded = LoadedSpec(read_input_file(args.input),
                            basis_override=args.basis)
        if args.command in HYPERSURFACE_ONLY:
            loaded.spec  # refuses a complete-intersection input
        out = build(loaded, args)
        if args.json:
            print(json.dumps(out, indent=2))
        else:
            show(out)
        return EXIT_OK
    except DegeneratePointError as exc:
        print("degenerate parameter point: %s" % exc, file=sys.stderr)
        print("try perturbing the point off the discriminant/bifurcation "
              "set", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, PolyParseError, NonConstantScaleError,
            InfiniteQuotientError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
