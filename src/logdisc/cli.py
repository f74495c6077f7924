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
from .matrix import det_bareiss, mat_mul
from .oracle import find_critical_points, grid_euler
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
            fields[key.strip()] = val.strip()
    return fields


class LoadedSpec:
    """Everything a command might need, built lazily from the input file.
    A hypersurface's algebra is built with its spec, as the k = 1 case."""

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
        self.params = tuple(params)
        basis_text = basis_override
        if basis_text is None and "basis" in fields:
            basis_text = _parse_list(fields["basis"])
        elif basis_text is not None:
            basis_text = [b.strip() for b in basis_text.split(",")]
        self.basis_text = basis_text
        self.fields = fields

    @cached_property
    def spec(self):
        if self.kind != "hypersurface":
            raise InputError("this command needs a hypersurface input")
        if "f0" not in self.fields:
            raise InputError("f0 is required for hypersurface inputs")
        f0 = parse_poly(_unquote(self.fields["f0"]), self.vt)
        if self.basis_text is None:
            raise InputError("basis is required for hypersurface inputs")
        basis = [parse_poly(b, self.vt) for b in self.basis_text]
        if len(basis) != len(self.params):
            raise InputError("basis and params must have equal length")
        return hy.DeformationSpec.build(f0, basis, self.params)

    @cached_property
    def cspec(self):
        if self.kind == "hypersurface":
            return ci_mod.hyper_to_ci(self.spec)
        if "maps" not in self.fields:
            raise InputError("maps is required for "
                             "complete-intersection inputs")
        maps = [parse_poly(m, self.vt)
                for m in _parse_list(self.fields["maps"])]
        return ci_mod.CISpec(tuple(maps), self.params)

    @cached_property
    def algebra(self):
        if self.kind == "hypersurface":
            return hy.mul_tables(self.spec)
        mi = ci_mod.minor_ideal(self.cspec)
        hint = None
        if self.basis_text is not None:
            hint = [parse_poly(b, self.vt).lead_monomial()[:self.vt.nx]
                    for b in self.basis_text]
        return ci_mod.ci_tables(self.cspec, mi, basis_hint=hint)

    @cached_property
    def logm(self):
        spec = self.spec
        ws = hy.derive_weights(spec.f0, spec.basis)
        return hy.log_matrix(spec, ws, spec.algebra)


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
        try:
            vt.index(name)
        except KeyError:
            raise InputError("unknown parameter %r" % name) from None
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


def _at_point(loaded, args, use_sigma):
    """The --params point, and tau, T and Sigma (use_sigma) or P there. The
    algebra and the form are built before the point is read."""
    form = loaded.logm.sigma if use_sigma else loaded.algebra.P
    point = parse_param_point(args.params or "", loaded.vt)
    return (point,) + hy.forms_at(loaded.algebra.tau, form, point)


def _euler_at(loaded, tau, T, sigma, point):
    """B^H, B^HF and the Euler characteristics at one point."""
    bh, bhf = map(SymMatrixQ,
                  hy.hessian_forms_at(loaded.spec, tau, T, sigma, point))
    return bh, bhf, euler_characteristics(bh, bhf, loaded.vt.nx)


def tables(loaded, args):
    """`tables` (hypersurfaces): tau and zeta; `ci-tables` adds T and P."""
    if args.command == "tables":
        loaded.spec  # refuses a complete-intersection input
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
    logm = loaded.logm
    return {"mu": loaded.spec.mu,
            "basis": [str(p) for p in loaded.spec.basis.polynomials()],
            "Sigma": _mat(logm.sigma),
            "detSigma": str(logm.discriminant)}


def maxwell(loaded, args):
    spec = loaded.spec
    bif, mx = hy.maxwell_bifurcation(loaded.logm, spec.algebra, spec.u)
    return {"mu": spec.mu, "detT": str(bif), "maxwell": str(mx)}


def traceforms(loaded, args):
    spec = loaded.spec
    tf = hy.trace_forms(spec, spec.algebra, loaded.logm)
    return {"mu": spec.mu, "T": _mat(tf.T), "BH": _mat(tf.BH),
            "BHF": _mat(tf.BHF)}


def euler(loaded, args):
    point, tau, T, sigma = _at_point(loaded, args, True)
    bh, bhf, rep = _euler_at(loaded, tau, T, sigma, point)
    return {"mu": loaded.spec.mu,
            "inertia": {"BH": _triple(inertia(bh)),
                        "BHF": _triple(inertia(bhf))},
            "chi": {"ge": rep.chi_ge, "le": rep.chi_le, "eq": rep.chi_eq,
                    "sign_BH": rep.sign_BH, "sign_BHF": rep.sign_BHF},
            "note": "ball assumed to contain all real critical points"}


def count(loaded, args):
    """`count` (hypersurfaces) takes the signature of Sigma T, `ci-count`
    that of P T."""
    _, _, T, form = _at_point(loaded, args, args.command == "count")
    st = SymMatrixQ(mat_mul(form, T))
    signed = critical_count(st)
    return {"mu": loaded.algebra.mu, "inertia": _triple(inertia(st)),
            "count": signed}


def ci_discriminant(loaded, args):
    algebra = loaded.algebra
    detP, detT = ci_mod.discriminant_and_bifurcation(algebra)
    return {"mu": algebra.mu, "detP": str(detP), "detT": str(detT)}


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
    """The finder runs on F for a hypersurface (with Sigma, and the grid in
    at most two variables), on the maps for a complete intersection (P)."""
    hyper = loaded.kind == "hypersurface"
    point, tau, T, form = _at_point(loaded, args, hyper)
    exact = critical_count(SymMatrixQ(mat_mul(form, T)))
    maps = (loaded.spec.F,) if hyper else loaded.cspec.maps
    rep = find_critical_points(maps[0], point, loaded.algebra.mu,
                               ball_radius=args.ball, constraints=maps[1:])
    oc = {"count": len(rep.points), "signed": rep.signed_count,
          "exact_signature": exact, "agree": rep.signed_count == exact}
    if hyper and loaded.vt.nx <= 2:
        chi = _euler_at(loaded, tau, T, form, point)[2]
        g = grid_euler(maps[0], point, ball_radius=args.ball,
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
        lambda loaded, args: {"mu": loaded.spec.mu,
                              "detSigma": str(loaded.logm.discriminant)},
        lambda o: print(o["detSigma"])),
    "bifurcation": (
        lambda loaded, args: {"mu": loaded.spec.mu,
                              "detT": str(det_bareiss(loaded.spec.algebra.T))},
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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="logdisc",
        description="Exact discriminants, trace forms and Euler "
                    "characteristics for versal deformations.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("input", help="input file")
    ap.add_argument("--params", help="parameter point k=v,... "
                                     "(rationals or exact decimals)")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--ball", type=float, default=10.0,
                    help="ball radius for oracle checks")
    ap.add_argument("--resolution", type=int, default=64,
                    help="starting grid resolution for the grid oracle")
    ap.add_argument("--basis", help="override basis: comma-separated "
                                    "monomials")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    build, show = COMMANDS[args.command]
    try:
        if not (math.isfinite(args.ball) and args.ball > 0):
            raise InputError("--ball must be finite and positive, got %s"
                             % args.ball)
        if args.resolution < 1:
            raise InputError("--resolution must be at least 1, got %d"
                             % args.resolution)
        loaded = LoadedSpec(read_input_file(args.input),
                            basis_override=args.basis)
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
