"""Command-line front end: input-file parsing, command dispatch, text and
JSON output."""

from __future__ import annotations

import argparse
import json
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
from .poly import Polynomial, VarTable

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2


class InputError(ValueError):
    pass


def _parse_list(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError("expected a bracketed list, got %r" % text)
    items = []
    for part in text[1:-1].split(","):
        part = part.strip()
        if part.startswith('"') and part.endswith('"') and len(part) >= 2:
            part = part[1:-1]
        if part:
            items.append(part)
    return items


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


def _basis_strings(qb):
    return [str(p) for p in qb.polynomials()]


def _emit(out, args, text_fn):
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        text_fn(out)


def _print_matrix(name, rows):
    print("%s:" % name)
    for row in rows:
        print("  [" + ", ".join(row) + "]")


def _at_point(loaded, args, use_sigma):
    """The --params point, and tau, T and Sigma (use_sigma) or P there. The
    algebra and the form are built before the point is read."""
    form = loaded.logm.sigma if use_sigma else loaded.algebra.P
    point = parse_param_point(args.params or "", loaded.vt)
    return (point,) + hy.forms_at(loaded.algebra.tau, form, point)


def cmd_tables(loaded, args):
    tables = loaded.spec.algebra
    out = {"mu": tables.mu,
           "basis": _basis_strings(tables.phi),
           "tau": [_mat(t) for t in tables.tau],
           "zeta": [str(z) for z in tables.zeta]}

    def text(o):
        print("mu = %d" % o["mu"])
        print("basis = " + ", ".join(o["basis"]))
        for r, t in enumerate(o["tau"], start=1):
            _print_matrix("tau^%d" % r, t)
        print("zeta = " + ", ".join(o["zeta"]))
    _emit(out, args, text)
    return EXIT_OK


def cmd_logfields(loaded, args):
    logm = loaded.logm
    out = {"mu": loaded.spec.mu,
           "basis": _basis_strings(loaded.spec.basis),
           "Sigma": _mat(logm.sigma),
           "detSigma": str(logm.discriminant)}

    def text(o):
        _print_matrix("Sigma", o["Sigma"])
        print("det Sigma = " + o["detSigma"])
    _emit(out, args, text)
    return EXIT_OK


def cmd_discriminant(loaded, args):
    out = {"mu": loaded.spec.mu, "detSigma": str(loaded.logm.discriminant)}
    _emit(out, args, lambda o: print(o["detSigma"]))
    return EXIT_OK


def cmd_bifurcation(loaded, args):
    spec = loaded.spec
    out = {"mu": spec.mu, "detT": str(det_bareiss(spec.algebra.T))}
    _emit(out, args, lambda o: print(o["detT"]))
    return EXIT_OK


def cmd_maxwell(loaded, args):
    spec = loaded.spec
    bif, maxwell = hy.maxwell_bifurcation(loaded.logm, spec.algebra, spec.u)
    out = {"mu": spec.mu, "detT": str(bif), "maxwell": str(maxwell)}

    def text(o):
        print("det T = " + o["detT"])
        print("maxwell candidate = " + o["maxwell"])
    _emit(out, args, text)
    return EXIT_OK


def cmd_traceforms(loaded, args):
    spec = loaded.spec
    tf = hy.trace_forms(spec, spec.algebra, loaded.logm)
    out = {"mu": spec.mu,
           "T": _mat(tf.T),
           "BH": _mat(tf.BH),
           "BHF": _mat(tf.BHF)}

    def text(o):
        _print_matrix("T", o["T"])
        _print_matrix("BH", o["BH"])
        _print_matrix("BHF", o["BHF"])
    _emit(out, args, text)
    return EXIT_OK


def cmd_euler(loaded, args):
    spec = loaded.spec
    point, tau, T, sigma = _at_point(loaded, args, True)
    bh, bhf = map(SymMatrixQ,
                  hy.hessian_forms_at(spec, tau, T, sigma, point))
    rep = euler_characteristics(bh, bhf, spec.vt.nx)
    out = {"mu": spec.mu,
           "inertia": {"BH": _triple(inertia(bh)), "BHF": _triple(inertia(bhf))},
           "chi": {"ge": rep.chi_ge, "le": rep.chi_le, "eq": rep.chi_eq,
                   "sign_BH": rep.sign_BH, "sign_BHF": rep.sign_BHF},
           "note": "ball assumed to contain all real critical points"}

    def text(o):
        c = o["chi"]
        print("chi(F>=0) = %d, chi(F<=0) = %d, chi(F=0) = %d"
              % (c["ge"], c["le"], c["eq"]))
        print("sign BH = %d, sign BHF = %d" % (c["sign_BH"], c["sign_BHF"]))
    _emit(out, args, text)
    return EXIT_OK


def _triple(tri):
    return {"n_plus": tri.n_plus, "n_minus": tri.n_minus, "n_zero": tri.n_zero}


def cmd_count(loaded, args):
    """`count` (hypersurfaces) takes the signature of Sigma T, `ci-count`
    that of P T."""
    _, _, T, form = _at_point(loaded, args, args.command == "count")
    st = SymMatrixQ(mat_mul(form, T))
    signed = critical_count(st)
    out = {"mu": loaded.algebra.mu, "inertia": _triple(inertia(st)),
           "count": signed}
    _emit(out, args,
          lambda o: print("signed critical point count = %d" % o["count"]))
    return EXIT_OK


def cmd_ci_tables(loaded, args):
    tables = loaded.algebra
    out = {"mu": tables.mu,
           "basis": _basis_strings(tables.phi),
           "tau": [_mat(t) for t in tables.tau],
           "zeta": [str(z) for z in tables.zeta],
           "T": _mat(tables.T),
           "P": _mat(tables.P)}

    def text(o):
        print("mu = %d" % o["mu"])
        print("basis = " + ", ".join(o["basis"]))
        _print_matrix("P", o["P"])
        _print_matrix("T", o["T"])
    _emit(out, args, text)
    return EXIT_OK


def cmd_ci_discriminant(loaded, args):
    tables = loaded.algebra
    detP, detT = ci_mod.discriminant_and_bifurcation(tables)
    out = {"mu": tables.mu, "detP": str(detP), "detT": str(detT)}

    def text(o):
        print("det P = " + o["detP"])
        print("det T = " + o["detT"])
    _emit(out, args, text)
    return EXIT_OK


def cmd_gm(loaded, args):
    tables = loaded.algebra
    cspec = loaded.cspec
    ws = ci_mod.ci_weights(cspec)
    gm = ci_mod.gm_coefficients(cspec, tables, ws)
    out = {"mu": tables.mu,
           "gm": {"trM0": gm.trM0,
                  "x_weights": list(ws.x_weights),
                  "f_weights": list(ws.f_weights),
                  "B": [_mat(b) for b in gm.B]}}

    def text(o):
        print("tr M0 = %d" % o["gm"]["trM0"])
        for j, b in enumerate(o["gm"]["B"]):
            _print_matrix("B_%d" % j, b)
    _emit(out, args, text)
    return EXIT_OK


def cmd_oracle_check(loaded, args):
    """The finder runs on F for a hypersurface (with Sigma, and the grid in
    at most two variables), on the maps for a complete intersection (P)."""
    hyper = loaded.kind == "hypersurface"
    point, tau, T, form = _at_point(loaded, args, hyper)
    exact = critical_count(SymMatrixQ(mat_mul(form, T)))
    maps = (loaded.spec.F,) if hyper else loaded.cspec.maps
    rep = find_critical_points(maps[0], point, loaded.algebra.mu,
                               ball_radius=args.ball, constraints=maps[1:])
    out = {"mu": loaded.algebra.mu,
           "oracle": {"count": len(rep.points),
                      "signed": rep.signed_count,
                      "exact_signature": exact,
                      "agree": rep.signed_count == exact}}
    if hyper and loaded.vt.nx <= 2:
        bh, bhf = map(SymMatrixQ,
                      hy.hessian_forms_at(loaded.spec, tau, T, form, point))
        chi = euler_characteristics(bh, bhf, loaded.vt.nx)
        g = grid_euler(maps[0], point, ball_radius=args.ball,
                       resolution=args.resolution)
        out["oracle"]["grid"] = {
            "resolution": g.resolution, "stable": g.stable,
            "chi_ge": g.chi_ge, "chi_le": g.chi_le, "chi_eq": g.chi_eq}
        out["oracle"]["chi_agree"] = (
            g.stable and (g.chi_ge, g.chi_le, g.chi_eq)
            == (chi.chi_ge, chi.chi_le, chi.chi_eq))

    def text(o):
        oc = o["oracle"]
        print("numeric signed count = %d, exact signature = %d, agree = %s"
              % (oc["signed"], oc["exact_signature"], oc["agree"]))
        if "grid" in oc:
            g = oc["grid"]
            print("grid chi = (%d, %d, %d) stable=%s, agree = %s"
                  % (g["chi_ge"], g["chi_le"], g["chi_eq"], g["stable"],
                     oc["chi_agree"]))
    _emit(out, args, text)
    return EXIT_OK


COMMANDS = {
    "tables": cmd_tables,
    "logfields": cmd_logfields,
    "discriminant": cmd_discriminant,
    "bifurcation": cmd_bifurcation,
    "maxwell": cmd_maxwell,
    "traceforms": cmd_traceforms,
    "euler": cmd_euler,
    "count": cmd_count,
    "ci-tables": cmd_ci_tables,
    "ci-discriminant": cmd_ci_discriminant,
    "ci-count": cmd_count,
    "gm": cmd_gm,
    "oracle-check": cmd_oracle_check,
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
    try:
        fields = read_input_file(args.input)
        loaded = LoadedSpec(fields, basis_override=args.basis)
        return COMMANDS[args.command](loaded, args)
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
