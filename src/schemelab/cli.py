"""Command-line surface: construct scheme files, analyze them, run one-point
extensions, and check structural properties.

Scheme files are canonical JSON ({"n", "rank", "colors", "metadata"}) with
integer color entries only; serialization is byte-stable, so golden files
diff cleanly.  Exit codes: 0 ok, 2 invalid input, 3 method preconditions
fail, 4 resource caps exceeded.

Environment: SCHEMELAB_SEED overrides the spectral PRNG seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from . import analysis, cc_core, constructors, extension, permgroup, spectral
from .errors import (
    AxiomViolation,
    ConditionsFail,
    DecompositionUnstable,
    GroupTooLarge,
    NotAGroup,
    NotAnAffinePlane,
    OrderDoesNotDivide,
    RankTooLarge,
    SchemeFileError,
    SchemeLabError,
    SearchBudgetExceeded,
    TooLarge,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4

_CAP_ERRORS = (TooLarge, GroupTooLarge, SearchBudgetExceeded, RankTooLarge,
               DecompositionUnstable)


def dump_scheme(cfg, metadata=None):
    """Canonical JSON bytes for a configuration."""
    payload = {
        "n": cfg.n,
        "rank": cfg.rank,
        "colors": cfg.colors.ravel().tolist(),
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_scheme(path, cfg, metadata=None):
    with open(path, "wb") as handle:
        handle.write(dump_scheme(cfg, metadata))


def load_scheme(path):
    """Read and validate a scheme file; returns (config, metadata)."""
    try:
        with open(path, "rb") as handle:
            payload = json.loads(handle.read().decode())
        n = int(payload["n"])
        rank = int(payload["rank"])
        colors = np.array(payload["colors"], dtype=np.int64).reshape(n, n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    cfg = cc_core.validate_config(colors, canonicalize=False)
    if cfg.rank != rank:
        raise SchemeFileError(
            f"file declares rank {rank} but matrix has {cfg.rank} colors")
    return cfg, payload.get("metadata", {})


def _float12(x):
    return float(f"{x:.12g}")


def _load_cayley_table(path):
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append([int(tok) for tok in line.split()])
    return rows


def _load_plane_lines(path):
    with open(path, encoding="utf-8") as handle:
        tokens = []
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append([int(tok) for tok in line.split()])
    if not tokens or len(tokens[0]) != 2:
        raise SchemeFileError("plane file must start with 'n_points n_lines'")
    n_points, n_lines = tokens[0]
    lines = tokens[1:]
    if len(lines) != n_lines:
        raise SchemeFileError(
            f"plane file declares {n_lines} lines but has {len(lines)}")
    return n_points, lines


_REQUIRED_PARAMS = {
    "cyclotomic": ("p", "k_order"),
    "frobenius-example": ("q", "n"),
    "affine": ("dim", "q"),
    "affine-plane": ("lines",),
    "passman": ("q",),
    "hollman": ("q",),
    "regular": ("table",),
    "group-orbitals": ("generators",),
}


def _construct(args):
    family = args.family
    missing = [name for name in _REQUIRED_PARAMS[family]
               if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ValueError(f"family {family} requires {flags}")
    meta = {"family": family}
    if family == "cyclotomic":
        field = constructors.FiniteField(args.p, args.m)
        cfg = constructors.cyclotomic_scheme(field, args.k_order)
        meta.update(p=args.p, m=args.m, k_order=args.k_order)
    elif family == "frobenius-example":
        cfg = constructors.frobenius_example_scheme(args.q, args.n)
        meta.update(q=args.q, n=args.n)
    elif family == "affine":
        cfg = constructors.affine_scheme(args.dim, args.q)
        meta.update(dim=args.dim, q=args.q)
    elif family == "affine-plane":
        n_points, lines = _load_plane_lines(args.lines)
        cfg = constructors.affine_plane_from_lines(n_points, lines)
        meta.update(lines=args.lines)
    elif family == "passman":
        cfg = constructors.passman_scheme(args.q)
        meta.update(q=args.q)
    elif family == "hollman":
        cfg = constructors.hollman_scheme(args.q)
        meta.update(q=args.q)
    elif family == "regular":
        cfg = constructors.regular_scheme(_load_cayley_table(args.table))
        meta.update(table=args.table)
    elif family == "group-orbitals":
        gens = permgroup.load_generators(args.generators)
        G = permgroup.group_closure(gens, n=args.degree)
        cfg = permgroup.orbital_scheme(G)
        meta.update(generators=args.generators)
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family}")
    write_scheme(args.out, cfg, meta)
    vals = sorted(set(int(v) for v in cfg.valencies))
    print(f"wrote {args.out}: degree {cfg.n}, rank {cfg.rank}, "
          f"valencies {vals}")
    return EXIT_OK


def _analyze(args):
    cfg, meta = load_scheme(args.path)
    report = {
        "degree": cfg.n,
        "rank": cfg.rank,
        "metadata": meta,
        "valencies": [int(v) for v in cfg.valencies],
        "symmetric": cc_core.is_symmetric(cfg),
        "commutative": cc_core.is_commutative(cfg),
        "scheme": cfg.is_scheme,
    }
    if cfg.is_scheme:
        k = cc_core.is_equivalenced(cfg)
        report["equivalenced_valency"] = k
        report["indistinguishing"] = {
            str(s): cc_core.indistinguishing_number(cfg, s)
            for s in cfg.nondiagonal_colors}
        report["indistinguishing_number"] = cc_core.scheme_indistinguishing_number(cfg)
        kc = cc_core.is_pseudocyclic_combinatorial(cfg)
        report["pseudocyclic_combinatorial"] = kc
        dec = spectral.decompose(cfg, seed=args.seed)
        ks = spectral.is_pseudocyclic_spectral(cfg, dec)
        report["blocks"] = [list(b.pair) for b in dec.blocks]
        report["pseudocyclic_spectral"] = None if ks is None else \
            (int(ks) if ks.denominator == 1 else str(ks))
        frame = spectral.frame_number(cfg, dec)
        report["frame_number"] = int(frame) if frame.denominator == 1 else str(frame)
        report["afm_residual"] = _float12(spectral.verify_afm_identity(cfg, dec))
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        kind = "scheme" if cfg.is_scheme else "coherent configuration"
        print(f"{args.path}: {kind}, degree {report['degree']}, rank {report['rank']}")
        print(f"  valencies: {sorted(set(report['valencies']))}")
        print(f"  symmetric: {report['symmetric']}, commutative: {report['commutative']}")
        if cfg.is_scheme:
            print(f"  equivalenced: k={report['equivalenced_valency']}")
            print(f"  c(s) per non-diagonal color: {report['indistinguishing']}")
            print(f"  indistinguishing number: {report['indistinguishing_number']}")
            print(f"  pseudocyclic (combinatorial): {report['pseudocyclic_combinatorial']}")
            print(f"  pseudocyclic (spectral m_P/n_P): {report['pseudocyclic_spectral']}")
            print(f"  spectral blocks (m_P, n_P): {report['blocks']}")
            print(f"  Frame number: {report['frame_number']}")
            print(f"  adjacency-algebra identity residual: {report['afm_residual']:.3e}")
    return EXIT_OK


def _extend(args):
    cfg, _ = load_scheme(args.path)
    alpha = args.point
    results = {}
    if args.method in ("explicit", "both"):
        results["explicit"] = extension.explicit_extension(cfg, alpha)
    if args.method in ("closure", "both"):
        closure_cfg = extension.coherent_closure(cfg, {alpha})
        results["closure"] = extension.ExtensionResult(
            config=closure_cfg,
            method="closure",
            point=alpha,
            semiregular=extension.restriction_semiregular(closure_cfg, alpha),
            fiber_points={},
            relation_block=())
    primary = results.get("explicit") or results["closure"]
    fibers = sorted(len(f) for f in primary.config.fibers)
    fiber_profile = " + ".join(f"{m}x{size}" for size, m in
                               sorted(Counter(fibers).items()))
    agree = None
    if args.method == "both":
        agree = cc_core.same_partition(results["explicit"].config,
                                       results["closure"].config)
    report = {
        "point": alpha,
        "method": args.method,
        "rank": primary.config.rank,
        "fibers": fiber_profile,
        "semiregular": primary.semiregular,
        "methods_agree": agree,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"extension at point {alpha} ({args.method}): rank {report['rank']}, "
              f"fibers {fiber_profile}, semiregular: {report['semiregular']}")
        if agree is not None:
            print(f"  methods agree: {agree}")
    if args.out:
        write_scheme(args.out, primary.config,
                     {"extension_of": args.path, "point": alpha,
                      "method": primary.method})
        print(f"wrote {args.out}")
    return EXIT_OK


def _check(args):
    cfg, _ = load_scheme(args.path)
    prop = args.property
    report = {"property": prop}
    if prop == "schurian":
        report["schurian"] = analysis.is_schurian(cfg)
        text = f"schurian: {'yes' if report['schurian'] else 'no'}"
    elif prop == "separable":
        report["separable_self_target"] = analysis.is_separable_desk(cfg)
        report["scope"] = "self-target, desk scale"
        text = (f"separable (self-target, desk scale): "
                f"{'yes' if report['separable_self_target'] else 'no'}")
    elif prop == "frobenius-aut":
        G = permgroup.automorphism_group(cfg)
        report["aut_order"] = G.order
        report["frobenius"] = permgroup.is_frobenius(G)
        text = (f"Aut order {G.order}; Frobenius: "
                f"{'yes' if report['frobenius'] else 'no'}")
    elif prop == "t-condition":
        verdicts = analysis.t_condition(cfg, args.t)
        report["t"] = args.t
        report["per_relation"] = {str(s): bool(v) for s, v in verdicts.items()}
        report["all"] = all(verdicts.values())
        rows = "\n".join(f"  relation {s}: {'pass' if v else 'FAIL'}"
                         for s, v in verdicts.items())
        text = f"{args.t}-condition: {'pass' if report['all'] else 'FAIL'}\n{rows}"
    elif prop == "affine":
        report["affine"] = analysis.recognize_affine(cfg)
        text = f"affine-space scheme: {'yes' if report['affine'] else 'no'}"
    elif prop == "design":
        design = analysis.design_from_scheme(cfg)
        n, k, lam = design.params
        report["params"] = [n, k, lam]
        report["valid"] = design.valid
        report["blocks"] = len(design.blocks)
        text = (f"2-({n},{k},{lam}): {'valid' if design.valid else 'invalid'}; "
                f"{len(design.blocks)} blocks")
    else:  # pragma: no cover
        raise ValueError(f"unknown property {prop}")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schemelab",
        description="coherent configurations and association schemes at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a scheme and write it as JSON")
    c.add_argument("family", choices=[
        "cyclotomic", "frobenius-example", "affine", "affine-plane",
        "passman", "hollman", "regular", "group-orbitals"])
    c.add_argument("--p", type=int, help="field characteristic (cyclotomic)")
    c.add_argument("--m", type=int, default=1, help="field extension degree")
    c.add_argument("--k-order", type=int, help="multiplicative subgroup order")
    c.add_argument("--q", type=int, help="prime power parameter")
    c.add_argument("--n", type=int, help="odd exponent (frobenius-example)")
    c.add_argument("--dim", type=int, help="affine dimension")
    c.add_argument("--lines", help="affine-plane line file")
    c.add_argument("--table", help="Cayley table file (regular)")
    c.add_argument("--generators", help="permutation generator file")
    c.add_argument("--degree", type=int, help="degree for empty generator lists")
    c.add_argument("-o", "--out", required=True)
    c.set_defaults(func=_construct)

    a = sub.add_parser("analyze", help="validate and report scheme invariants")
    a.add_argument("path")
    a.add_argument("--json", action="store_true")
    a.add_argument("--seed", type=int, default=None,
                   help="spectral PRNG seed (default fixed; SCHEMELAB_SEED overrides)")
    a.set_defaults(func=_analyze)

    e = sub.add_parser("extend", help="one-point extension")
    e.add_argument("path")
    e.add_argument("--point", type=int, required=True)
    e.add_argument("--method", choices=["explicit", "closure", "both"],
                   default="both")
    e.add_argument("-o", "--out")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=_extend)

    k = sub.add_parser("check", help="structural property checks")
    k.add_argument("path")
    k.add_argument("property", choices=[
        "schurian", "separable", "frobenius-aut", "t-condition", "affine",
        "design"])
    k.add_argument("--t", type=int, default=4, help="t for the t-condition")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConditionsFail as exc:
        print(f"error: {exc}; use --method closure", file=sys.stderr)
        return EXIT_PRECONDITION
    except _CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AxiomViolation, SchemeFileError, NotAnAffinePlane, NotAGroup,
            OrderDoesNotDivide, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SchemeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
