"""Command-line surface: construct scheme files, analyze them, run one-point
extensions, and check structural properties.

Scheme files are canonical JSON ({"n", "rank", "colors", "metadata"});
serialization is byte-stable, so golden files diff cleanly.  "n" and
"rank" are JSON integers, and "colors" is the matrix in row-major order as
one flat list of n^2 non-negative JSON integers below the rank: no nested
list, sign, fraction, exponent, string or boolean, no leading zero and no
trailing comma.  ``load_scheme`` parses that list straight into the color
type of the rank and raises SchemeFileError on anything else.  Exit codes:
0 ok, 2 invalid input, 3 method preconditions fail, 4 resource caps
exceeded.

Each verb imports the modules it runs when it starts, so a command loads
only those.  It imports modules, not names, so a module attribute replaced
after import (a wrapper or a test double) is the one called.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter

import numpy as np

from . import cc_core
from .errors import (
    ConditionsFail,
    DecompositionUnstable,
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

_CAP_ERRORS = (TooLarge, SearchBudgetExceeded, RankTooLarge, DecompositionUnstable)


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


# a JSON string, or a bracket or brace: what the scan for "colors" steps on
_JSON_TOKENS = re.compile(rb'"(?:[^"\\]|\\.)*"|[][{}]', re.S)
_KEY_OPENS_LIST = re.compile(rb"\s*:\s*\[")
_JSON_SPACE = np.frombuffer(b" \t\n\r", dtype=np.uint8)
SCHEME_PARSE_BYTES = 1 << 15    # bytes of the colors list parsed per step


def _colors_list(data):
    """The bounds of the body of the top-level "colors" list of a scheme
    file, and the file with that body cut out.  The body may hold no string
    or bracket, so the scan steps over it at once."""
    tokens = _JSON_TOKENS.finditer(data)
    depth, span = 0, None
    for token in tokens:
        text = token.group()
        if text in (b"{", b"["):
            depth += 1
        elif text in (b"}", b"]"):
            depth -= 1
        elif depth == 1 and text == b'"colors"' and _KEY_OPENS_LIST.match(data, token.end()):
            if span is not None:
                raise SchemeFileError("duplicate colors key")
            opening, closing = next(tokens), next(tokens, None)
            if closing is None or closing.group() != b"]":
                raise SchemeFileError("colors must be a flat list of non-negative integers")
            span = (opening.end(), closing.start())
    if span is None:
        raise SchemeFileError("no colors list")
    return span, data[:span[0]] + data[span[1]:]


def _parse_ids(data, span, count, dtype, rank):
    """The ids in ``data[span[0]:span[1]]``, the body of a colors list, as
    a flat array of ``dtype``: ``count`` comma-separated JSON integers
    0..rank-1, parsed a bounded chunk at a time."""
    out = np.empty(count, dtype=dtype)
    (lo, size), end = span, 0
    while lo < size:
        hi = size
        if size - lo > SCHEME_PARSE_BYTES:
            # cut after a comma, so that no number is split
            hi = data.rfind(b",", lo, lo + SCHEME_PARSE_BYTES) + 1
            if hi <= lo:
                raise SchemeFileError("colors entry out of range")
        ids = _chunk_ids(data[lo:hi])
        if ids.size and int(ids.max()) >= rank:
            raise SchemeFileError(
                f"file declares rank {rank} but holds id {int(ids.max())}")
        if end + ids.size > count:
            break
        out[end:end + ids.size] = ids
        lo, end = hi, end + ids.size
    if lo < size or end != count:
        raise SchemeFileError(f"colors must hold n^2 = {count} entries")
    return out


def _chunk_ids(chunk):
    """The integers of a piece of a colors list, as int64: JSON integers
    without sign, separated by commas and JSON whitespace.  A trailing
    comma leaves one entry fewer than the commas count, which
    ``_parse_ids`` rejects."""
    raw = np.frombuffer(chunk, dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    comma = raw == ord(",")
    if not (digit | comma | np.isin(raw, _JSON_SPACE)).all():
        raise SchemeFileError("colors must be a flat list of non-negative integers")
    opens = digit.copy()
    opens[1:] &= ~digit[:-1]
    # numbers and commas alternate, from a number on
    is_number = digit[opens | comma]
    if not is_number[::2].all() or is_number[1::2].any():
        raise SchemeFileError("colors must be a flat list of non-negative integers")
    starts = np.flatnonzero(opens)
    ends = np.flatnonzero(digit & ~np.append(digit[1:], False))
    # an id of 19 digits or more is out of any rank, and could overflow int64
    if (ends - starts).max(initial=0) >= 18:
        raise SchemeFileError("colors entry out of range")
    if ((raw[starts] == ord("0")) & (ends > starts)).any():
        raise SchemeFileError("colors entry has a leading zero")
    return np.fromstring(chunk, dtype=np.int64, sep=",")


def load_scheme(path):
    """Read and validate a scheme file; returns (config, metadata).

    The colors list (its grammar is in the module docstring) is parsed
    straight into the color type of the declared rank, a bounded chunk at a
    time, and only once the declared n^2 entries are counted in the file;
    every other part of the file must pass ``json.loads``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        span, rest = _colors_list(data)
        payload = json.loads(rest)
        n, rank = payload["n"], payload["rank"]
        if payload["colors"] != []:
            raise SchemeFileError("duplicate colors key")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    if type(n) is not int or type(rank) is not int or n < 1 or not 1 <= rank <= n * n:
        raise SchemeFileError(
            f"scheme file {path}: n and rank must be integers with "
            "n >= 1 and 1 <= rank <= n^2")
    # one entry per comma, so the matrix is sized by the file, not by n
    if data.count(b",", *span) + 1 != n * n:
        raise SchemeFileError(f"scheme file {path}: colors must hold n^2 = {n * n} entries")
    colors = _parse_ids(data, span, n * n, cc_core._color_dtype(rank), rank).reshape(n, n)
    del data
    # the matrix is ours, so the configuration keeps it without a copy
    cfg = cc_core._validated(colors, canonicalize=False)
    if cfg.rank != rank:
        raise SchemeFileError(
            f"file declares rank {rank} but matrix has {cfg.rank} colors")
    return cfg, payload.get("metadata", {})


def _float12(x):
    return float(f"{x:.12g}")


def _read_int_rows(path):
    """The integer rows of a Cayley table, plane or generator file; '#'
    starts a comment and blank lines are skipped."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append([int(tok) for tok in line.split()])
    return rows


def _load_generators(path):
    """One permutation per line in image notation; '#' starts a comment.
    ``permgroup.group_closure`` checks that they are permutations of one
    degree."""
    return [tuple(row) for row in _read_int_rows(path)]


def _load_plane_lines(path):
    tokens = _read_int_rows(path)
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
    from . import constructors, permgroup
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
        cfg = constructors.regular_scheme(_read_int_rows(args.table))
        meta.update(table=args.table)
    elif family == "group-orbitals":
        gens = _load_generators(args.generators)
        constructors.check_point_cap(len(gens[0]) if gens else args.degree or 0)
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
    from . import spectral
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
        c = cc_core.indistinguishing_numbers(cfg)
        nond = cfg.nondiagonal_colors
        report["indistinguishing"] = {str(s): int(c[s]) for s in nond}
        # the scheme's c, and pseudocyclicity (c(s) = k - 1 off the diagonal)
        report["indistinguishing_number"] = max(
            report["indistinguishing"].values(), default=0)
        report["pseudocyclic_combinatorial"] = (
            k if k is not None and all(c[s] == k - 1 for s in nond) else None)
        dec = spectral.decompose(cfg)
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


def _extension_summary(cfg, args, method, out):
    """One extension of ``args.point`` by ``method``, written to ``out`` when
    given.  Returns (rank, fiber profile, semiregular, canonical colors);
    the configuration is freed on return, so it is not alive while a second
    method runs.  Nothing here reads the extension's tensor, so it is never
    built."""
    from . import extension
    alpha = args.point
    ext = (extension.explicit_extension(cfg, alpha) if method == "explicit"
           else extension.coherent_closure(cfg, {alpha}))
    if out:
        write_scheme(out, ext, {"extension_of": args.path, "point": alpha,
                                "method": method})
    fibers = Counter(len(f) for f in ext.fibers)
    profile = " + ".join(f"{m}x{size}" for size, m in sorted(fibers.items()))
    return (ext.rank, profile, extension.restriction_semiregular(ext, alpha),
            cc_core.canonicalize_colors(ext.colors))


def _extend(args):
    cfg, _ = load_scheme(args.path)
    methods = ("explicit", "closure") if args.method == "both" else (args.method,)
    runs = [_extension_summary(cfg, args, method, args.out if i == 0 else None)
            for i, method in enumerate(methods)]
    rank, fiber_profile, semiregular, _ = runs[0]
    # equal canonical (first-occurrence) colorings are equal partitions
    agree = bool(np.array_equal(runs[0][3], runs[1][3])) if len(runs) == 2 else None
    alpha = args.point
    report = {
        "point": alpha,
        "method": args.method,
        "rank": rank,
        "fibers": fiber_profile,
        "semiregular": semiregular,
        "methods_agree": agree,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"extension at point {alpha} ({args.method}): rank {rank}, "
              f"fibers {fiber_profile}, semiregular: {semiregular}")
        if agree is not None:
            print(f"  methods agree: {agree}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _check(args):
    from . import analysis, permgroup
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
        report["blocks"] = n * len(design.block_sizes)
        text = (f"2-({n},{k},{lam}): {'valid' if design.valid else 'invalid'}; "
                f"{report['blocks']} blocks")
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
    except (SchemeLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
