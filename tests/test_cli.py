"""CLI construction, analysis, extension, checks, exit codes, golden files."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import schemelab
from schemelab import analysis, cc_core, cli, constructors, permgroup
from schemelab.errors import SchemeFileError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c67_file(tmp_path, capsys):
    path = tmp_path / "c67.json"
    code, _, _ = run(capsys, "construct", "cyclotomic", "--p", "67",
                     "--k-order", "2", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture()
def ag23_file(tmp_path, capsys):
    path = tmp_path / "ag23.json"
    assert run(capsys, "construct", "affine", "--dim", "2", "--q", "3",
               "-o", str(path))[0] == 0
    return path


def test_construct_families(tmp_path, capsys):
    cases = [
        (["frobenius-example", "--q", "2", "--n", "3"], (64, 10)),
        (["cyclotomic", "--p", "13", "--k-order", "3"], (13, 5)),
        (["affine", "--dim", "3", "--q", "3"], (27, 14)),
        (["passman", "--q", "3"], (9, 3)),
        (["hollman", "--q", "8"], (28, 4)),
    ]
    for argv, (n, rank) in cases:
        out = tmp_path / ("x".join(argv[:1]) + ".json")
        code, stdout, _ = run(capsys, "construct", *argv, "-o", str(out))
        assert code == 0
        cfg, meta = cli.load_scheme(out)
        assert (cfg.n, cfg.rank) == (n, rank)
        assert meta["family"] == argv[0]


def test_construct_regular_and_orbitals(tmp_path, capsys):
    table = tmp_path / "z3.txt"
    table.write_text("0 1 2\n1 2 0\n2 0 1\n")
    out = tmp_path / "z3.json"
    assert run(capsys, "construct", "regular", "--table", str(table),
               "-o", str(out))[0] == 0
    cfg, _ = cli.load_scheme(out)
    assert cfg.rank == 3
    gens = tmp_path / "gens.txt"
    gens.write_text("1 2 3 0\n0 3 2 1\n")
    out2 = tmp_path / "dih.json"
    assert run(capsys, "construct", "group-orbitals", "--generators",
               str(gens), "-o", str(out2))[0] == 0
    cfg2, _ = cli.load_scheme(out2)
    assert cfg2.rank == 3


def test_generator_file(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("# rotation\n1 2 0\n\n0 2 1  # swap\n")
    gens = cli._load_generators(path)
    assert gens == [(1, 2, 0), (0, 2, 1)]
    assert permgroup.group_closure(gens).order == 6
    # the file is read here and validated once, by group_closure
    out = tmp_path / "bad.json"
    for text, message in (("0 0 1\n", "not a permutation of 0..2: (0, 0, 1)"),
                          ("1 0\n0 2 1\n", "generators have unequal degrees"),
                          ("0 x 1\n", "invalid literal for int()")):
        path.write_text(text)
        code, stdout, err = run(capsys, "construct", "group-orbitals",
                                "--generators", str(path), "-o", str(out))
        assert (code, stdout) == (2, ""), text
        assert message in err, text
    assert not out.exists()


def _make_group_generators():
    path = Path(__file__).parent / "data" / "make_group_generators.py"
    spec = importlib.util.spec_from_file_location("make_group_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_group_orbitals_at_the_point_cap(tmp_path, capsys):
    # 499 is the largest prime inside the 500-point cap
    make = _make_group_generators()
    start = time.perf_counter()
    for family, order, rank in (("agl1", 499 * 498, 2), ("cyclic", 499, 499)):
        gens = tmp_path / f"{family}.txt"
        gens.write_text(make.generator_text(family, 499))
        out = tmp_path / f"{family}.json"
        code, _, err = run(capsys, "construct", "group-orbitals",
                           "--generators", str(gens), "-o", str(out))
        assert (code, err) == (0, ""), family
        cfg, _ = cli.load_scheme(out)
        assert (cfg.n, cfg.rank) == (499, rank), family
        G = permgroup.group_closure(cli._load_generators(gens))
        assert G.order == order and G.orbits() == [tuple(range(499))], family
    assert time.perf_counter() - start < 30.0


def test_construct_builds_a_stabilizer_chain_only_to_read_it(
        tmp_path, capsys, monkeypatch):
    # orbital schemes read only the generators: a Schreier-Sims chain that
    # no one read took 81 s of construct group-orbitals on K2 wr K100
    # (200 points, a base of 100), in 0.32 s without it
    schreier_sims, degrees = permgroup._schreier_sims, []

    def counted(*args):
        degrees.append(args[0])
        return schreier_sims(*args)

    monkeypatch.setattr(permgroup, "_schreier_sims", counted)
    gens = tmp_path / "wreath.txt"
    gens.write_text(_make_group_generators().generator_text("wreath", 2, 100))
    out = tmp_path / "wreath.json"
    start = time.perf_counter()
    code, _, err = run(capsys, "construct", "group-orbitals",
                       "--generators", str(gens), "-o", str(out))
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    cfg, _ = cli.load_scheme(out)
    assert (cfg.n, cfg.rank, cfg.valencies.tolist()) == (200, 3, [1, 1, 198])
    for argv in (["passman", "--q", "5"], ["hollman", "--q", "8"]):
        code, _, err = run(capsys, "construct", *argv, "-o", str(out))
        assert (code, err) == (0, ""), argv
    assert degrees == []
    # the Frobenius family checks its group order, which reads the chain
    code, _, err = run(capsys, "construct", "frobenius-example", "--q", "2",
                       "--n", "3", "-o", str(out))
    assert (code, err, degrees) == (0, "", [64])


def test_construct_affine_plane(tmp_path, capsys):
    lines = []
    for m in range(3):
        for c in range(3):
            lines.append([3 * ((m * x + c) % 3) + x for x in range(3)])
    for c in range(3):
        lines.append([3 * y + c for y in range(3)])
    plane = tmp_path / "plane.txt"
    plane.write_text("9 12\n" + "\n".join(" ".join(map(str, l)) for l in lines))
    out = tmp_path / "plane.json"
    assert run(capsys, "construct", "affine-plane", "--lines", str(plane),
               "-o", str(out))[0] == 0
    cfg, _ = cli.load_scheme(out)
    assert (cfg.n, cfg.rank) == (9, 5)


def test_roundtrip_byte_identical(c67_file):
    raw = c67_file.read_bytes()
    cfg, meta = cli.load_scheme(c67_file)
    assert cli.dump_scheme(cfg, meta) == raw


def test_golden_determinism_across_runs(tmp_path, capsys):
    paths = []
    for i in range(3):
        p = tmp_path / f"g{i}.json"
        assert run(capsys, "construct", "cyclotomic",
                   "--p", "13", "--k-order", "3", "-o", str(p))[0] == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_cli_and_closure_leave_heavy_modules_unimported(c67_file):
    # hashlib, thread pools, numpy.random and numpy.ma (which np.unique
    # imports) each add to the RSS of every command; none is needed to load
    # the CLI, to run a WL closure, to build an explicit extension, to
    # decompose the adjacency algebra, or to run extend or analyze
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "import schemelab.cli\n"
        "from schemelab import constructors, extension, spectral\n"
        "cfg = constructors.frobenius_example_scheme(2, 3)\n"
        "extension.coherent_closure(cfg, {0})\n"
        "c67 = constructors.cyclotomic_scheme(constructors.FiniteField(67), 2)\n"
        "extension.explicit_extension(c67, 0)\n"
        "spectral.decompose(c67)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['extend', sys.argv[1], '--point', '0', '--method', 'both'],\n"
        "                 ['analyze', sys.argv[1], '--json']):\n"
        "        assert schemelab.cli.main(argv) == 0\n"
        "print(*[m for m in ('hashlib', 'concurrent.futures', 'numpy.random', 'numpy.ma')\n"
        "        if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(c67_file)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []


def test_checks_leave_numpy_ma_unimported(c67_file):
    # np.unique imports numpy.ma unless it is asked for indices; these three
    # checks need neither
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "from schemelab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    for prop in ("design", "t-condition", "schurian"):
        out = subprocess.run([sys.executable, "-c", code, "check", str(c67_file), prop],
                             env=env, check=True, capture_output=True, text=True).stdout
        assert out.split() == ["False"], prop


def test_each_command_loads_only_its_verbs_modules(c67_file, tmp_path):
    # importing all seven modules cost every command about 42 ms of start-up
    # when no bytecode cache is written, whatever its verb ran
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, json, sys\n"
        "from schemelab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.partition('.')[0] == 'schemelab')]))\n")
    base = {"schemelab", "schemelab.cli", "schemelab.errors", "schemelab.cc_core"}
    cases = [
        (["construct", "cyclotomic", "--p", "13", "--k-order", "3",
          "-o", str(tmp_path / "c13k3.json")], {"constructors", "permgroup"}),
        (["analyze", str(c67_file), "--json"], {"spectral"}),
        (["extend", str(c67_file), "--point", "0", "--method", "both"], {"extension"}),
    ] + [(["check", str(c67_file), prop], {"analysis", "permgroup"})
         for prop in ("design", "schurian", "frobenius-aut")]
    env = dict(os.environ, PYTHONPATH=src)
    for argv, verb_modules in cases:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             check=True, capture_output=True, text=True).stdout
        exit_code, loaded = json.loads(out)
        assert exit_code == 0, argv
        assert set(loaded) == base | {"schemelab." + m for m in verb_modules}, argv


# The names the package bound eagerly before it resolved them on first access
PUBLIC_NAMES = {
    "cc_core": (
        "CoherentConfig", "IntersectionTensor", "canonicalize_colors",
        "complex_product", "indistinguishing_number", "indistinguishing_numbers",
        "is_commutative", "is_equivalenced", "is_pseudocyclic_combinatorial",
        "is_symmetric", "partition_bijection", "reg_number", "reg_numbers",
        "same_partition", "scheme_indistinguishing_number", "validate_config"),
    "permgroup": (
        "PermutationGroup", "automorphism_group", "group_closure", "is_frobenius",
        "orbital_scheme", "point_stabilizer_orbits"),
    "constructors": (
        "FiniteField", "affine_plane_from_lines", "affine_scheme",
        "cyclotomic_scheme", "frobenius_example_scheme", "hollman_scheme",
        "passman_scheme", "regular_scheme"),
    "spectral": (
        "SpectralDecomposition", "decompose", "frame_number",
        "is_pseudocyclic_spectral", "terwilliger_dimension", "verify_afm_identity"),
    "extension": (
        "check_pair_condition", "check_triple_condition", "coherent_closure",
        "explicit_extension", "is_semiregular", "point_partition",
        "semiregularity_report", "splitting_set"),
    "analysis": (
        "ColorBijection", "Design", "algebraic_automorphism_group",
        "algebraic_fusion", "algebraic_isomorphism", "design_from_scheme",
        "extend_algebraic_iso", "fuse", "is_schurian", "is_separable_desk",
        "recognize_affine", "t_condition"),
}


def test_package_names_resolve_to_their_modules():
    listed = dir(schemelab)
    assert {"errors", "__version__", *PUBLIC_NAMES} <= set(listed)
    for module, names in PUBLIC_NAMES.items():
        mod = importlib.import_module("schemelab." + module)
        assert getattr(schemelab, module) is mod
        for name in names:
            scope = {}
            exec(f"from schemelab import {name}", scope)
            assert scope[name] is getattr(mod, name), name
            assert name in listed, name
    with pytest.raises(AttributeError):
        schemelab.no_such_name
    with pytest.raises(ImportError):
        exec("from schemelab import no_such_name", {})


def test_analyze_human_and_json(c67_file, capsys):
    code, out, _ = run(capsys, "analyze", str(c67_file))
    assert code == 0
    assert "degree 67" in out and "pseudocyclic" in out
    code, out, _ = run(capsys, "analyze", str(c67_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 67 and report["rank"] == 34
    assert report["pseudocyclic_combinatorial"] == 2
    assert report["pseudocyclic_spectral"] == 2
    assert report["afm_residual"] < 1e-6


def test_analyze_rejects_corrupted_file(tmp_path, capsys, c67_file):
    payload = json.loads(c67_file.read_text())
    payload["colors"][1] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err


def test_extend_never_builds_an_extension_tensor(c67_file, capsys, monkeypatch):
    # rank, fibers, semiregularity and agreement need no intersection
    # numbers of the extension; the explicit method reads only the support
    # of the base's tensor, whose signature matrix is built once
    read, built = [], []
    signatures, make = cc_core._reference_signatures, cc_core.IntersectionTensor

    def spy(cfg):
        read.append(cfg.rank)
        return signatures(cfg)

    monkeypatch.setattr(cc_core, "_reference_signatures", spy)
    monkeypatch.setattr(cc_core, "IntersectionTensor",
                        lambda ref: built.append(ref.shape[0]) or make(ref))
    code, out, _ = run(capsys, "extend", str(c67_file), "--point", "0",
                       "--method", "both", "--json")
    assert code == 0 and json.loads(out)["rank"] == 2245
    assert read == [34]
    assert built == [34]


def test_extend_peak_memory_stays_below_the_extension_tensor(tmp_path, capsys):
    # c151k3 and c199k3 at point 0: ranks 7601 and 13 201, whose tensors
    # alone take 17.5 and 40.1 MiB.  Building them peaked at about 25 MiB
    # for c151k3; holding every (rank, n) reference of the S3 pass at 8.2
    # and 14.5 MiB; one fiber's at a time at 2.3 and 3.9 MiB; narrow
    # colors, chunked condition checks and no base tensor at 1.1 and 1.9 MiB
    for p, bound_mib in ((151, 1.5), (199, 2.5)):
        path = tmp_path / f"c{p}k3.json"
        assert run(capsys, "construct", "cyclotomic", "--p", str(p), "--k-order", "3",
                   "-o", str(path))[0] == 0
        code, peak = oracles.traced_peak(cli.main, ["extend", str(path), "--point", "0",
                                                    "--method", "both", "--json"])
        assert code == 0 and json.loads(capsys.readouterr().out)["methods_agree"]
        assert peak <= bound_mib * 2**20


def test_load_scheme_validates_the_parsed_matrix_in_place(tmp_path, capsys):
    # c499k6: a second int64 copy of the 499 x 499 matrix took the peak
    # from 3.9 to 5.8 MiB; the list parsed straight into uint8 takes it
    # from 3.9 to 2.8 MiB
    path = tmp_path / "c499k6.json"
    assert run(capsys, "construct", "cyclotomic", "--p", "499", "--k-order", "6",
               "-o", str(path))[0] == 0
    (cfg, _), peak = oracles.traced_peak(cli.load_scheme, path)
    assert cfg.rank == 84 and not cfg.colors.flags.writeable
    assert cfg.colors.dtype == np.uint8
    assert peak <= 3.5 * 2**20


def test_check_design_never_builds_the_blocks(tmp_path, capsys, monkeypatch):
    # c499k6: the n x (n - 1) blocks and the argsort they were cut from
    # took the peak from 4.1 to 6.1 MiB, and the command prints only counts;
    # narrow colors from the file on take it from 3.9 to 2.9 MiB
    path = tmp_path / "c499k6.json"
    assert run(capsys, "construct", "cyclotomic", "--p", "499", "--k-order", "6",
               "-o", str(path))[0] == 0
    built = []
    monkeypatch.setattr(analysis, "_design_blocks", built.append)
    code, peak = oracles.traced_peak(cli.main, ["check", str(path), "design", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["valid"] and report["blocks"] == 41417
    assert built == []
    assert peak <= 3.5 * 2**20


def test_extend_both_methods(c67_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    code, stdout, _ = run(capsys, "extend", str(c67_file), "--point", "0",
                          "--method", "both", "-o", str(out))
    assert code == 0
    assert "methods agree: True" in stdout
    assert "1x1 + 33x2" in stdout
    assert "semiregular: True" in stdout
    ext_cfg, meta = cli.load_scheme(out)
    assert ext_cfg.rank == 2245


def test_extend_explicit_precondition_exit(ag23_file, capsys):
    code, _, err = run(capsys, "extend", str(ag23_file), "--point", "0",
                       "--method", "explicit")
    assert code == 3
    assert "closure" in err


def test_extend_closure_fallback(ag23_file, capsys):
    code, out, _ = run(capsys, "extend", str(ag23_file), "--point", "0",
                       "--method", "closure")
    assert code == 0


def test_check_properties(c67_file, ag23_file, tmp_path, capsys):
    code, out, _ = run(capsys, "check", str(c67_file), "frobenius-aut")
    assert code == 0 and "Aut order 134" in out and "Frobenius: yes" in out
    code, out, _ = run(capsys, "check", str(ag23_file), "t-condition", "--t", "4")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "check", str(ag23_file), "design", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["params"] == [9, 2, 1] and report["valid"]
    code, out, _ = run(capsys, "check", str(ag23_file), "schurian")
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "check", str(ag23_file), "separable")
    assert code == 0 and "self-target" in out
    c13 = tmp_path / "c13.json"
    run(capsys, "construct", "cyclotomic", "--p", "13", "--k-order", "3",
        "-o", str(c13))
    code, out, _ = run(capsys, "check", str(c13), "design")
    assert code == 0 and "2-(13,3,2): valid; 52 blocks" in out
    code, out, _ = run(capsys, "check", str(c13), "affine")
    assert code == 0 and "no" in out


def test_check_separable_at_rank_67(tmp_path, capsys):
    # c199k3 is inside the rank cap of the algebraic automorphism search
    c199 = tmp_path / "c199k3.json"
    run(capsys, "construct", "cyclotomic", "--p", "199", "--k-order", "3",
        "-o", str(c199))
    code, out, _ = run(capsys, "check", str(c199), "separable", "--json")
    assert code == 0
    assert json.loads(out)["separable_self_target"] is True


def test_cap_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "hollman", "--q", "32",
                       "-o", str(tmp_path / "h.json"))
    assert code == 4


def test_invalid_parameter_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "cyclotomic", "--p", "13",
                       "--k-order", "5", "-o", str(tmp_path / "x.json"))
    assert code == 2


# a 2-point file: K_2 is n = 2, rank 2, colors [0, 1, 1, 0]
K2_FILE = '{"colors":[%s],"metadata":{},"n":%s,"rank":%s}'


@pytest.mark.parametrize("colors, n, rank", [
    ("0,1.7,1,0", "2", "2"),            # a fraction was truncated to 1
    ("0,true,true,0", "2", "2"),        # booleans were read as 1
    ('0,"1","1",0', "2", "2"),          # so were strings
    ("0,1,1,0", "2.9", "2"),            # n and rank were truncated
    ("0,1,1,0", '"2"', "2"),
    ("0,1,1,0", "2", "2.9"),
    ("0,1,1,0", "2", '"2"'),
    (f"0,{2**64 + 1},1,0", "2", "2"),   # an uncaught OverflowError
    ("0,01,1,0", "2", "2"),             # JSON has no leading zeros,
    ("0,+1,1,0", "2", "2"),             # no plus sign,
    ("0,1,1,0,", "2", "2"),             # no trailing comma
    ("0,-1,1,0", "2", "2"),
    ("[0,1],[1,0]", "2", "2"),          # the list is flat
    ("0,1 1,0", "2", "2"),
    ("0,,1,1", "2", "2"),
    ("0,1,1", "2", "2"),
    ("0,1,1,0", "02", "2"),
])
def test_scheme_file_grammar_is_strict(tmp_path, capsys, colors, n, rank):
    bad = tmp_path / "bad.json"
    bad.write_text(K2_FILE % (colors, n, rank))
    with pytest.raises(SchemeFileError):
        cli.load_scheme(bad)
    assert run(capsys, "analyze", str(bad))[:2] == (2, "")


def test_scheme_file_ids_fail_before_anything_is_sized_by_them(tmp_path, capsys):
    # id 10^9 on 2 points made np.bincount ask for 7.45 GiB
    bad = tmp_path / "huge.json"
    for ids, rank in (("0,1000000000,1000000000,0", 2),
                      ("0,1000000000,1000000000,0", 1000000001),
                      ("0,1,1,0", 10**18)):
        bad.write_text(K2_FILE % (ids, 2, rank))

        def attempt():
            with pytest.raises(SchemeFileError):
                cli.load_scheme(bad)

        _, peak = oracles.traced_peak(attempt)
        assert peak < 2**16
        assert run(capsys, "analyze", str(bad))[:2] == (2, "")


def test_scheme_file_whitespace_and_key_order_are_free(tmp_path, c67_file):
    cfg, meta = cli.load_scheme(c67_file)
    payload = json.loads(c67_file.read_text())
    spaced = tmp_path / "spaced.json"
    payload = dict(reversed(list(payload.items())))
    spaced.write_text(json.dumps(payload, indent=1).replace("[", "[\n "))
    again, meta2 = cli.load_scheme(spaced)
    assert np.array_equal(again.colors, cfg.colors) and meta2 == meta


@pytest.mark.parametrize("entry", ["01", "+1", "1.0", "1 1", "", " ", "-1", "true"])
def test_scheme_file_grammar_holds_past_the_first_chunk(tmp_path, entry):
    # entry 30 000 of c199k3's 39 601 lies past the first SCHEME_PARSE_BYTES
    cfg = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    payload = json.loads(cli.dump_scheme(cfg))
    colors = [str(c) for c in payload.pop("colors")]
    assert len(",".join(colors[:30000])) > cli.SCHEME_PARSE_BYTES
    colors[30000] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload)[:-1] + ',"colors":[%s]}' % ",".join(colors))
    with pytest.raises(SchemeFileError):
        cli.load_scheme(bad)


def test_rank_mismatch_file_rejected(tmp_path, capsys, c67_file):
    payload = json.loads(c67_file.read_text())
    payload["rank"] = 7
    bad = tmp_path / "badrank.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SchemeFileError):
        cli.load_scheme(bad)


def test_analyze_extension_configuration(c67_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    assert run(capsys, "extend", str(c67_file), "--point", "0",
               "--method", "explicit", "-o", str(out))[0] == 0
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert not report["scheme"] and report["rank"] == 2245
    assert "blocks" not in report


def test_missing_family_parameters_exit_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "cyclotomic",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "construct", "frobenius-example", "--q", "2",
                       "-o", str(tmp_path / "y.json"))
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2


def _ag2_lines(q):
    # the q^2 + q lines of AG(2, q), q prime, point (x, y) -> q*y + x
    lines = [[q * ((m * x + c) % q) + x for x in range(q)]
             for m in range(q) for c in range(q)]
    return lines + [[q * y + c for y in range(q)] for c in range(q)]


def test_constructor_cap_holds_for_every_family(tmp_path, capsys):
    n = 501
    table = tmp_path / "z501.txt"
    table.write_text("".join(" ".join(str((i + j) % n) for j in range(n)) + "\n"
                             for i in range(n)))
    gens = tmp_path / "gens501.txt"
    gens.write_text(" ".join(str((i + 1) % n) for i in range(n)) + "\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("# no generators\n")
    plane = tmp_path / "ag2_23.txt"
    lines = _ag2_lines(23)
    assert len(lines) == 552
    plane.write_text(f"529 {len(lines)}\n"
                     + "".join(" ".join(map(str, line)) + "\n" for line in lines))
    over = [
        ["cyclotomic", "--p", "503", "--k-order", "251"],
        ["cyclotomic", "--p", "1009", "--k-order", "2"],
        ["cyclotomic", "--p", "23", "--m", "2", "--k-order", "2"],
        ["regular", "--table", str(table)],
        ["group-orbitals", "--generators", str(gens)],
        ["group-orbitals", "--generators", str(empty), "--degree", "501"],
        ["affine-plane", "--lines", str(plane)],
        ["affine", "--dim", "2", "--q", "23"],
        ["passman", "--q", "23"],
        ["frobenius-example", "--q", "3", "--n", "3"],
        # a prime q this large is never factored
        ["frobenius-example", "--q", str(2 ** 61 - 1), "--n", "3"],
        ["passman", "--q", str(2 ** 61 - 1)],
    ]
    for argv in over:
        start = time.perf_counter()
        code, stdout, err = run(capsys, "construct", *argv,
                                "-o", str(tmp_path / "over.json"))
        assert (code, stdout) == (4, ""), argv
        assert "exceeds cap 500" in err, argv
        assert time.perf_counter() - start < 1.0, argv
    assert not (tmp_path / "over.json").exists()
    start = time.perf_counter()
    assert run(capsys, "construct", "hollman", "--q", str(2 ** 61 - 1),
               "-o", str(tmp_path / "h.json"))[0] == 2
    assert time.perf_counter() - start < 1.0
    code, _, _ = run(capsys, "construct", "cyclotomic", "--p", "499",
                     "--k-order", "3", "-o", str(tmp_path / "c499.json"))
    assert code == 0
    assert cli.load_scheme(tmp_path / "c499.json")[0].n == 499
