"""CLI construction, analysis, extension, checks, exit codes, golden files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schemelab import cli
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


def test_cli_and_closure_leave_heavy_modules_unimported():
    # hashlib, thread pools and numpy.random each add to the RSS of every
    # command; none is needed to load the CLI or to run a WL closure
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import schemelab.cli\n"
        "from schemelab import constructors, extension\n"
        "cfg = constructors.frobenius_example_scheme(2, 3)\n"
        "extension.coherent_closure(cfg, {0})\n"
        "print(*[m for m in ('hashlib', 'concurrent.futures', 'numpy.random')\n"
        "        if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


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


def test_cap_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "hollman", "--q", "32",
                       "-o", str(tmp_path / "h.json"))
    assert code == 4


def test_invalid_parameter_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "cyclotomic", "--p", "13",
                       "--k-order", "5", "-o", str(tmp_path / "x.json"))
    assert code == 2


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


def test_analyze_seed_flag(c67_file, capsys):
    code, out, _ = run(capsys, "analyze", str(c67_file), "--json",
                       "--seed", "4321")
    assert code == 0
    assert json.loads(out)["pseudocyclic_spectral"] == 2


def test_missing_family_parameters_exit_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "cyclotomic",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "construct", "frobenius-example", "--q", "2",
                       "-o", str(tmp_path / "y.json"))
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
