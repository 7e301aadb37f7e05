"""The scripts under scripts/ run end to end against the package."""

import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    """Run the interpreter on args with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_survey_catalog_centralizers():
    proc = _python(
        str(ROOT / "scripts" / "survey_catalog.py"), "--centralizers", "toric_code", "ising"
    )
    assert proc.returncode == 0, proc.stderr
    # entry, rank, dim, subcats, grading order, transparent objects
    row = re.compile(r"^(\w+)\s+(\d+)\s+.*?\s(\d+)\s+(\d+)\s+\{", re.M)
    counts = {m[1]: int(m[3]) for m in row.finditer(proc.stdout)}
    assert counts == {"toric_code": 5, "ising": 3}
    # one D -> D' line per subcategory
    assert proc.stdout.count(" -> ") == 5 + 3


def test_output_digest_hashes_each_command():
    proc = _python(str(ROOT / "scripts" / "output_digest.py"), "toric_code")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ", 3) for line in proc.stdout.splitlines()]
    # catalog, six commands and one centralizer per object, text and --json
    assert len(lines) == 2 * (1 + 6 + 4)
    empty = hashlib.sha256(b"").hexdigest()
    assert all(err == empty and code == "0" for _, err, code, _ in lines)
    by_argv = {argv: out for out, _, _, argv in lines}
    direct = _python("-m", "fusioncat", "verify", "--catalog", "toric_code", "--json")
    want = hashlib.sha256(direct.stdout.encode("utf-8")).hexdigest()
    assert by_argv["verify --catalog toric_code --json"] == want
    assert "centralizer --catalog toric_code --subcat f --json" in by_argv


def test_output_digest_of_the_catalog_is_unchanged():
    # Every command's output on the whole catalog, byte for byte.  A change
    # that alters output on purpose regenerates the file with
    #   PYTHONPATH=src python scripts/output_digest.py > tests/catalog_digest.txt
    proc = _python(str(ROOT / "scripts" / "output_digest.py"))
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "catalog_digest.txt").read_text(encoding="utf-8")
    assert proc.stdout.splitlines() == want.splitlines()


def test_output_digest_of_generated_inputs_is_unchanged(tmp_path, monkeypatch):
    # Every command's output on the benchmark's seed-1 toric_code^2
    # (lattice-rank16) and SU(2)_7, in modular and fusion-ring form, byte
    # for byte; only the --file lines are kept, with the directory dropped
    # from each path.  One small catalog entry is named, as the script
    # digests the whole catalog when none is.  A change that alters this
    # output on purpose writes the lines this test computes to
    # generated_digest.txt.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    files = []
    for cat in (gen.deligne_power(gen.toric_code(), 2, "toric_code2"), gen.su2(7)):
        cat = gen.relabel(cat, gen.relabel_perm(cat.rank, 1, cat.name))
        for obj in (gen.modular_json(cat), gen.ring_json(cat)):
            files += ["--file", str(tmp_path / f"{obj['name']}.json")]
            gen.write_json(obj, files[-1])
    proc = _python(str(ROOT / "scripts" / "output_digest.py"), "semion", *files)
    assert proc.returncode == 0, proc.stderr
    got = [line.replace(f"{tmp_path}{os.sep}", "")
           for line in proc.stdout.splitlines() if " --file " in line]
    want = (ROOT / "tests" / "generated_digest.txt").read_text(encoding="utf-8")
    assert got == want.splitlines()


def test_export_catalog_round_trips_through_the_cli(tmp_path, capsys):
    # Every exported file, in modular and fusion-ring form, passes info,
    # validate and verify, and each modular file reports exactly as its
    # catalog entry does.
    from fusioncat import catalog_names
    from fusioncat.cli import run

    proc = _python(str(ROOT / "scripts" / "export_catalog.py"), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = catalog_names()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}{form}.json" for name in names for form in ("", "_ring"))

    def report(*argv):
        code = run([*argv, "--json"])
        return code, capsys.readouterr().out

    for name in names:
        for command in ("info", "validate", "verify"):
            code, ring = report(command, "--file", str(tmp_path / f"{name}_ring.json"))
            assert code == 0, (command, name, ring)
            got = report(command, "--file", str(tmp_path / f"{name}.json"))
            assert got == report(command, "--catalog", name) and got[0] == 0, (command, name)
