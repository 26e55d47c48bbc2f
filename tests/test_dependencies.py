"""The runtime needs numpy alone.

scipy serves the tests and perfbench as an independent reference, so it
must not creep back into the package: no module under src/alqr imports it,
a fresh interpreter that runs every subcommand never loads it (nor
numpy.ma), and the third-party imports of the package match
pyproject.toml's dependencies.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alqr"


def _top_level_imports(path: Path) -> set[str]:
    """First component of every absolute import in a file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _package_files() -> list[Path]:
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    return files


def test_no_module_imports_scipy():
    offenders = [str(path.relative_to(ROOT)) for path in _package_files()
                 if "scipy" in _top_level_imports(path)]
    assert offenders == []


def test_import_scan_sees_imports_inside_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from scipy import linalg\n"
                     "    import scipy.sparse as sp\n")
    assert _top_level_imports(probe) == {"scipy"}


def _declared_dependencies() -> list[str]:
    """The requirement strings of pyproject.toml's dependencies."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M)
    return re.findall(r'"([^"]+)"', block.group(1))


def test_third_party_imports_match_declared_dependencies():
    # each dependency here is imported under its distribution name
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group()
                for requirement in _declared_dependencies()}
    imported = set()
    for path in _package_files():
        imported |= _top_level_imports(path)
    third_party = imported - set(sys.stdlib_module_names) - {"alqr"}
    assert third_party == declared == {"numpy"}


def test_numpy_floor_has_the_row_ufuncs():
    # the batch steps and norms its row stacks with np.matvec and
    # np.vecdot; numpy 2.2 is the first release with np.matvec
    assert _declared_dependencies() == ["numpy>=2.2"]


_RUN_EVERY_COMMAND = """
import json, os, sys
from alqr.cli import main
config, out = sys.argv[1], sys.argv[2]
run = os.path.join(out, "run")
codes = [
    main(["gen-plant", "--n", "3", "--m", "2", "--rho", "0.9", "--seed", "1",
          "--out", os.path.join(out, "plant.json")]),
    main(["simulate", "--config", config, "--out", run, "--workers", "1",
          "--set", "horizon=60", "--set", "trials=2",
          "--set", "write_trial_logs=true"]),
    main(["analyze", "--out", run]),
    main(["verify", "--set", "horizon=60"]),
]
def loaded(package):
    return sorted(name for name in sys.modules
                  if name == package or name.startswith(package + "."))
print(json.dumps({"codes": codes, "scipy": loaded("scipy"),
                  "numpy.ma": loaded("numpy.ma")}))
"""


def test_commands_never_load_scipy(tmp_path):
    # nor numpy.ma, whose import costs a fresh process about 10 ms
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_COMMAND,
         str(ROOT / "configs" / "reference.json"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "scipy": [], "numpy.ma": []}


def test_cli_import_leaves_the_process_pool_out():
    # run_experiment imports the pool only when it starts one
    code = ("import sys, alqr.cli; print(sorted(n for n in "
            "('concurrent.futures.process', 'multiprocessing') "
            "if n in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
