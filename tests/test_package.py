"""The package's import surface: one import path per name, one layer per import."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def fresh(code):
    """JSON printed by ``code`` in a fresh interpreter, so nothing an earlier test imported counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_package_modules(module):
    loaded = fresh(f"import {module}\nprint(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    return {m.split(".", 1)[1] for m in loaded if m.startswith("dissipative_spins.")}


LAYER_IMPORTS = {
    "operators": set(),
    "models": {"operators"},
    "liouville": {"models", "operators"},
    "effective": {"liouville", "models", "operators"},
    "variational": {"liouville", "models", "operators"},
    "opformat": {"effective", "liouville", "models", "operators"},
}


def test_importing_the_root_loads_no_module():
    assert loaded_package_modules("dissipative_spins") == set()


@pytest.mark.parametrize("module", LAYER_IMPORTS)
def test_importing_a_module_loads_only_what_it_imports(module):
    assert loaded_package_modules(f"dissipative_spins.{module}") == LAYER_IMPORTS[module] | {module}


def test_the_root_exports_only_the_version():
    version, names = fresh("import dissipative_spins as d\nprint(json.dumps([d.__version__, sorted(vars(d))]))")
    assert isinstance(version, str)
    assert [name for name in names if not name.startswith("_")] == []
    assert "__all__" not in names


def test_readme_quick_start_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    m, m_s, norm = map(float, capsys.readouterr().out.split())
    # lambda = 0.3 lies in the in-plane ordered phase; a uniform ansatz has no staggered order
    assert m > 0.1 and m_s == 0.0 and norm > 0.0
