"""The package exports exactly the names of the README's API table,
job by job, and imports nothing but the standard library and numpy."""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

import windglass as wg

README = Path(__file__).resolve().parents[1] / "README.md"

# The modules that define each job's names, in the table's row order.
JOB_MODULES = {
    "Data": ("data", "datasets"),
    "Training": ("glassbox",),
    "Prediction and explanation": ("metrics", "explain"),
    "Baselines": ("baselines", "trees"),
    "Model files": ("model_io",),
}


def api_table():
    """Job -> the backquoted names of its row in the README's
    "API by job" table."""
    section = README.read_text(encoding="utf-8").split("\n### API by job\n", 1)[1]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("|"):
            if rows:
                break
            continue
        job, names = (cell.strip() for cell in line.strip("|").split("|"))
        if job in JOB_MODULES:  # not the header or the rule under it
            rows[job] = re.findall(r"`(\w+)`", names)
    return rows


def test_table_lists_every_public_name_once():
    table = api_table()
    assert list(table) == list(JOB_MODULES)
    listed = [name for names in table.values() for name in names]
    assert len(listed) == len(set(listed))
    public = {name for name, value in vars(wg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(listed) == public


@pytest.mark.parametrize("job", list(JOB_MODULES))
def test_each_name_is_exported_by_a_module_of_its_job(job):
    modules = [getattr(wg, m) for m in JOB_MODULES[job]]
    for name in api_table()[job]:
        owners = [m for m in modules if name in m.__all__]
        assert owners, f"{name} is in no __all__ of {JOB_MODULES[job]}"
        assert getattr(wg, name) is getattr(owners[0], name)


def test_the_package_imports_only_the_standard_library_and_numpy():
    """numpy is the one runtime dependency: every absolute import in
    ``src/windglass`` names a standard-library module or numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(Path(wg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in allowed]
    assert outside == []
