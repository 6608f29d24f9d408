"""What a new interpreter loads to import the package and to run the CLI.

A CLI process is short, so its start-up is most of its cost: importing
``distcsp.cli`` loads only the modules that every subcommand needs, and a
subcommand imports the rest of what it runs.  The package's public names
resolve on first access.  What is loaded is checked in a child process,
since this one has long loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distcsp
from distcsp.formats import instance_to_dict, template_to_dict, to_json
from helpers import DIST13, graph_instance

AT_IMPORT = {"distcsp", "distcsp.cli", "distcsp.errors", "distcsp.formats", "distcsp.model"}


def run_child(script: str, *args: str) -> list:
    """The JSON that ``script`` prints on its last line, run by a new
    interpreter that finds this checkout's distcsp first."""
    src = str(Path(distcsp.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_added(commands: list[list[str]]) -> tuple[set[str], list[int], set[str]]:
    """The modules that ``import distcsp.cli`` adds to a new interpreter, the
    exit codes of ``run_cli`` on each argv after it, and every module added
    by the end.  Taking differences keeps out whatever the interpreter's
    site hooks import."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from distcsp.cli import run_cli\n"
        "imported = sorted(set(sys.modules) - before)\n"
        "codes = [run_cli(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([imported, codes, sorted(set(sys.modules) - before)]))\n"
    )
    imported, codes, loaded = run_child(script, json.dumps(commands))
    return set(imported), codes, set(loaded)


def distcsp_modules(names: set[str]) -> set[str]:
    return {n for n in names if n.split(".")[0] == "distcsp"}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in {
        "t13.json": template_to_dict(DIST13),
        "path13.json": instance_to_dict(
            graph_instance("dist13", 6, [(i, i + 1) for i in range(5)])
        ),
    }.items():
        (tmp_path / name).write_text(to_json(doc))
        paths[name] = str(tmp_path / name)
    return paths


class TestStartupModules:
    def test_cli_import_loads_only_what_every_subcommand_needs(self):
        imported, _, _ = modules_added([])
        assert "dataclasses" not in imported and "inspect" not in imported
        assert distcsp_modules(imported) == AT_IMPORT

    def test_consistency_solve_loads_no_search_and_no_template_analysis(self, docs):
        argv = ["solve", docs["t13.json"], docs["path13.json"], "--mode", "consistency"]
        _, codes, loaded = modules_added([argv])
        assert codes == [0]
        assert distcsp_modules(loaded) == AT_IMPORT | {"distcsp.solver"}
        assert "dataclasses" not in loaded

    def test_analyze_loads_no_solver(self, docs):
        _, codes, loaded = modules_added([["analyze", docs["t13.json"]]])
        assert codes == [0]
        assert distcsp_modules(loaded) == AT_IMPORT | {"distcsp.analysis"}


class TestPackageExports:
    def test_exports_resolve_on_first_access(self):
        script = (
            "import json\n"
            "import distcsp\n"
            "eager = sorted(set(distcsp.__all__) & set(vars(distcsp)))\n"
            "same = all(\n"
            "    getattr(distcsp, name) is getattr(\n"
            "        __import__(f'distcsp.{module}', fromlist=[name]), name\n"
            "    )\n"
            "    for name, module in distcsp._MODULE_OF.items()\n"
            ")\n"
            "star = {}\n"
            "exec('from distcsp import *', star)\n"
            "print(json.dumps([distcsp.__all__, eager, same, sorted(star), dir(distcsp)]))\n"
        )
        names, eager, same, star, listed = run_child(script)
        assert len(names) == 46 and names == sorted(names)
        assert eager == []  # a fresh import binds no export
        assert same
        assert set(names) <= set(star)
        assert set(names) <= set(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            distcsp.no_such_name
        assert not hasattr(distcsp, "MODES")  # a module's name is not an export
