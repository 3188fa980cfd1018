"""Public-API contract tests.

Guards the import surface downstream users rely on: everything listed
in each package's ``__all__`` must resolve, the example scripts must
compile against the current API, and the sub-second ones must run.
"""

import importlib
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.baselines",
    "repro.cluster",
    "repro.traces",
    "repro.testbed",
    "repro.network",
    "repro.model",
    "repro.experiments",
    "repro.faults",
    "repro.analysis",
    "repro.serve",
    "repro.util",
]

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Examples that finish in about a second; the rest simulate for minutes.
FAST_EXAMPLES = (
    "quickstart", "motivation", "anti_collocation_demo", "exact_vs_heuristic",
)


class TestDunderAll:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", None)
        assert exported, f"{package} must define __all__"
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_quickstart_snippet_from_readme(self):
        # The README's quickstart must keep working verbatim.
        from repro import (
            MachineShape,
            PageRankVMPolicy,
            ResourceGroup,
            VMType,
            build_score_table,
        )

        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
        )
        vm2 = VMType(name="vm2", demands=((1, 1),))
        vm4 = VMType(name="vm4", demands=((1, 1, 1, 1),))
        table = build_score_table(shape, [vm2, vm4], mode="full")
        policy = PageRankVMPolicy({shape: table})
        assert policy.name == "PageRankVM"


class TestExamples:
    def test_examples_present(self):
        names = {path.name for path in EXAMPLES}
        assert {"quickstart.py", "motivation.py",
                "ec2_simulation.py"}.issubset(names)
        assert len(EXAMPLES) >= 8

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(
            str(path), cfile=str(tmp_path / (path.stem + ".pyc")), doraise=True
        )

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_has_docstring_and_main(self, path):
        source = path.read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3'))
        assert 'if __name__ == "__main__":' in source

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_fast_example_runs(self, name):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
        )
        done = subprocess.run(
            [sys.executable, str(ROOT / "examples" / f"{name}.py")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
