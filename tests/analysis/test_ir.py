"""The single per-module pass: one import map, one grouping, one walk."""

import ast
from pathlib import Path

import repro.analysis as analysis
from repro.analysis import ModuleIR, SiteBuilder, analyze_project
from repro.analysis import base as base_mod

REPO_ROOT = Path(__file__).resolve().parents[2]
ANALYSIS_DIR = Path(analysis.__file__).resolve().parent


def test_cold_project_run_builds_one_import_map_per_file(monkeypatch):
    trees = []
    real = base_mod.ImportMap.collect

    def counting(self, tree):
        trees.append(tree)
        return real(self, tree)

    monkeypatch.setattr(base_mod.ImportMap, "collect", counting)
    report = analyze_project([REPO_ROOT / "src"], cache_dir=None,
                             root=REPO_ROOT)
    assert report.files_scanned > 50
    assert len(trees) == report.files_scanned
    assert len({id(tree) for tree in trees}) == len(trees)


def test_function_grouping_has_one_home():
    """No analysis module keeps its own copy of the function grouping
    (``scan_body``) or of the ``TYPE_CHECKING`` test; they live in the
    IR, which every rule wave reads."""
    grouping = {"scan_body", "scan_defs", "scan_top",
                "_is_type_checking", "is_type_checking"}
    homes = {}
    for path in sorted(ANALYSIS_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in grouping:
                homes.setdefault(node.name, []).append(path.name)
    assert homes == {"is_type_checking": ["ir.py"]}


class _CallRecorder(SiteBuilder):
    """A minimal extra wave: every resolved call, per function."""

    def __init__(self, ir):
        self.calls = []
        super().__init__(ir)

    def expr(self, nodes):
        for node in nodes:
            if isinstance(node, ast.Call):
                self.calls.append((self.qualname, self.ir.dotted(node.func)))


def test_a_new_wave_plugs_into_the_walk():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "try:\n"
        "    def fallback():\n"
        "        os.fsync(0)\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            os.getenv('X')\n"
        "        return os.listdir('.')\n"
        "os.getpid()\n")
    ir = ModuleIR(ast.parse(source))
    assert [fn.qualname for fn in ir.functions] == ["C.m"]
    assert ir.defs == {"fallback": "function", "C": "class"}
    recorder = _CallRecorder(ir)
    ir.walk_sites([recorder])
    # nested defs attribute to their enclosing function; a def inside a
    # module-level try belongs to <module>
    assert recorder.calls == [
        ("C.m", "os.getenv"), ("C.m", "os.listdir"),
        ("<module>", "os.fsync"), ("<module>", "os.getpid")]
