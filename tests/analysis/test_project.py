"""Whole-program analysis: fixtures, call graph, cache, layer config.

The fixture scenarios under ``fixtures/project/`` mirror the style of
the per-file rule fixtures: every ``# expect: RAxxx`` marker must fire
at exactly that line, and nothing else may fire.  ``analyze_project``
runs them with ``select=PROJECT_RULES`` so the per-file families stay
out of the comparison.
"""

import ast
import io
import json
import re
import shutil
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import PROJECT_RULES, analyze_project
from repro.analysis.callgraph import (ProjectGraph, extract_facts,
                                      module_name_for)
from repro.analysis.config import _fallback_read_table
from repro.analysis.layers import (LayerConfigError, find_layer_config,
                                   read_layers_table)
from repro.analysis.project import ProjectCache

FIXTURES = Path(__file__).parent / "fixtures" / "project"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z0-9,\s]+)")


def expected_violations(scenario_dir):
    out = []
    for path in sorted(scenario_dir.rglob("*.py")):
        rel = str(path.relative_to(scenario_dir))
        for lineno, text in enumerate(
                path.read_text().splitlines(), start=1):
            match = _EXPECT_RE.search(text)
            if not match:
                continue
            for code in match.group("codes").split(","):
                if code.strip():
                    out.append((rel, lineno, code.strip()))
    return out


def run_scenario(name):
    scenario = FIXTURES / name
    report = analyze_project([scenario], cache_dir=None,
                             select=PROJECT_RULES, root=scenario)
    return report


@pytest.mark.parametrize("name", ["races", "locks", "layers",
                                  "determinism", "lifecycle",
                                  "durability"])
def test_scenario_fires_exactly_the_marked_rules(name):
    report = run_scenario(name)
    got = Counter((v.path, v.line, v.code) for v in report.violations)
    want = Counter(expected_violations(FIXTURES / name))
    assert got == want, (
        f"{name}: expected {sorted(want.elements())}, "
        f"got {sorted(got.elements())}")


def test_race_report_names_the_dispatch_site():
    report = run_scenario("races")
    transitive = [v for v in report.violations
                  if "helpers.py" in v.path]
    assert transitive, "expected the transitive RA501 finding"
    message = transitive[0].message
    assert "reachable from pool-dispatched `worker.process_shard`" \
        in message
    assert ".submit(...)" in message


def test_lock_report_names_guard_and_remedy():
    report = run_scenario("locks")
    by_line = {v.line: v for v in report.violations}
    read = next(v for v in by_line.values() if "is read" in v.message)
    assert "lock-guarded in `Meter.add`" in read.message
    assert "_locked" in read.message


def test_layer_report_names_the_table_edge():
    report = run_scenario("layers")
    assert report.violations
    assert all("'util' -> 'core'" in v.message
               for v in report.violations)


def test_deadlock_report_names_both_acquisition_sites():
    report = run_scenario("lifecycle")
    cycles = [v for v in report.violations if v.code == "RA801"]
    assert len(cycles) == 2, "both directions of the 2-cycle report"
    first = next(v for v in cycles if v.line == 12)
    assert "`LOCK_B` is acquired while `LOCK_A` is held" in first.message
    assert "deadlock.py:18" in first.message, \
        "the message must name the opposite-order acquisition site"


def test_transitive_blocking_report_names_the_locked_caller():
    report = run_scenario("lifecycle")
    transitive = next(v for v in report.violations
                      if v.code == "RA802" and "_slow_flush" in v.message)
    assert "called via blocking.py:21 in `flush_through_helper`" \
        in transitive.message
    assert "_locked" in transitive.message, "the remedy names the escape"


def test_durability_report_names_pattern_and_protocol():
    report = run_scenario("durability")
    ordering = next(v for v in report.violations
                    if "after the manifest" in v.message)
    assert ordering.line == 37
    assert "(line 35)" in ordering.message
    in_place = next(v for v in report.violations if v.line == 19)
    assert "tracked artifact `data.json`" in in_place.message
    assert "os.replace" in in_place.message


def test_no_orphaned_noqa_markers_in_source_tree(monkeypatch):
    """Every inline `# repro: noqa[RAxxx]` must still suppress a live
    finding: with suppression plumbing disabled, re-analysis must fire
    each suppressed code on each marker line (else the marker is stale
    documentation and should be deleted)."""
    from repro.analysis import suppressed_lines
    from repro.analysis.base import RULES
    from repro.analysis import base as base_mod, callgraph

    markers = []  # (display path, line, code)
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        # tokenize so only real COMMENT markers count — docstrings
        # documenting the `# repro: noqa[RAxxx]` syntax are not
        # suppressions
        tokens = tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
        for tok_type, tok_string, (lineno, _), _, _ in tokens:
            if tok_type != tokenize.COMMENT:
                continue
            parsed = suppressed_lines(tok_string)
            if not parsed:
                continue
            codes = parsed[1]
            assert codes is not None and codes, (
                f"{path}:{lineno}: bare `# repro: noqa` hides every "
                "rule; list the codes being suppressed")
            for code in codes:
                if not re.fullmatch(r"RA\d+", code):
                    continue  # syntax placeholder (RAxxx), not a rule
                assert code in RULES, (
                    f"{path}:{lineno}: noqa names unknown rule {code}")
                markers.append(
                    (str(path.relative_to(REPO_ROOT)), lineno, code))
    assert markers, "the source tree is known to carry noqa markers"

    def no_suppression(source):
        return {}

    # both suppression paths read the same helper: the per-file filter
    # (apply_suppressions, via base's namespace) and the link-time
    # ModuleFacts.suppressed table built in callgraph.extract_facts
    monkeypatch.setattr(base_mod, "suppressed_lines", no_suppression)
    monkeypatch.setattr(callgraph, "suppressed_lines", no_suppression)
    report = analyze_project([src], cache_dir=None, root=REPO_ROOT)
    fired = {(v.path, v.line, v.code) for v in report.violations}
    orphans = [m for m in markers if m not in fired]
    assert orphans == [], (
        "stale noqa markers (no live finding on that line): "
        + ", ".join(f"{p}:{line} [{code}]" for p, line, code in orphans))


def test_repo_source_tree_is_project_clean():
    """The acceptance gate: the repo obeys its own semantic rules."""
    report = analyze_project([REPO_ROOT / "src"], cache_dir=None,
                             root=REPO_ROOT)
    assert report.files_scanned > 50
    assert report.violations == [], "\n".join(
        v.render() for v in report.violations)


def test_repo_layer_table_is_loadable_and_matches_packages():
    config = read_layers_table(REPO_ROOT / "pyproject.toml")
    assert config is not None and config.root == "repro"
    packages = {p.name for p in (REPO_ROOT / "src" / "repro").iterdir()
                if p.is_dir() and (p / "__init__.py").exists()}
    declared = set(config.allowed) - {"repro"}
    assert packages == declared, (
        "every package must be declared in [tool.repro.layers] "
        f"(missing: {packages - declared}, stale: {declared - packages})")


# -- the incremental cache ----------------------------------------------------


def _copy_scenario(tmp_path, name):
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def test_cache_cold_then_warm_then_one_changed_file(tmp_path):
    tree = _copy_scenario(tmp_path, "races")
    cache_dir = tmp_path / "cache"

    cold = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.files_scanned > 0

    warm = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.files_scanned
    assert warm.violations == cold.violations

    changed = tree / "helpers.py"
    changed.write_text(changed.read_text() + "\n# cache-buster\n")
    third = analyze_project([tree], cache_dir=cache_dir,
                            select=PROJECT_RULES, root=tmp_path)
    assert third.cache_misses == 1, "only the edited file re-analyzes"
    assert third.cache_hits == third.files_scanned - 1
    assert third.violations == cold.violations


def test_cache_results_identical_with_and_without_cache(tmp_path):
    tree = _copy_scenario(tmp_path, "locks")
    cache_dir = tmp_path / "cache"
    analyze_project([tree], cache_dir=cache_dir,
                    select=PROJECT_RULES, root=tmp_path)
    cached = analyze_project([tree], cache_dir=cache_dir,
                             select=PROJECT_RULES, root=tmp_path)
    uncached = analyze_project([tree], cache_dir=None,
                               select=PROJECT_RULES, root=tmp_path)
    assert cached.cache_hits == cached.files_scanned
    assert cached.violations == uncached.violations


def test_ruleset_fingerprint_covers_the_ra8xx_rule_files(tmp_path,
                                                         monkeypatch):
    """Editing lifecycle.py or durability.py must change the
    fingerprint — warm caches may never serve verdicts computed by an
    older rule set."""
    import repro.analysis.base as base_mod

    analysis_dir = Path(base_mod.__file__).resolve().parent
    baseline = base_mod.ruleset_fingerprint()
    copy = tmp_path / "analysis"
    shutil.copytree(analysis_dir, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(base_mod, "__file__", str(copy / "base.py"))
    assert base_mod.ruleset_fingerprint() == baseline, \
        "an identical copy of the rule sources hashes identically"
    seen = {baseline}
    for rule_file in ("lifecycle.py", "durability.py"):
        target = copy / rule_file
        target.write_bytes(target.read_bytes() + b"\n# edited\n")
        fingerprint = base_mod.ruleset_fingerprint()
        assert fingerprint not in seen, \
            f"editing {rule_file} must change the fingerprint"
        seen.add(fingerprint)


def test_warm_cache_invalidates_when_ruleset_changes(tmp_path,
                                                     monkeypatch):
    from repro.analysis import project as project_mod

    tree = _copy_scenario(tmp_path, "lifecycle")
    cache_dir = tmp_path / "cache"
    cold = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    warm = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    assert warm.cache_hits == warm.files_scanned

    real = project_mod.ruleset_fingerprint
    monkeypatch.setattr(project_mod, "ruleset_fingerprint",
                        lambda: "rule-edit-" + real())
    third = analyze_project([tree], cache_dir=cache_dir,
                            select=PROJECT_RULES, root=tmp_path)
    assert third.cache_hits == 0, \
        "a rule-set edit must miss every warm entry"
    assert third.cache_misses == third.files_scanned
    assert third.violations == cold.violations


def test_cache_key_depends_on_analysis_params(tmp_path):
    cache = ProjectCache(tmp_path, params_key="a")
    other = ProjectCache(tmp_path, params_key="b")
    content = b"x = 1\n"
    assert cache.key_for(content, "m") != other.key_for(content, "m")
    assert cache.key_for(content, "m") != cache.key_for(content, "n")
    assert cache.key_for(content, "m") == cache.key_for(content, "m")


def test_corrupt_cache_entry_is_a_miss_not_a_crash(tmp_path):
    tree = _copy_scenario(tmp_path, "locks")
    cache_dir = tmp_path / "cache"
    analyze_project([tree], cache_dir=cache_dir,
                    select=PROJECT_RULES, root=tmp_path)
    for entry in cache_dir.glob("*.json"):
        entry.write_text("{not json")
    report = analyze_project([tree], cache_dir=cache_dir,
                             select=PROJECT_RULES, root=tmp_path)
    assert report.cache_hits == 0
    assert report.cache_misses == report.files_scanned


def test_report_json_carries_cache_counters(tmp_path):
    tree = _copy_scenario(tmp_path, "locks")
    report = analyze_project([tree], cache_dir=tmp_path / "cache",
                             select=PROJECT_RULES, root=tmp_path)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["cache"] == {"hits": 0,
                               "misses": report.files_scanned}


# -- module naming & call-graph resolution ------------------------------------


def test_module_name_walks_package_tree(tmp_path):
    pkg = tmp_path / "top" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "top" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for(pkg / "mod.py") == "top.sub.mod"
    assert module_name_for(pkg / "__init__.py") == "top.sub"
    (tmp_path / "script.py").write_text("")
    assert module_name_for(tmp_path / "script.py") == "script"


def _facts_for(tmp_path, rel, source, roots):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return extract_facts(ast.parse(source), source, path, rel,
                         frozenset(roots))


def test_call_graph_follows_package_reexports(tmp_path):
    (tmp_path / "pkg").mkdir()
    init = _facts_for(tmp_path, "pkg/__init__.py",
                      "from .impl import run\n", {"pkg"})
    # create the real package layout first so module names resolve
    impl = _facts_for(tmp_path, "pkg/impl.py",
                      "STATE = []\n\n\ndef run():\n    STATE.append(1)\n",
                      {"pkg"})
    main = _facts_for(
        tmp_path, "main.py",
        "import pkg\n\n\ndef go(pool):\n    pool.submit(pkg.run)\n",
        {"pkg"})
    graph = ProjectGraph.link([init, impl, main])
    assert graph.resolve_callable("pkg.run") == ("pkg.impl", "run")
    roots = graph.dispatch_roots()
    assert [key for key, _m, _d in roots] == [("pkg.impl", "run")]


def test_call_graph_resolves_class_instantiation_to_init(tmp_path):
    facts = _facts_for(
        tmp_path, "mod.py",
        "class Worker:\n"
        "    def __init__(self):\n"
        "        Worker.count = 1\n",
        {"mod"})
    graph = ProjectGraph.link([facts])
    assert graph.resolve_callable("mod.Worker") == \
        ("mod", "Worker.__init__")
    assert graph.resolve_callable("mod.Worker.missing") is None
    assert graph.resolve_callable("nowhere.at.all") is None


def test_unresolvable_calls_add_no_edges(tmp_path):
    facts = _facts_for(
        tmp_path, "mod.py",
        "def go(thing):\n    thing.run()\n    unknown_name()\n",
        {"mod"})
    graph = ProjectGraph.link([facts])
    origin = graph.reachable_from([("mod", "go")])
    assert set(origin) == {("mod", "go")}


def test_pool_map_needs_poolish_receiver(tmp_path):
    source = (
        "def shard(x):\n    return x\n\n"
        "def a(pool, items):\n    return pool.map(shard, items)\n\n"
        "def b(items):\n    return map(str, items)\n\n"
        "def c(executor, items):\n    return executor.map(shard, items)\n"
    )
    facts = _facts_for(tmp_path, "mod.py", source, {"mod"})
    dispatches = [d for fn in facts.functions.values()
                  for d in fn.dispatches]
    assert len(dispatches) == 2  # pool.map and executor.map, not map()


# -- layer configuration ------------------------------------------------------


def _write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(body)
    return path


def test_cyclic_layer_table_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        'a = ["b"]\n'
        'b = ["a"]\n'))
    with pytest.raises(LayerConfigError, match="cyclic"):
        read_layers_table(path)


def test_unknown_layer_reference_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'a = ["ghost"]\n'))
    with pytest.raises(LayerConfigError, match="ghost"):
        read_layers_table(path)


def test_missing_table_returns_none(tmp_path):
    path = _write_pyproject(tmp_path, "[tool.other]\nx = 1\n")
    assert read_layers_table(path) is None


def test_find_layer_config_walks_up(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        "a = []\n"))
    nested = tmp_path / "deep" / "er"
    nested.mkdir(parents=True)
    config = find_layer_config(nested)
    assert config is not None and config.root == "x"


def test_fallback_parser_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    for path in (REPO_ROOT / "pyproject.toml",
                 FIXTURES / "layers" / "pyproject.toml"):
        text = path.read_text()
        expected = tomllib.loads(text)["tool"]["repro"]["layers"]
        assert _fallback_read_table(
            text, str(path), "tool.repro.layers") == expected


def test_wildcard_layer_may_import_anything(tmp_path):
    config = read_layers_table(_write_pyproject(tmp_path, (
        "[tool.repro.layers]\n"
        'root = "x"\n'
        'glue = ["*"]\n'
        "leaf = []\n")))
    assert config.permits("glue", "leaf")
    assert config.permits("glue", "glue")
    assert not config.permits("leaf", "glue")
