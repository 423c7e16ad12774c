"""RA7xx determinism dataflow: config, reachability, cache fingerprint.

The marker-driven scenario test lives in ``test_project.py`` (the
``determinism`` fixture); this module covers the pieces markers cannot
express — config parsing and errors, entry-point resolution, exemption
and suppression, RA700, and the rule-set fingerprint folded into the
incremental cache key.
"""

import shutil
from pathlib import Path

import pytest

import repro.analysis.base as analysis_base
import repro.analysis.config as analysis_config
import repro.analysis.dataflow as dataflow
from repro.analysis import PROJECT_RULES, analyze_project, ruleset_fingerprint
from repro.analysis.dataflow import (DeterminismConfigError,
                                     find_determinism_config,
                                     read_determinism_table)

FIXTURES = Path(__file__).parent / "fixtures" / "project"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _analyze(tree, **kwargs):
    kwargs.setdefault("cache_dir", None)
    return analyze_project([tree], select=PROJECT_RULES, root=tree,
                           **kwargs)


# -- configuration ------------------------------------------------------------


def _write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(body)
    return path


def test_repo_determinism_table_loads():
    config = read_determinism_table(REPO_ROOT / "pyproject.toml")
    assert config is not None
    assert set(config.contracts) == {
        "parallel-pipeline", "incremental-serving", "snapshot-restore",
        "bgp-equivalence", "sharded-serving"}
    assert config.exempt == ("repro.obs",)
    assert config.is_exempt("repro.obs.metrics")
    assert not config.is_exempt("repro.observatory")


def test_direct_keys_are_contract_sugar(tmp_path):
    config = read_determinism_table(_write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'roundtrip = ["pkg.mod"]\n')))
    assert config.contracts == {"roundtrip": ("pkg.mod",)}


def test_non_list_entry_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'exempt = "not-a-list"\n'))
    with pytest.raises(DeterminismConfigError, match="exempt"):
        read_determinism_table(path)


def test_non_string_entry_is_rejected(tmp_path):
    path = _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        "bad = [1, 2]\n"))
    with pytest.raises(DeterminismConfigError, match="bad"):
        read_determinism_table(path)


def test_missing_table_returns_none(tmp_path):
    path = _write_pyproject(tmp_path, "[tool.other]\nx = 1\n")
    assert read_determinism_table(path) is None


def test_find_determinism_config_walks_up(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["m"]\n'))
    nested = tmp_path / "deep" / "er"
    nested.mkdir(parents=True)
    config = find_determinism_config(nested)
    assert config is not None and config.contracts == {"c": ("m",)}


def test_empty_table_stops_the_walk_up(tmp_path):
    # fixture trees rely on this: an empty [tool.repro.determinism]
    # shadows any table further up instead of falling through to it
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["m"]\n'))
    nested = tmp_path / "sub"
    nested.mkdir()
    _write_pyproject(nested, "[tool.repro.determinism]\n")
    config = find_determinism_config(nested)
    assert config is not None and config.contracts == {}


def test_fallback_parser_matches_tomllib(monkeypatch):
    pytest.importorskip("tomllib")
    with_tomllib = read_determinism_table(REPO_ROOT / "pyproject.toml")
    monkeypatch.setattr(analysis_config, "tomllib", None)
    fallback = read_determinism_table(REPO_ROOT / "pyproject.toml")
    assert fallback == with_tomllib


# -- reachability & reporting -------------------------------------------------


def test_exempt_module_is_reachable_but_silent():
    report = _analyze(FIXTURES / "determinism")
    assert not any("metrics.py" in v.path for v in report.violations)


def test_unreached_function_is_silent():
    # agg.offline_report is full of sites but no contract reaches it
    report = _analyze(FIXTURES / "determinism")
    assert not any(v.line > 45 and "agg.py" in v.path
                   for v in report.violations)


def test_noqa_suppresses_a_contract_site():
    report = _analyze(FIXTURES / "determinism")
    assert not any(v.code == "RA701" and v.line == 35
                   for v in report.violations)


def test_message_names_contract_entry_and_remedy():
    report = _analyze(FIXTURES / "determinism")
    ra701 = next(v for v in report.violations if v.code == "RA701")
    assert "`shard-equivalence`" in ra701.message
    assert "reachable from `agg.merge_shards`" in ra701.message
    assert "sorted(...)" in ra701.message
    assert "(auto-fixable with --fix)" in ra701.message
    ra704 = next(v for v in report.violations if v.code == "RA704")
    assert "auto-fixable" not in ra704.message  # report-only rule


def test_module_entry_covers_module_level_statements():
    report = _analyze(FIXTURES / "determinism")
    assert any(v.code == "RA703" and "persist.py" in v.path
               and v.line == 5 for v in report.violations)


def test_unresolvable_entry_fires_ra700(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'ghost-contract = ["nowhere.at_all"]\n'))
    (tmp_path / "mod.py").write_text('"""Doc."""\n')
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA700"]
    violation = report.violations[0]
    assert "ghost-contract" in violation.message
    assert "nowhere.at_all" in violation.message
    assert violation.path.endswith("pyproject.toml")


def test_entry_resolves_through_package_reexport(tmp_path):
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'api = ["pkg.run"]\n'))
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        '"""Doc."""\nfrom .impl import run\n')
    (pkg / "impl.py").write_text(
        '"""Doc."""\n\n\ndef run(xs):\n    return sum(set(xs))\n')
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA702"]
    assert "impl.py" in report.violations[0].path


def test_sum_with_start_argument_is_report_only(tmp_path):
    # exact_total takes exactly one iterable: sum(xs, start) must be
    # reported but never rewritten (the rewrite would TypeError)
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["mod.total"]\n'))
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef total(xs, start):\n'
        "    return sum(set(xs), start)\n")
    report = _analyze(tmp_path)
    assert [v.code for v in report.violations] == ["RA702"]
    assert "start argument" in report.violations[0].message
    assert "auto-fixable" not in report.violations[0].message
    assert report.fixes == []


def test_int_literal_set_sum_is_not_flagged(tmp_path):
    # integer summation is exact and order-free; rewriting it to the
    # always-float exact_total would change the result type for nothing
    _write_pyproject(tmp_path, (
        "[tool.repro.determinism]\n"
        'c = ["mod.total"]\n'))
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef total():\n    return sum({3, 1, 2})\n')
    report = _analyze(tmp_path)
    assert report.violations == [] and report.fixes == []


def test_foreign_pyproject_root_draws_a_scope_warning(tmp_path):
    # two roots with different tables analyzed in one run: the first
    # root's contracts apply, the second is flagged instead of being
    # silently checked against the wrong table
    first = tmp_path / "first"
    second = tmp_path / "second"
    for root, contract in ((first, "a"), (second, "b")):
        root.mkdir()
        _write_pyproject(root, (
            "[tool.repro.determinism]\n"
            f'{contract} = ["mod.run"]\n'))
        (root / "mod.py").write_text(
            '"""Doc."""\n\n\ndef run(xs):\n    return sorted(xs)\n')
    report = analyze_project([first, second], cache_dir=None,
                             select=PROJECT_RULES, root=tmp_path)
    warnings = [v for v in report.violations if v.code == "RA700"]
    assert len(warnings) == 1
    assert warnings[0].path.endswith("second/mod.py")
    assert str(first / "pyproject.toml") in warnings[0].message
    assert str(second / "pyproject.toml") in warnings[0].message

    # a single-root run stays silent
    alone = analyze_project([first], cache_dir=None,
                            select=PROJECT_RULES, root=tmp_path)
    assert alone.violations == []


def test_explicit_config_overrides_the_walk_up(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n\ndef run(xs):\n    return sum(set(xs))\n')
    config = dataflow.DeterminismConfig(
        contracts={"c": ("mod.run",)}, source="<test>")
    report = _analyze(tmp_path, determinism=config)
    assert [v.code for v in report.violations] == ["RA702"]


# -- the cache fingerprint (regression: rule bumps must invalidate) -----------


def _copy_scenario(tmp_path, name):
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


def test_fingerprint_changes_when_a_rule_is_edited(monkeypatch):
    before = ruleset_fingerprint()
    monkeypatch.setitem(analysis_base.RULES, "RA701",
                        ("unordered-iteration", "reworded description"))
    assert ruleset_fingerprint() != before


def test_fingerprint_changes_when_lint_version_is_bumped(monkeypatch):
    before = ruleset_fingerprint()
    monkeypatch.setattr(analysis_base, "LINT_VERSION", "999.0.0")
    assert ruleset_fingerprint() != before


def test_rule_bump_invalidates_every_warm_cache_entry(tmp_path,
                                                      monkeypatch):
    tree = _copy_scenario(tmp_path, "determinism")
    cache_dir = tmp_path / "cache"

    cold = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    warm = analyze_project([tree], cache_dir=cache_dir,
                           select=PROJECT_RULES, root=tmp_path)
    assert warm.cache_hits == warm.files_scanned > 0

    # a rule-set change (here: a version bump) must miss everywhere —
    # a stale cache serving verdicts from an older rule set would let
    # regressions through silently
    monkeypatch.setattr(analysis_base, "LINT_VERSION", "999.0.0")
    bumped = analyze_project([tree], cache_dir=cache_dir,
                             select=PROJECT_RULES, root=tmp_path)
    assert bumped.cache_hits == 0
    assert bumped.cache_misses == bumped.files_scanned
    assert bumped.violations == cold.violations
