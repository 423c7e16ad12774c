"""Golden reports: every field of ``repro lint --project`` stays put.

The ``# expect:`` marker test in ``test_project.py`` pins codes and
lines only, so a reworded message or a shifted column would slip past
it.  These goldens pin the complete JSON report (code, path, line,
col, message, counts) of every project fixture scenario, plus the
SARIF rendering CI uploads, byte for byte.

Regenerate a golden only for a deliberate change in what the analyzer
reports, by running the same command from inside the scenario::

    cd tests/analysis/fixtures/project/<name>
    PYTHONPATH=<repo>/src python -m repro lint --project --no-cache \\
        --format json . > <repo>/tests/analysis/golden/project_<name>.json
"""

from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main

HERE = Path(__file__).parent
SCENARIOS = HERE / "fixtures" / "project"
GOLDEN = HERE / "golden"


def _lint(scenario, fmt, capsys, monkeypatch):
    monkeypatch.chdir(SCENARIOS / scenario)
    code = lint_main(["--project", "--no-cache", "--format", fmt, "."])
    return code, capsys.readouterr().out


def test_every_scenario_has_a_golden():
    scenarios = sorted(p.name for p in SCENARIOS.iterdir() if p.is_dir())
    goldens = sorted(p.stem[len("project_"):]
                     for p in GOLDEN.glob("project_*.json"))
    assert scenarios == goldens


@pytest.mark.parametrize("scenario", sorted(
    p.name for p in SCENARIOS.iterdir() if p.is_dir()))
def test_project_json_report_matches_golden(scenario, capsys,
                                            monkeypatch):
    code, out = _lint(scenario, "json", capsys, monkeypatch)
    assert code == 1, "every scenario carries at least one finding"
    want = (GOLDEN / f"project_{scenario}.json").read_text(
        encoding="utf-8")
    assert out == want


def test_project_sarif_report_matches_golden(capsys, monkeypatch):
    _code, out = _lint("determinism", "sarif", capsys, monkeypatch)
    want = (GOLDEN / "project_determinism.sarif").read_text(
        encoding="utf-8")
    assert out == want
