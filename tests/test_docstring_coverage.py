"""Tier-1 docstring-coverage gate over the audited packages.

Wraps ``tools/docstring_coverage.py`` (the interrogate-equivalent checker
the CI docs job also runs) so the audit of PR 5 — numpydoc-style
docstrings on every public definition of :mod:`repro.growth`,
:mod:`repro.montecarlo.wafer_sim` and :mod:`repro.backend` — cannot rot
silently: a new public function without a docstring fails the suite.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The packages the PR-5 docstring audit covers; extend as further
#: packages are brought up to 100 %.
AUDITED_PATHS = (
    REPO / "src" / "repro" / "growth",
    REPO / "src" / "repro" / "backend",
    REPO / "src" / "repro" / "montecarlo",
    REPO / "src" / "repro" / "resilience",
    REPO / "src" / "repro" / "service",
    REPO / "src" / "repro" / "timing",
    REPO / "src" / "repro" / "analysis",
    REPO / "src" / "repro" / "core",
    REPO / "src" / "repro" / "device",
    REPO / "src" / "repro" / "netlist",
    REPO / "src" / "repro" / "cells",
    REPO / "src" / "repro" / "surface",
    REPO / "src" / "repro" / "serving",
)


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "docstring_coverage", REPO / "tools" / "docstring_coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["docstring_coverage"] = module
    spec.loader.exec_module(module)
    return module


def test_audited_packages_fully_documented(capsys):
    checker = _load_checker()
    exit_code = checker.main(
        [str(p) for p in AUDITED_PATHS] + ["--fail-under", "100"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0, (
        "public definitions without docstrings:\n" + captured.err
    )


def test_checker_flags_missing_docstrings(tmp_path):
    # The gate itself must fail on an undocumented public function.
    bad = tmp_path / "bad.py"
    bad.write_text('"""Module."""\n\ndef public():\n    pass\n')
    checker = _load_checker()
    assert checker.main([str(bad)]) == 1
    good = tmp_path / "good.py"
    good.write_text('"""Module."""\n\ndef public():\n    """Doc."""\n')
    assert checker.main([str(good)]) == 0
