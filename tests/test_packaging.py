"""``setup.py`` carries the package metadata ``pip install -e .`` needs."""

import runpy
import subprocess
import sys
from pathlib import Path

import setuptools

REPO = Path(__file__).resolve().parent.parent


def test_setup_name_and_version_are_set():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()
    import repro

    assert out[-2:] == ["repro-cnfet-yield", repro.__version__]
    assert "UNKNOWN" not in out


def test_setup_discovers_the_src_packages(monkeypatch):
    captured = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kw: captured.update(kw))
    monkeypatch.chdir(REPO)
    runpy.run_path(str(REPO / "setup.py"))
    assert captured["package_dir"] == {"": "src"}
    assert {"repro", "repro.montecarlo", "repro.service"} <= set(
        captured["packages"]
    )
    assert captured["install_requires"] == ["numpy", "scipy"]
