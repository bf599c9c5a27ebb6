"""Package metadata and install script.

``pip install -e .`` (or ``python setup.py develop``) installs the
``repro`` package from ``src/``; the tests and benchmarks also run
without installing, from a checkout with ``PYTHONPATH=src``.  The version
is read from ``src/repro/__init__.py`` so it has a single source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-cnfet-yield",
    version=VERSION,
    description=(
        "Reproduction of 'Carbon nanotube correlation: promising opportunity "
        "for CNFET circuit yield enhancement' (DAC 2010)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.9",
)
