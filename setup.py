"""Packaging for the ``repro`` package.

This file is the whole packaging description (the repository has no
``pyproject.toml``): the importable code lives under ``src/`` and the
version is read from ``src/repro/_version.py``.  Install with
``pip install -e .`` (or ``python setup.py develop`` where the
``wheel`` package is unavailable).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Embedded heartbeat classification with random projections, "
        "and its streaming serving stack"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
