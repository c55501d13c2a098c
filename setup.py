"""Packaging for the ``repro-treemem`` distribution.

``pip install -e .`` installs the ``repro`` package from ``src/`` and the
``repro-treemem`` console script (an alias of ``python -m repro.cli``).
The editable install needs the ``wheel`` package; without it, put ``src``
on ``PYTHONPATH`` instead.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.M,
).group(1)

setup(
    name="repro-treemem",
    version=VERSION,
    description="Memory-optimal tree traversals for sparse matrix factorization",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    entry_points={"console_scripts": ["repro-treemem = repro.cli:main"]},
)
