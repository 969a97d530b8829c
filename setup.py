"""Package metadata for the *Geometric Network Creation Games* reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/``; the same
code also runs uninstalled via ``PYTHONPATH=src`` (which is what the test
and benchmark commands in the README use).
"""

from setuptools import find_packages, setup

setup(
    name="repro-gncg",
    version="1.0.0",
    description=(
        "Reproduction of 'Geometric Network Creation Games' (SPAA 2019): "
        "game engine, incremental best-response machinery, constructions, "
        "reductions and the empirical Price-of-Anarchy toolkit"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"],
        "graphs": ["networkx>=3"],
    },
)
