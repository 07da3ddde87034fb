"""Packaging for the ``repro`` package (``src/`` layout).

Install for development with ``pip install -e .``, or with
``python setup.py develop`` where the ``wheel`` package is missing.  NumPy
is the only runtime dependency; the test oracles also need SciPy
(``tests/minmax_oracle.py`` solves LPs with ``linprog``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Exact and heuristic allocation of multi-kernel applications "
        "to multi-FPGA platforms"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-fpga=repro.cli:main"]},
)
