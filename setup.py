"""Packaging for the ``repro`` package (``src/`` layout).

Install for development with ``pip install -e .``, or with
``python setup.py develop`` where the ``wheel`` package is missing.  SciPy
1.15 is the floor: from that release on scipy vendors the HiGHS bindings
(``scipy.optimize._highspy._core``) that the exact solver's LPs run on.
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
    install_requires=["numpy", "scipy>=1.15"],
    entry_points={"console_scripts": ["repro-fpga=repro.cli:main"]},
)
