"""Setuptools entry point.

The pyproject.toml carries the project metadata; this file exists so that
``pip install -e .`` also works with older setuptools/pip tool-chains that
lack PEP 660 editable-install support (e.g. offline environments without the
``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "UV-diagram: a Voronoi diagram for uncertain data (ICDE 2010) - "
        "reproduction library"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
