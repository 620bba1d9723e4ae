"""Setuptools metadata for the `repro` package (sources under src/).

The modern editable-install path (PEP 660) requires the `wheel` package,
which offline environments may lack.  `python setup.py develop` (or
`pip install -e . --no-build-isolation` on newer setuptools) works either
way.  `python setup.py --name --version` prints the metadata without
installing anything.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
