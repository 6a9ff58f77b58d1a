"""Legacy setup shim: enables editable installs on older setuptools."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.kernels": ["*.mc"]},
    python_requires=">=3.10",
)
