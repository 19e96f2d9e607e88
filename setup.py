"""Setup shim: all metadata lives in pyproject.toml.

Kept only for installs that bypass PEP 517/660 — `pip install -e .
--no-use-pep517` (or an older pip without editable-wheel support) on
environments without `wheel`.
"""
from setuptools import setup

setup()
