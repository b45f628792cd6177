"""Tests for the package's import structure."""

import os
import subprocess
import sys
from pathlib import Path

import slcl


def test_model_and_catalog_do_not_load_the_solver():
    """Building a problem imports neither the solver nor the CLI: the
    package root exports only __version__, so slcl.model and slcl.catalog
    load alone."""
    src = str(Path(slcl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, slcl.catalog, slcl.model; "
            "print(sorted(m for m in ('slcl.driver', 'slcl.innersolve', "
            "'slcl.bench') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert not hasattr(slcl, "__all__")
