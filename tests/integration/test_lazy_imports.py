"""Importing the model and the workloads pulls in no heavy optional
dependency and no tier the exact path never uses: ``scipy.sparse`` and
``networkx`` load only when a converter or a graph generator that needs
them runs, and ``repro.model.analytical`` only when one of its names is
first read from :mod:`repro.model`."""

import os
import subprocess
import sys

import pytest

#: The names :mod:`repro.model` exports from its analytical tier.
ANALYTICAL_NAMES = ("AnalyticalResult", "EinsumEstimate", "TensorStats",
                    "UnresolvedRankShapeError", "WorkloadStats",
                    "derive_output_stats", "evaluate_analytical")


def _run(code: str) -> str:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_model_and_workloads_import_without_scipy_or_networkx():
    out = _run(
        "import sys\n"
        "import repro.model, repro.workloads\n"
        "print(sorted(m for m in ('scipy.sparse', 'networkx',"
        " 'repro.model.analytical') if m in sys.modules))\n"
    )
    assert out == "[]"


def test_analytical_names_load_on_first_access():
    out = _run(
        "import sys\n"
        "import repro.model\n"
        "first = getattr(repro.model, 'TensorStats')\n"
        "import repro.model.analytical as a\n"
        "print(first is a.TensorStats)\n"
        f"for name in {ANALYTICAL_NAMES!r}:\n"
        "    print(name, getattr(repro.model, name) is getattr(a, name),"
        " name in repro.model.__all__)\n"
    )
    lines = out.splitlines()
    assert lines[0] == "True"
    assert lines[1:] == [f"{name} True True" for name in ANALYTICAL_NAMES]


def test_unknown_model_attribute_still_raises():
    import repro.model

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.model.nope
