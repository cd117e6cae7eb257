"""Importing the model and the workloads pulls in no heavy optional
dependency: ``scipy.sparse`` and ``networkx`` load only when a converter
or a graph generator that needs them runs."""

import os
import subprocess
import sys


def test_model_and_workloads_import_without_scipy_or_networkx():
    code = (
        "import sys\n"
        "import repro.model, repro.workloads\n"
        "print(sorted(m for m in ('scipy.sparse', 'networkx')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
