"""Importing the service stack must not load the paper's simulator.

The package inits of ``repro``, ``repro.core`` and ``repro.analysis``
resolve their public names lazily, so a service process pays only for
the modules it runs: no protocol engines, no MiniCast, no scenarios.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)


def _loaded_after(statement: str) -> set[str]:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(result.stdout))


def test_service_import_skips_engines_and_simulator():
    loaded = _loaded_after("import repro.service")
    assert "repro.service.daemon" in loaded
    unwanted = {
        "repro.core.s3",
        "repro.core.s4",
        "repro.core.protocol",
        "repro.analysis.experiments",
        "repro.scenarios",
    }
    assert not loaded & unwanted
    assert not any(name == "repro.ct" or name.startswith("repro.ct.") for name in loaded)


def test_lazy_package_names_still_resolve():
    loaded = _loaded_after(
        "import repro\n"
        "from repro import S4Engine, flocklab, ShamirScheme\n"
        "from repro.core import S3Engine\n"
        "from repro.analysis import run_figure1, summarize\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "assert all(getattr(repro, name) is not None for name in repro.__all__)"
    )
    assert {"repro.core.s4", "repro.analysis.experiments"} <= loaded


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.analysis.reporting", "repro.scenarios"]
)
def test_fresh_process_imports_any_entry_point(module):
    # Nothing is imported eagerly any more, so each of these can be the
    # first module a process loads; none may enter the experiments <->
    # scenarios registration cycle from the side that sees a partial module.
    assert module in _loaded_after(f"import {module}")
