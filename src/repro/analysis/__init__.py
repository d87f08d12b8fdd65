"""Experiment harness: run campaigns, summarize, render paper-style output.

* :mod:`repro.analysis.stats` — summary statistics (mean, median,
  percentiles, confidence intervals) without heavyweight dependencies.
* :mod:`repro.analysis.experiments` — the paper's evaluation campaigns:
  the Fig. 1 node-count sweep on each testbed, the NTX coverage curves,
  the degree sweep, fault-tolerance and ablation experiments.
* :mod:`repro.analysis.reporting` — fixed-width tables and CSV export
  that mirror the rows/series the paper reports.

The names below resolve on first access (PEP 562), so importing one
submodule — the service stack needs only ``sharding`` and ``campaign``
— does not load the experiment runners, the engines or the scenarios.
"""

from __future__ import annotations

import importlib

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "SummaryStats": "repro.analysis.stats",
    "mean": "repro.analysis.stats",
    "median": "repro.analysis.stats",
    "percentile": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "Figure1Point": "repro.analysis.experiments",
    "Figure1Result": "repro.analysis.experiments",
    "run_degree_sweep": "repro.analysis.experiments",
    "run_fault_tolerance": "repro.analysis.experiments",
    "run_figure1": "repro.analysis.experiments",
    "run_ntx_coverage_curve": "repro.analysis.experiments",
    "format_figure1_table": "repro.analysis.reporting",
    "format_table": "repro.analysis.reporting",
    "to_csv": "repro.analysis.reporting",
}

__all__ = [
    "SummaryStats",
    "mean",
    "median",
    "percentile",
    "summarize",
    "Figure1Point",
    "Figure1Result",
    "run_figure1",
    "run_ntx_coverage_curve",
    "run_degree_sweep",
    "run_fault_tolerance",
    "format_table",
    "format_figure1_table",
    "to_csv",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
