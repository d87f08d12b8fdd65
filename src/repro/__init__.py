"""repro — Multi-Party Computation in IoT for Privacy-Preservation.

A full reproduction of Goyal & Saha (ICDCS 2022): Shamir Secret Sharing
based privacy-preserving data aggregation running over concurrent-
transmission (Glossy / MiniCast) communication, evaluated on simulated
nRF52840 testbeds.

Quickstart::

    from repro import S4Engine, S4Config, CryptoMode, flocklab

    spec = flocklab()
    engine = S4Engine.for_testbed(spec)
    secrets = {node: 20 + node for node in spec.topology.node_ids}
    metrics = engine.run(secrets, seed=1)
    print(metrics.per_node[0].aggregate, metrics.expected_aggregate)

Layer map (bottom-up): :mod:`repro.field` → :mod:`repro.crypto` →
:mod:`repro.sss` (pure algorithms); :mod:`repro.phy` →
:mod:`repro.topology` → :mod:`repro.sim` → :mod:`repro.ct` (wireless
substrate); :mod:`repro.core` (the paper's S3/S4), :mod:`repro.privacy`,
:mod:`repro.analysis`, :mod:`repro.cli` (evaluation).
"""

from __future__ import annotations

import importlib

#: Public name -> defining module, imported on first attribute access
#: (PEP 562), so ``import repro.service`` does not pay for the protocol
#: engines, the MiniCast simulator or the testbeds.
_EXPORTS = {
    "CryptoMode": "repro.core.config",
    "ProtocolConfig": "repro.core.config",
    "S3Config": "repro.core.config",
    "S4Config": "repro.core.config",
    "NodeMetrics": "repro.core.metrics",
    "RoundMetrics": "repro.core.metrics",
    "S3Engine": "repro.core.s3",
    "S4Engine": "repro.core.s4",
    "ReproError": "repro.errors",
    "PrimeField": "repro.field.prime_field",
    "MERSENNE_61": "repro.field.prime_field",
    "MERSENNE_127": "repro.field.prime_field",
    "ShamirScheme": "repro.sss.scheme",
    "TestbedSpec": "repro.topology.testbeds",
    "flocklab": "repro.topology.testbeds",
    "dcube": "repro.topology.testbeds",
    "testbed_by_name": "repro.topology.testbeds",
}

__version__ = "1.0.0"

__all__ = [
    "CryptoMode",
    "ProtocolConfig",
    "S3Config",
    "S4Config",
    "S3Engine",
    "S4Engine",
    "NodeMetrics",
    "RoundMetrics",
    "ReproError",
    "PrimeField",
    "MERSENNE_61",
    "MERSENNE_127",
    "ShamirScheme",
    "TestbedSpec",
    "flocklab",
    "dcube",
    "testbed_by_name",
    "__version__",
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
