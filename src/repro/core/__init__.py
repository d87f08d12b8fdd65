"""The paper's contribution: SSS-over-MiniCast aggregation protocols.

* :mod:`repro.core.config` — protocol configuration (field, degree,
  crypto mode, radio parameters) and per-variant settings.
* :mod:`repro.core.payload` — the packet data path: share encryption
  (AES-128-CTR + CBC-MAC under pairwise keys) and sum-packet
  serialization with contributor bitmaps.
* :mod:`repro.core.bootstrap` — the bootstrapping phase: key
  provisioning, NTX-coverage profiling, collector election, and
  completion-time profiling for S4's truncated sharing schedule.
* :mod:`repro.core.protocol` — the two-phase round engine shared by both
  variants.
* :mod:`repro.core.s3` — **S3**, the naive SSS mapping (n² sharing chain,
  conservative full-coverage NTX, radios on all round).
* :mod:`repro.core.s4` — **S4**, the scalable variant (collector-trimmed
  chain, low profiled NTX, truncated schedule, early radio-off).
* :mod:`repro.core.metrics` — per-node and per-round metric containers.

The names below resolve on first access (PEP 562), so importing one
submodule — the service stack needs only ``config`` and ``metrics`` —
does not load the protocol engines.
"""

from __future__ import annotations

import importlib

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "CryptoMode": "repro.core.config",
    "ProtocolConfig": "repro.core.config",
    "S3Config": "repro.core.config",
    "S4Config": "repro.core.config",
    "NodeMetrics": "repro.core.metrics",
    "RoundMetrics": "repro.core.metrics",
    "S3Engine": "repro.core.s3",
    "S4Engine": "repro.core.s4",
}

__all__ = [
    "CryptoMode",
    "ProtocolConfig",
    "S3Config",
    "S4Config",
    "NodeMetrics",
    "RoundMetrics",
    "S3Engine",
    "S4Engine",
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
