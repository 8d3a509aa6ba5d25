"""The shared frontier-driver engine used by every BaB-style verifier.

:mod:`repro.engine.driver` owns the gather → flatten → batched-bound →
attach loop that ABONN, the BaB baseline, and the αβ-CROWN baseline all
execute; the verifiers only supply a :class:`~repro.engine.driver.WorkSource`
describing where sub-problems come from and where their children go.  See
``docs/ENGINE.md`` for the full contract.
"""

from repro.engine.driver import (
    DriverRun,
    DriverVerdict,
    EngineRun,
    Expansion,
    FrontierDriver,
    LinearWorkSource,
    WorkSource,
    root_verdict,
)

__all__ = [
    "DriverRun",
    "DriverVerdict",
    "EngineRun",
    "Expansion",
    "FrontierDriver",
    "LinearWorkSource",
    "WorkSource",
    "root_verdict",
]
