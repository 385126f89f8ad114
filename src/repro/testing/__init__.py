"""Deterministic test harnesses for the ``repro`` library.

Currently one module: :mod:`repro.testing.faults`, the seeded
fault-injection harness the store suites (and the ``fault-smoke`` CI
job) use to exercise every write, read and maintenance step of the
durable snapshot store reproducibly.
"""

from repro.testing.faults import (
    FaultEvent,
    FaultPlan,
    active_faults,
    clear_faults,
    draw_disk_fault,
    execute_disk_fault,
    flip_one_bit,
    install_faults,
    torn_payload,
    use_faults,
)

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "active_faults",
    "clear_faults",
    "draw_disk_fault",
    "execute_disk_fault",
    "flip_one_bit",
    "install_faults",
    "torn_payload",
    "use_faults",
]
