"""``repro.perf`` — the benchmark subsystem.

Micro-benchmarks exercise the simulation kernel in isolation (event
churn, timeout storms, counter increments, reuseport dispatch) and
macro-benchmarks run scaled-up variants of the paper's figure
experiments end to end.  Every kernel-sensitive benchmark runs twice —
once on the optimized live kernel and once on the frozen reference
kernel (:mod:`repro.simkernel.reference`) — so the reported *speedup* is
a machine-independent measure of the optimization work, and the two
runs double as a coarse differential check (completed work must match
exactly, and the live kernel may schedule fewer events for it than the
reference, never more).

Run ``python -m repro.perf`` to execute the suite and write
``BENCH_kernel.json``/``BENCH_macro.json``; ``--check`` compares
against the committed baselines in ``benchmarks/`` and fails on a >20%
speedup regression.  See EXPERIMENTS.md for details.

Determinism: scenario code (:mod:`repro.perf.scenarios`) contains no
wall-clock reads and no ``random`` usage — all timing lives in
:mod:`repro.perf.harness`, and all randomness comes from the seeded
simulation streams.  CI lints this (see ``.github/workflows/ci.yml``).
"""

from .harness import BenchResult, Measurement, measure
from .scenarios import MACRO_SCENARIOS, MICRO_SCENARIOS, Scenario

__all__ = [
    "BenchResult",
    "Measurement",
    "measure",
    "Scenario",
    "MICRO_SCENARIOS",
    "MACRO_SCENARIOS",
]
