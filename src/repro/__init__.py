"""repro — reproduction of Pichel & Rivera, "Experiences with the Sparse
Matrix-Vector Multiplication on a Many-core Processor" (2012).

The package models the Intel SCC research processor and reruns the
paper's SpMV characterization study on the model:

- :mod:`repro.sim` — deterministic discrete-event engine.
- :mod:`repro.scc` — SCC architecture model (topology, caches, mesh,
  memory controllers, frequency/power).
- :mod:`repro.rcce` — RCCE-style message-passing runtime.
- :mod:`repro.sparse` — CSR/COO formats, SpMV kernels, partitioners and
  the reconstructed Table I testbed.
- :mod:`repro.core` — the study itself: mappings, experiment runner,
  metrics and the cross-architecture comparison models.
- :mod:`repro.analysis` — static linter and dynamic checkers for RCCE
  programs.
- :mod:`repro.chaos` — the OS-level chaos harness (``repro chaos``)
  for the supervised sweep executor and the content store.
- :mod:`repro.obs` — structured tracing (simulated-time spans, Chrome
  trace export) and a labelled metrics registry.

Quickstart::

    from repro.sparse import build_matrix
    from repro.core import SpMVExperiment
    from repro.scc import CONF0

    a = build_matrix(12, scale=0.1)           # crystk03 stand-in
    exp = SpMVExperiment(a)
    r = exp.run(n_cores=24, config=CONF0)
    print(r.gflops, r.mflops_per_watt)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
