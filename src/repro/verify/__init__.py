"""Self-verification: conformance, golden regression, fault injection.

The repo's other tests check formulas; this package checks the *claims*:

* :mod:`conformance` — Monte Carlo coverage experiments proving the
  (q, C) guarantee holds empirically, within Wilson-interval tolerance,
  on i.i.d. log-normal, AR(1)-correlated, and regime-shift workloads.
* :mod:`golden` — pinned bound sequences for small SWF traces; any
  numerical drift in ``core``/``stats`` fails with a first-divergence diff.
* :mod:`faults` — crash-recovery scenarios for the daemon, engine, and
  cache, driven through the ``BMBP_FAULTS`` hooks of
  :mod:`repro.runtime.faults`.
* :mod:`runner` — the ``bmbp verify`` CLI: tiered suites and the
  machine-readable ``VERIFY.json`` report.

Every method these checks build comes from the one registry,
:mod:`repro.core.bank`.  Production code does not import this package;
only the CLI's ``verify`` verb does.
"""
