"""``repro.lint``: static analysis for the fault-injection harness.

The paper's methodology rests on two silent preconditions that no
simulation test can fully certify:

* the golden run must be **bit-exactly deterministic** (every trial is
  classified by comparison against it), and
* **every bit of pipeline state must be reachable by the injector**
  (the Table 1 inventory is the sampling frame; state held outside
  :class:`~repro.uarch.statelib.StateSpace` silently biases the
  masking/SDC rates of Figures 3-8).

``repro.lint`` checks the *harness itself*, statically, with four
repo-specific rules built on the stdlib :mod:`ast`:

========  ==============================================================
REP001    shadow-state detector: mutable attributes of stage classes
          must be allocated from ``StateSpace`` or whitelisted in a
          per-class ``_DERIVED`` tuple.
REP002    determinism lint: no unseeded ``random``, no wall-clock
          ``time``, no ``os.urandom``, no bare-``set`` iteration, no
          ``id()``-keyed logic on simulation paths.
REP003    ghost isolation: no behavioral path may *read* an
          ``injectable=False`` (ghost) element.
REP004    category inventory: every allocated ``StateCategory`` is one
          the analysis layer aggregates (Table 1 / Figure 5 can never
          silently drop a category).
REP005    signature bypass: state-element writes must go through the
          signature-maintaining ``Field``/``StateSpace`` paths, never
          raw ``.values`` or ``._sig`` mutation.
========  ==============================================================

Run it as ``python -m repro.lint [--format json] [paths...]`` or
``repro-faults lint``.  Findings are suppressed per line or per
function with ``# repro-lint: allow=REP00X (reason)`` pragmas, and
configured via ``[tool.repro.lint]`` in ``pyproject.toml``.
"""

from repro.lint.base import Checker, Finding, all_checkers, register
from repro.lint.config import LintConfig, load_config
from repro.lint.runner import LintResult, run_lint

__all__ = [
    "Checker",
    "Finding",
    "LintConfig",
    "LintResult",
    "all_checkers",
    "load_config",
    "register",
    "run_lint",
]
