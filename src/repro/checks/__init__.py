"""``repro-check``: static analysis of the repo's own Python source.

Where :mod:`repro.analysis` (``repro-lint``) enforces the paper's
conversion invariants over *trace data*, this package enforces the
pipeline's correctness invariants over the *code itself*:

- **RC1xx determinism** — the simulator/converter packages must stay
  bit-reproducible across processes and machines: no global RNG, no
  wall-clock reads, no ``id()``-keyed maps, no ``PYTHONHASHSEED``-
  dependent ``hash()``, no iteration over unordered sets, no unsorted
  filesystem enumeration.
- **RC2xx cache-key completeness** — every field of the experiment
  configuration must provably reach the content-addressed cache keys
  (the class of bug PR 1 fixed: a ``(name, l1i_prefetcher)`` memo key
  aliasing distinct configs).
- **RC3xx worker/pickle safety** — functions and payloads crossing the
  :mod:`repro.experiments.parallel` process-pool boundary must be
  picklable and free of captured mutable state.
- **RC4xx engine parity** — the scalar and vector engines must update
  the same :class:`~repro.sim.stats.SimStats` counters and honour the
  same :class:`~repro.sim.config.SimConfig` knobs, statically, before
  the differential tests ever run.

Only the source-specific parts live here: the rules, the
:class:`Finding` type, :class:`CheckRunner` and the cache key.  The
machinery shared with :mod:`repro.analysis` — the rule registry with
ruff-style ``--select/--ignore`` prefix selection, severity-driven exit
codes, baseline suppression with per-finding justifications, text/JSON
rendering and the content-addressed report cache
(:class:`~repro.findings.ReportCache` over the ``checks`` blob kind) —
is the findings core, :mod:`repro.findings`.
"""

from repro.checks.engine import (  # noqa: F401
    CheckReport,
    CheckRunner,
    check_catalog,
)
from repro.checks.findings import Finding  # noqa: F401
from repro.checks.project import CheckProject, SourceModule  # noqa: F401
from repro.checks.rules import (  # noqa: F401
    CHECK_RULES,
    CheckRule,
    ModuleCheckRule,
    ProjectCheckRule,
)
from repro.findings import Severity  # noqa: F401
