"""reprolint — repository-specific AST static analysis.

A self-contained (stdlib-only) linter enforcing the invariants this
reproduction's correctness rests on but that Python never checks at
runtime:

* **layering** (RL1xx) — the package DAG
  ``utils -> nn/models/datasets -> core -> fl -> cli/analysis/viz``;
* **RNG discipline** (RL2xx) — no legacy global numpy RNG; thread
  ``numpy.random.Generator`` via :mod:`repro.utils.rng`;
* **dtype discipline** (RL3xx) — float64 end to end in nn hot paths;
* **numerical safety** (RL4xx) — bare excepts, mutable defaults,
  unclamped log/exp and unguarded division in loss/prox code;
* **theory contracts** (RL5xx) — literal hyperparameters violating the
  ICPP'20 Lemma 1 (``beta > 3``, tau upper bounds);
* **flow provenance** (RL6xx) — whole-program/dataflow rules: every
  ``numpy.random.Generator`` must descend from the
  :mod:`repro.utils.rng` lineage, and literal hyperparameters reaching
  a FedProxVR driver must satisfy (or be runtime-checked against) the
  Lemma 1 bounds;
* **whole-program hygiene** (RL7xx) — import cycles, broken/dead
  ``__all__`` exports, unreachable code, unused imports;
* **concurrency** (RL8xx) — lock discipline, RNG and array escape into
  executor tasks, SharedMemory release, unordered aggregation.

Its settings are the defaults in :mod:`tools.reprolint.config`.  See
``docs/LINTING.md`` for every rule and the suppression syntax
(``# reprolint: disable=RLxxx``).
"""

from tools.reprolint.config import LintConfig
from tools.reprolint.engine import LintReport, lint_paths
from tools.reprolint.findings import Finding, Severity
from tools.reprolint.registry import all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "Severity",
    "all_rules",
    "lint_paths",
]
