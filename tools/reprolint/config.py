"""reprolint's configuration: the defaults below are the only settings.

Everything the rules need to know about *this* repository — the layer
map, which modules count as dtype/numerical hot paths, where RNG
lineages start, which callables take Lemma-1 hyperparameters — lives
here.  Tests build a :class:`LintConfig` with a narrower family set or
module list for their fixtures; the command line always runs these
defaults from the working directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


#: Default layer map: lower number = lower layer; imports may only point
#: at the same or a lower layer.  The bare ``repro`` entry is the
#: package aggregator (``repro/__init__.py``) and also the longest-prefix
#: fallback for any *unmapped* submodule, so forgetting to classify a new
#: module makes importing it a violation instead of a silent pass.
DEFAULT_LAYERS: Dict[str, int] = {
    "repro": 99,
    "repro.exceptions": 0,
    "repro.utils": 0,
    "repro.obs": 0,
    # Explicit pins for the ledger/monitor/diff modules: the prefix rule
    # already covers them, but pinning makes an accidental layer bump
    # (e.g. importing core.theory from the monitors) a visible edit here.
    "repro.obs.ledger": 0,
    "repro.obs.monitors": 0,
    "repro.obs.diff": 0,
    "repro.backend": 0,
    "repro.nn": 1,
    "repro.models": 1,
    "repro.datasets": 1,
    "repro.core": 2,
    "repro.fl": 3,
    "repro.cli": 4,
    "repro.analysis": 4,
    "repro.viz": 4,
    "repro.__main__": 4,
}

DEFAULT_DTYPE_MODULES = ["repro.nn"]
DEFAULT_NUMERIC_MODULES = [
    "repro.nn.losses",
    "repro.core.proximal",
    "repro.core.estimators",
    "repro.core.local",
    "repro.models",
]

#: Modules allowed to call ``numpy.random.default_rng`` directly: the
#: single blessed origin of every Generator lineage (RL600).
DEFAULT_RNG_MODULES = ["repro.utils.rng"]

#: Factory functions whose results carry the blessed lineage.
DEFAULT_RNG_FACTORIES = [
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "derive_generator",
]

#: FedProxVR-family constructors/drivers whose ``beta``/``mu``/``tau``
#: keywords RL601 tracks through dataflow.
DEFAULT_DRIVER_CALLABLES = [
    "FederatedRunConfig",
    "run_federated",
    "make_local_solver",
    "run_fsvrg",
    "random_search",
    "compare_algorithms",
]

#: ``repro.core.theory`` entry points that validate hyperparameters at
#: runtime; passing a literal through one counts as a bound check.
DEFAULT_THEORY_CHECKS = [
    "lemma1_feasible",
    "tau_lower_bound",
    "tau_upper_bound_sarah",
    "tau_upper_bound_svrg",
    "beta_min",
    "tau_star_sarah",
    "theta_from_beta",
    "federated_factor",
    "global_iterations_required",
    "stationarity_bound",
]

#: repro.utils.validation helpers that prove their ``value`` argument
#: strictly positive (unless relaxed via ``strict=False``/``minimum<=0``).
DEFAULT_POSITIVE_CHECKS = [
    "check_positive",
    "check_positive_int",
]

ALL_FAMILIES = (
    "layering", "rng", "dtype", "safety", "theory", "provenance", "hygiene",
    "concurrency",
)


@dataclass
class LintConfig:
    """Resolved reprolint configuration."""

    root: Path = field(default_factory=Path.cwd)
    src_root: str = "src"
    layers: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    enabled_families: List[str] = field(default_factory=lambda: list(ALL_FAMILIES))
    dtype_modules: List[str] = field(default_factory=lambda: list(DEFAULT_DTYPE_MODULES))
    numeric_modules: List[str] = field(
        default_factory=lambda: list(DEFAULT_NUMERIC_MODULES)
    )
    rng_modules: List[str] = field(default_factory=lambda: list(DEFAULT_RNG_MODULES))
    rng_factories: List[str] = field(
        default_factory=lambda: list(DEFAULT_RNG_FACTORIES)
    )
    driver_callables: List[str] = field(
        default_factory=lambda: list(DEFAULT_DRIVER_CALLABLES)
    )
    theory_check_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_THEORY_CHECKS)
    )
    positive_check_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_POSITIVE_CHECKS)
    )

    def layer_of(self, module: str) -> Optional[int]:
        """Longest-prefix layer lookup; ``None`` for unmapped modules."""
        parts = module.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.layers:
                return self.layers[prefix]
        return None

    def module_matches(self, module: Optional[str], prefixes: List[str]) -> bool:
        if module is None:
            return False
        return any(
            module == p or module.startswith(p + ".") for p in prefixes
        )


