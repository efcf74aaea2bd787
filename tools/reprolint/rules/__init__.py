"""Rule implementations; importing this package registers every rule."""

from tools.reprolint.rules import (  # noqa: F401
    concurrency,
    dtype,
    hygiene,
    layering,
    provenance,
    rng,
    safety,
    theory,
)
