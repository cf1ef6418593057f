"""Runtime configuration knobs."""

import os

DEFAULT_ORDER_CAP = 4096

# Largest group order for which subgroup bitsets are materialized in
# structurally built product lattices.
PRODUCT_BITSET_LIMIT = 1 << 16

ENV_CAP = "SUBGROUP_ATLAS_CAP"


def order_cap() -> int:
    """Current group-order cap (env SUBGROUP_ATLAS_CAP overrides the default)."""
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{ENV_CAP} must be positive, got {value}")
    return value
