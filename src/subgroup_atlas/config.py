"""Runtime configuration knobs."""

import os

from .errors import ConfigError

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
    except ValueError:  # not an integer, or one past the digit limit
        value = 0
    if value <= 0:
        raise ConfigError(f"{ENV_CAP} must be a positive integer, got {raw!r}")
    return value
