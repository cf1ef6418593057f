"""Towers of finite groups, subgroup lattice trees, and topological
classification of the limit subgroup space."""

from .errors import (
    AtlasError,
    CapExceeded,
    ConfigError,
    DepthMismatch,
    NotNormal,
    OutOfRange,
    PrimeOverlap,
    RelationCheckFailed,
    SpecError,
    WrongFamily,
    WrongShape,
)
from .groups import (
    FiniteGroup,
    GoursatQuintuple,
    Homomorphism,
    Subgroup,
    all_subgroups,
    center,
    centralizer,
    closure,
    commutator_subgroup,
    conjugate,
    cyclic,
    dihedral,
    direct_product,
    frattini,
    goursat,
    load_group_json,
    normalizer,
    quaternion8,
    quotient,
)
from .towers import (
    Tower,
    TowerMeta,
    build_tower,
    custom_tower,
    direct_product_tower,
    make_dihedral2,
    make_heisenberg,
    make_pirim,
    make_product,
    make_wilson,
    make_zp,
    make_zpn,
    parse_tower_spec,
    truncate,
)
from .lattice import (
    LatticeTower,
    Thread,
    basic_open_fiber,
    build_lattice_tower,
    density_check,
    isolated_nodes,
    to_dot,
)
from .filtration import (
    CBReport,
    cb_filtration,
    conjugation_audit,
    default_max_rank,
    height_bound_audit,
    solitary_candidates,
)
from .classify import Analysis, Verdict, analyze_tower
from .report import analysis_report, report_to_json

__version__ = "0.1.0"
