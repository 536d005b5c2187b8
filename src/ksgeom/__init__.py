"""Geometric engine for two-valued measures on rays of R^3.

Canonical sphere geometry, tangent-plane projection, constructive
reachability with verifiable certificates, derivation traces mechanizing
the value-propagation arguments, extraction of finite triad systems, and
an exhaustive coloring checker that independently confirms the extracted
systems admit no two-valued coloring. The package is pure Python with no
dependencies; the coloring search has a single kernel (ksgeom.kernels).

The package attribute ksgeom.reach is the function reach, not its module:
"from ksgeom import reach" gives the function. The module is reached by
"from ksgeom.reach import ..." or importlib.import_module("ksgeom.reach").
"""

from .coloring import (
    ColoringResult,
    SolveMode,
    count_colorings_by_enumeration,
    is_valid_coloring,
    refute_by_core_enumeration,
    solve,
)
from .demos import cover_index, demo_first_proof, demo_second_proof, qn_sequence
from .plane import PlaneLine, PlanePoint, Side, circle_image_line, project, side_of, unproject
from .reach import (
    MAX_SPIRAL_STEPS,
    N_MAX,
    ReachCertificate,
    VerifyReport,
    asymptotic_residual,
    choose_shell_n,
    reach,
    shell,
    step_one,
    verify_certificate,
)
from .sphere import (
    EPS,
    NORTH_POLE,
    Ray,
    Rotation,
    Tripod,
    canonicalize,
    complete_tripod,
    equator_partner,
    rotation_to_pole,
    third_point,
)
from .system import TriadSystem, load_system, save_system, validate_system
from .trace import (
    DerivationTrace,
    ValueFact,
    decision_core,
    extract_triad_system,
)

__version__ = "0.1.0"

__all__ = [
    "ColoringResult",
    "DerivationTrace",
    "EPS",
    "MAX_SPIRAL_STEPS",
    "N_MAX",
    "NORTH_POLE",
    "PlaneLine",
    "PlanePoint",
    "Ray",
    "ReachCertificate",
    "Rotation",
    "Side",
    "SolveMode",
    "TriadSystem",
    "Tripod",
    "ValueFact",
    "VerifyReport",
    "asymptotic_residual",
    "canonicalize",
    "choose_shell_n",
    "circle_image_line",
    "complete_tripod",
    "count_colorings_by_enumeration",
    "cover_index",
    "decision_core",
    "demo_first_proof",
    "demo_second_proof",
    "equator_partner",
    "extract_triad_system",
    "is_valid_coloring",
    "load_system",
    "project",
    "qn_sequence",
    "reach",
    "refute_by_core_enumeration",
    "rotation_to_pole",
    "save_system",
    "shell",
    "side_of",
    "solve",
    "step_one",
    "third_point",
    "unproject",
    "validate_system",
    "verify_certificate",
]
