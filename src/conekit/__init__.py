"""conekit: support cones of convex bodies, their congruence over O(3),
symmetry detection, and sphere-verdict scene verification."""

from .config import HarnessConfig
from .errors import (
    ApexInsideBodyError,
    ConeKitError,
    FrameSingularityError,
    IndeterminateIndexError,
    RankDeficientError,
    SceneInvalidError,
    UnresolvedConeError,
)
from .geom import (
    ConvexBody3,
    PlaneFrame,
    RigidMotion,
    apply_motion,
    compose,
    hausdorff_distance,
    inverse,
    polytope_from_off,
    read_off,
    read_off_vertices,
    reflection_in_plane,
    rotation_about_line,
)
from .cones import (
    PlanarSection,
    SupportCone,
    boundary_image_samples,
    canonical_axis,
    cross_section,
    motion_image,
    support_cone,
)
from .congruence import (
    CongruenceResult,
    ContinuityProbeResult,
    PairwiseCongruence,
    congruence_distance,
    continuity_probe,
    diameter_lower_bounds,
    pairwise_congruence_matrix,
    procrustes_orthogonal,
)
from .symmetry import (
    SymmetryAxis,
    SymmetryReport,
    case_split,
    detect_circle,
    detect_symmetries,
    is_right_circular,
)
from .topology import (
    FrameField,
    TangentField,
    TriMesh,
    TwoSequenceLimits,
    icosphere,
    meridian_frame,
    meridian_frame_field,
    poincare_hopf_report,
    poincare_hopf_sum,
    polynomial_field,
    projected_constant_field,
    rotational_field,
    two_sequence_limits,
    vertex_index,
)
from .harness import (
    EtaResult,
    Scene,
    SectionFieldResult,
    VerificationReport,
    eta_map,
    load_scene,
    matrix_to_csv,
    report_to_dict,
    sample_boundary,
    scene_cones,
    scene_from_dict,
    section_field,
    verify_scene,
)

__all__ = [name for name in dir() if not name.startswith("_")]
