"""Trimmed-surface analysis kernel: NURBS evaluation, a two-curve parameter
map with full first/second derivatives, quadrature over trimmed regions,
IGES ingestion and a small isogeometric plane-stress solver."""

from .errors import (
    AssemblyError,
    DomainError,
    IgesParseError,
    InvalidGeometryError,
    InvalidRefinementError,
    NativeFormatError,
    SingularMapError,
    SolveError,
    TrimigaError,
    UnsupportedTopologyError,
)
from .nurbs import (
    CurveDerivatives,
    KnotVector,
    NurbsCurve,
    NurbsSurface,
    SurfaceDerivatives,
)
from .plate import (
    FieldSpace,
    Material,
    PlateConfig,
    kirsch_reference,
    solve_plate,
    solve_problem,
)
from .quadrature import gauss_points_1d, integrate, partition_regions
from .shapes import identity_region, plate_with_hole_region
from .trimming import (
    Breakpoint,
    CompositeDerivatives,
    MapDerivatives,
    RegionReport,
    TrimmedRegion,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "Breakpoint",
    "CompositeDerivatives",
    "CurveDerivatives",
    "DomainError",
    "FieldSpace",
    "IgesParseError",
    "InvalidGeometryError",
    "InvalidRefinementError",
    "KnotVector",
    "MapDerivatives",
    "Material",
    "NativeFormatError",
    "NurbsCurve",
    "NurbsSurface",
    "PlateConfig",
    "RegionReport",
    "SingularMapError",
    "SolveError",
    "SurfaceDerivatives",
    "TrimigaError",
    "TrimmedRegion",
    "UnsupportedTopologyError",
    "gauss_points_1d",
    "identity_region",
    "integrate",
    "kirsch_reference",
    "partition_regions",
    "plate_with_hole_region",
    "solve_plate",
    "solve_problem",
    "__version__",
]
