"""tracelift: block-LMI SDP models for matrix geometric means and
trace functionals with rational exponents."""

from .errors import (
    ComplexDataError,
    DimensionMismatch,
    DomainError,
    IoError,
    MissingAssignment,
    NoObjective,
    NotPositiveDefinite,
    NotRealified,
    SdpaParseError,
    TraceliftError,
    WrongExponent,
)
from .geomean import (
    CensusReport,
    Construction,
    GeoMeanTask,
    build_geomean,
    lmi_census_audit,
)
from .instances import (
    FUNCTIONS,
    Function,
    haar_unitary,
    random_density,
    random_matrix,
    random_pd,
)
from .kernel import (
    RationalExponent,
    fidelity_value,
    geometric_mean,
    herm_log,
    herm_power,
    hermitize,
    kron,
    lieb_value,
    quantum_rel_entropy,
    tsallis_entropy,
    tsallis_rel_entropy,
    upsilon_value,
    vec_rows,
    von_neumann_entropy,
)
from .lieb import (
    build_fidelity,
    build_kron_power,
    build_lieb,
    build_multivariate,
    build_tsallis_entropy,
    build_tsallis_rel_entropy,
    build_upsilon,
    fidelity_witness,
    upsilon_equality_witness,
)
from .model import (
    AffineBlock,
    LinearFunctional,
    LmiConstraint,
    ModelBuilder,
    Objective,
    SdpModel,
    VarId,
    WitnessAssignment,
    check_feasible,
    embed_witness,
    model_is_real,
    realify,
)
from .sdpa import export_sdpa, import_sdpa
from .solver import SolveOptions, SolveResult, solve

__version__ = "0.1.0"
