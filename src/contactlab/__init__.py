"""Numerical laboratory for conformal distortion of contactomorphisms of
spaces of cooriented contact elements over tori."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraError,
    FreeAutomorphism,
    IntMatrix,
    a_block,
    cyclic_reduce,
    eigen_moduli,
    is_periodic,
    s_value,
)
from .dissipation import (
    GridSpec,
    Thresholds,
    chi_estimate,
    classify,
    lyapunov_estimate,
    r_sequence,
    verify_bound,
)
from .geometry import (
    ConstantForm,
    ContactForm,
    GeometryError,
    MetricForm,
    PullbackForm,
    RoundForm,
    TrigForm,
    TrigTerm,
)
from .maps import (
    CanonicalLift,
    ContactFlow,
    ContactMap,
    MapError,
    MetricHamiltonian,
    ModulatedNormHamiltonian,
    MomentumHamiltonian,
    ReebTranslation,
    Shear,
    identity_map,
    make_composite,
)
from .report import ExperimentConfig, load_config, run
from .shapes import (
    ShapeError,
    StarDomain,
    act,
    delta,
    duality_check,
    flat_shape,
    stable_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
