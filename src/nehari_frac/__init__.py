"""Discrete Nehari-manifold machinery for a critical fractional p-Laplacian system.

The package discretizes the energy of a two-component system with a sublinear
term (exponent q < p) and a critical coupling term on a uniform lattice with
the singular pair kernel, and provides: norms and forms, the functional and
its variations, fibering-map projection onto the two Nehari branches, the
discrete Sobolev constants with every closed-form threshold, truncated-bubble
scans, the two-branch solver, and a deterministic CLI.
"""

from .params import ModelParams
from .grid import (
    Field,
    FieldPair,
    GridDomain,
    build_grid,
    lr_norm,
    seminorm_p,
)
from .fibering import (
    FiberingReport,
    ReducedTriple,
    phi,
    phi_prime,
    phi_second,
    project,
    psi,
    reduce_pair,
    t_max,
)
from .constants import (
    ConstantsReport,
    c0,
    c_infty,
    compute_S,
    compute_S_alpha_beta,
    compute_S_coupled,
    d0_bound,
    hypotheses_check,
    lambda1,
    ratio_check,
    ratio_predicted,
    thresholds,
)
from .bubbles import (
    BubbleProfile,
    bubble_field,
    make_bubble,
    model_profile,
    norm_estimate_scan,
    rescale,
    sup_energy_scan,
)
from .solver import (
    SolutionReport,
    minimize_on_branch,
    semitrivial_tmax_check,
    solve_scalar_sublinear,
    solve_two,
)
from .fieldio import load_field, save_field

__version__ = "0.1.0"
