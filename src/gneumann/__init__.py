"""Neumann boundary-value problems on finite weighted graphs.

Solves for functions with vanishing interior Laplacian and prescribed
boundary normal derivative, by four mutually cross-validating routes:
a direct constrained linear solve, Green-kernel summation, a truncated
heat-semigroup time integral, and Monte Carlo over a continuous-time
Markov chain weighted by its boundary local time.  The spectral side
(heat kernel, Green kernel, mixing and contraction rates) ships with an
invariant-check battery.
"""

from .errors import (
    AsymmetricDuplicateError,
    DisconnectedClosureError,
    DisconnectedError,
    DomainMismatchError,
    EmptyInteriorError,
    GneumannError,
    HorizonExceededError,
    IllConditionedError,
    IncompatibleDataError,
    InputError,
    InteriorIsWholeGraphError,
    NegativeWeightError,
    NonPositiveMeasureError,
    NonpositiveHorizonError,
    NonpositiveTimeError,
    NonpositiveToleranceError,
    SelfLoopError,
    SpectrumMismatchError,
    UnknownVertexError,
)
from .forms import (
    VertexFunction,
    energy,
    energy_bilinear,
    formal_laplacian,
    interior_laplacian,
    markov_contraction,
    normal_derivative,
)
from .graphs import (
    Measure,
    NeumannProblem,
    SubgraphClosure,
    WeightedGraph,
    build_graph,
    closure_subgraph,
    is_connected,
    vertex_boundary,
)
from .solver import (
    BoundaryData,
    NeumannSolution,
    SolutionReport,
    check_compatibility,
    is_compatible,
    solve_boundary_measure,
    solve_direct,
    solve_green,
    solve_heat_integral,
    verify_solution,
)
from .spectral import (
    KernelMatrix,
    Spectrum,
    eigendecompose,
    green_kernel,
    heat_kernel,
    heat_time_integral,
    mixing_constants,
    rate_function,
)
from .stochastic import (
    MCEstimate,
    SamplePath,
    local_time,
    mc_estimate,
    mc_estimate_measure,
    occupation_density,
    sample_path,
    sample_path_graph,
    sample_paths,
    shift_path,
)

__version__ = "0.1.0"
