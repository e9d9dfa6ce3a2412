"""Neumann boundary-value problems on finite weighted graphs.

Solves for functions with vanishing interior Laplacian and prescribed
boundary normal derivative, by four mutually cross-validating routes:
a direct constrained linear solve, Green-kernel summation, a truncated
heat-semigroup time integral, and Monte Carlo over a continuous-time
Markov chain weighted by its boundary local time.  The spectral side
(heat kernel, Green kernel, mixing and contraction rates) ships with an
invariant-check battery.
"""

from .errors import *
from .forms import *
from .graphs import *
from .solver import *
from .spectral import *
from .stochastic import *

__version__ = "0.1.0"
