"""Prime-similar sets, Goldbach-style verification, and a log-space
probabilistic model of how unlikely a failure is.

The package builds subsets of the naturals distributed like the primes
(perturbed, shifted, or loaded from disk), checks every even number in a
range for a two-element representation, and evaluates exact and asymptotic
disjointness probabilities that underflow ordinary floats by hundreds of
orders of magnitude.
"""

__version__ = "0.1.0"

from .checker import (
    BucketStats,
    CheckReport,
    DistanceSet,
    a_set,
    b_set,
    check_range,
    disjoint,
    find_representation,
    minimal_representations,
    pair_count,
    progression_counts,
)
from .errors import DomainError, SetFormatError
from .numset import NumberSet, load_set, primes_up_to, save_set
from .probmodel import (
    LogProb,
    ModelRow,
    MonteCarloResult,
    coefficient_c,
    coefficient_c_fraction,
    exact_disjoint_fraction,
    exact_disjoint_prob,
    log_f,
    model_table,
    monte_carlo_disjoint,
    tail_integral,
    upper_bound_prob,
)
from .simsets import (
    SetSpec,
    SimilarityReport,
    build,
    perturb_primes,
    shift_set,
    similarity,
)
