"""periodlab: period matrices of curves and randomized moduli selection.

Library layout:

* ``curves``   - curve models, genus arithmetic, curve description files
* ``periods``  - hyperelliptic quadrature periods, normalization, Fermat
  closed forms
* ``siegel``   - Siegel upper half-space validation and random samples
* ``modsel``   - Bernoulli change-of-basis experiments with exact ranks
* ``perstats`` - spectra, power-law fits, band-limit scores
* ``cli``      - the ``periodlab`` command-line front end
"""

from .curves import (
    FermatCurve,
    HyperellipticCurve,
    PlaneCurveModel,
    bundled_curve,
    load_curve,
    moduli_count,
    period_count,
)
from .modsel import (
    BernoulliMatrix,
    bernoulli_matrix,
    exhaustive,
    first_three_rows_indices,
    is_nonsingular_exact,
    monte_carlo,
    paper_bounds,
    product_span_rank,
    run_trial,
    singularity_rate,
)
from .periods import (
    beta_function,
    chebyshev_segment_integral,
    fermat_raw_periods,
    hyperelliptic_raw_periods,
    normalize,
)
from .perstats import arg_histogram, band_limit_score, best_k_energy, fit_power_law, spectrum
from .siegel import random_siegel, validate_siegel

__all__ = [
    "FermatCurve",
    "HyperellipticCurve",
    "PlaneCurveModel",
    "BernoulliMatrix",
    "arg_histogram",
    "band_limit_score",
    "bernoulli_matrix",
    "best_k_energy",
    "beta_function",
    "bundled_curve",
    "chebyshev_segment_integral",
    "exhaustive",
    "fermat_raw_periods",
    "first_three_rows_indices",
    "fit_power_law",
    "hyperelliptic_raw_periods",
    "is_nonsingular_exact",
    "load_curve",
    "moduli_count",
    "monte_carlo",
    "normalize",
    "paper_bounds",
    "period_count",
    "product_span_rank",
    "random_siegel",
    "run_trial",
    "singularity_rate",
    "spectrum",
    "validate_siegel",
]
