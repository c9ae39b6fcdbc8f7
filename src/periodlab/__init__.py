"""periodlab: period matrices of curves and randomized moduli selection.

Library layout:

* ``curves``   - curve models, genus arithmetic, curve description files
* ``periods``  - hyperelliptic quadrature periods, normalization, Fermat
  closed forms, and ``period_matrix``, the pipeline over both
* ``siegel``   - Siegel upper half-space validation and random samples
* ``modsel``   - Bernoulli change-of-basis experiments with exact ranks
* ``perstats`` - spectra, power-law fits, band-limit scores
* ``cli``      - the ``periodlab`` command-line front end

``import periodlab`` loads no submodule: each is imported when it, or one
of its names, is first read from the package (PEP 562), which then binds it.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "curves": "FermatCurve HyperellipticCurve PlaneCurveModel bundled_curve load_curve "
    "moduli_count period_count",
    "modsel": "BernoulliMatrix bernoulli_matrix exhaustive first_three_rows_indices monte_carlo "
    "is_nonsingular_exact product_span_rank run_trial singularity_rate",
    "periods": "beta_function chebyshev_segment_integral fermat_raw_periods "
    "hyperelliptic_raw_periods normalize period_matrix",
    "perstats": "arg_histogram band_limit_score best_k_energy fit_power_law spectrum",
    "siegel": "random_siegel validate_siegel",
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "exact", "rng"}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCES:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
