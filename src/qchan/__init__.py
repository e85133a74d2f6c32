"""qchan: time-dependent one-qubit noise channels from microscopic models.

Depolarizing, dephasing and amplitude-damping channels are built from
explicit system-environment (or classical-noise) models, their exact
time-dependent parameters and decay rates are computed in closed form or by
controlled numerics, and every evolution can be classified as constant-rate
Markovian, time-dependent Markovian, or non-Markovian from the sign of its
decay rate.  Brute-force reference simulators live in :mod:`qchan.exact`.

Units: hbar = 1; inverse temperatures carry units of time.

Importing the package loads none of its modules.  A public name, or one of
the modules listed in ``_EXPORTS``, is imported on first access (PEP 562),
so ``import qchan.cli`` and each CLI command load only what they use.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports at the package level
_EXPORTS = {
    "errors": (
        "AccuracyError", "ContractViolationError", "DomainError", "InvalidStateError",
        "PoleError", "QChanError", "QuadratureError", "ResourceError",
        "UnclassifiableError", "UnsupportedQueryError",
    ),
    "states": ("BlochVector", "QubitState", "bloch_from_state", "state_from_bloch"),
    "channels": (
        "KrausSet", "PhaseDressing", "apply_kraus", "depolarize_direct", "depolarize_pauli",
        "dress_with_phase", "kraus_amplitude_damping", "kraus_depolarizing",
        "kraus_phase_damping", "kraus_phase_damping_alt",
    ),
    "spin_bath": (
        "CustomEnsemble", "FixedCoupling", "GaussianCoupling", "LorentzianCoupling",
        "SectorWeightTable", "SpinStar", "UniformCoupling", "asymptotic_factor",
        "bloch_factor", "decay_rate", "degeneracy", "depolarization_probability",
        "half_integer", "max_depolarization", "sector_weights",
    ),
    "classical_field": (
        "IsotropicGaussianNoise", "MonteCarloEstimate", "NoiseSample", "classical_decay_rate",
        "monte_carlo_polarization", "polarization_factor", "rotate_bloch",
    ),
    "dephasing": (
        "CoherenceEstimate", "CosineSumProcess", "DiscreteBosonBath",
        "OhmicExpDensity", "TabulatedDensity", "WhiteNoiseProcess", "correlation",
        "dephasing_channel_at", "gamma_classical", "gamma_continuum", "gamma_discrete",
        "load_tabulated", "monte_carlo_coherence",
    ),
    "damping": (
        "AmplitudeKernelSpec", "AmplitudeSolution", "ExcitedPopulation", "ad_channel_at",
        "excited_population", "population", "solve_amplitude",
    ),
    "rates": (
        "MarkovClass", "MarkovKind", "RateSeries", "TimeSeries", "classify", "rate_from_series",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
