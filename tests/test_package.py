"""The package surface: the public names, where each comes from, and the
lazy loading of the modules behind them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qchan

# module -> the public names it gives the package
PUBLIC = {
    "channels": [
        "KrausSet", "PhaseDressing", "apply_kraus", "depolarize_direct", "depolarize_pauli",
        "dress_with_phase", "kraus_amplitude_damping", "kraus_depolarizing",
        "kraus_phase_damping", "kraus_phase_damping_alt",
    ],
    "classical_field": [
        "IsotropicGaussianNoise", "MonteCarloEstimate", "NoiseSample", "classical_decay_rate",
        "monte_carlo_polarization", "polarization_factor", "rotate_bloch",
    ],
    "damping": [
        "AmplitudeKernelSpec", "AmplitudeSolution", "ExcitedPopulation", "ad_channel_at",
        "excited_population", "population", "solve_amplitude",
    ],
    "dephasing": [
        "CoherenceEstimate", "CosineSumProcess", "DiscreteBosonBath",
        "OhmicExpDensity", "TabulatedDensity", "WhiteNoiseProcess", "correlation",
        "dephasing_channel_at", "gamma_classical", "gamma_continuum", "gamma_discrete",
        "load_tabulated", "monte_carlo_coherence",
    ],
    "errors": [
        "AccuracyError", "ContractViolationError", "DomainError", "InvalidStateError",
        "PoleError", "QChanError", "QuadratureError", "ResourceError", "UnclassifiableError",
        "UnsupportedQueryError",
    ],
    "rates": [
        "MarkovClass", "MarkovKind", "RateSeries", "TimeSeries", "classify", "rate_from_series",
    ],
    "spin_bath": [
        "CustomEnsemble", "FixedCoupling", "GaussianCoupling", "LorentzianCoupling",
        "SectorWeightTable", "SpinStar", "UniformCoupling", "asymptotic_factor", "bloch_factor",
        "decay_rate", "degeneracy", "depolarization_probability", "half_integer",
        "max_depolarization", "sector_weights",
    ],
    "states": ["BlochVector", "QubitState", "bloch_from_state", "state_from_bloch"],
}


def test_all_is_the_pinned_sorted_list():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 72
    assert qchan.__all__ == names


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_module_attribute(module):
    home = getattr(qchan, module)
    assert home.__name__ == f"qchan.{module}"
    for name in PUBLIC[module]:
        assert getattr(qchan, name) is getattr(home, name), name


def test_dir_and_star_import_cover_all():
    assert set(qchan.__all__) <= set(dir(qchan))
    namespace = {}
    exec("from qchan import *", namespace)
    assert set(qchan.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qchan.no_such_name  # noqa: B018
    assert not hasattr(qchan, "_csv_rows")
    with pytest.raises(ImportError):
        from qchan import no_such_name  # noqa: F401


def test_import_loads_nothing_until_a_name_is_used(tmp_path):
    src = Path(qchan.__file__).resolve().parents[1]
    probe = (
        "import sys, qchan\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('qchan.'))\n"
        "print(loaded())\n"
        "print(qchan.spin_bath.__name__, loaded())\n"
        "print(qchan.DomainError.__module__, loaded())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
    )
    assert result.stdout.splitlines() == [
        "[]",
        "qchan.spin_bath ['qchan._common', 'qchan.errors', 'qchan.spin_bath']",
        "qchan.errors ['qchan._common', 'qchan.errors', 'qchan.spin_bath']",
    ]
