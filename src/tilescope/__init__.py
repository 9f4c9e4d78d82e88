"""Exact arithmetic for integer self-similar tile digit sets.

Decides tile-digit-set status through a finite carry automaton, extracts
residue-class (skew product form) decompositions of digit expansions,
runs the cyclotomic (T1)/(T2) machinery with explicit spectra, verifies
Hadamard-triple spectral data, and bounds tile measure by exact interval
covers.  No floating point in any decision path.

Every public name is listed once, in ``_EXPORTS`` under the module that
defines it, and is imported on first access (PEP 562): ``import tilescope``
loads none of the modules, and a name costs only its own module's import.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "core": "DigitSet ExpandedDigits ExpansionLimitError PeriodicSet direct_sum_complete "
    "expand max_expansion_level normalize residues_mod tile_measure",
    "cyclotomic": "IntPolynomial PrimePowerSupport RationalSpectrum check_t1 check_t2 "
    "cyclotomic_poly divides divides_oracle euler_phi laba_spectrum mask_poly "
    "prime_power_root support vanishes_at",
    "geometry": "IntervalUnion MeasureReport approx approx_oracle covers hull intervals_json "
    "intervals_json_text measure_report tower_svg",
    "report": "analyze_digit_set report_to_json",
    "skewform": "SkewDecomposition gen_product_form gen_weak_product_form least_stage "
    "lift_stage skew_decompose verify_decomposition",
    "spectral": "AnLaiReport SpectralConditionError build_spectral_data is_hadamard "
    "truncated_spectrum unitarity_residual",
    "tiling": "CarryAutomaton ReplicatingChain TileWitness collision_level collision_oracle "
    "is_tile is_tile_oracle replicating_chain self_replicating_tiling "
    "stabilization_exponent verify_self_replicating",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound here once imported
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
