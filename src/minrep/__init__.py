"""Exact arithmetic for the modular group representations and 1-point
function spaces attached to Virasoro minimal models.

The package classifies, entirely over exact rationals, the representations
rho_{m,n} of SL2(Z) spanned by self-coupled intertwining operator traces of
the minimal model V(p, q): self-coupled partners, exponent profiles of
rho(T), levels, congruence/noncongruence certificates, the comparison of
1-point function spaces with holomorphic vector-valued modular forms, and
an exact q-series engine for the ring of modular differential operators
that verifies the underlying identities.

The q-series names resolve through the module __getattr__ below, which
imports minrep.qseries on first use: the classifier never needs the
engine, so importing the package (or minrep.cli) does not load it.
"""

from .congruence import (CongruenceVerdict, Level,
                         boundary_prime_power_criterion, classify_low_dim,
                         congruence_verdict, distinct_primes_criterion, level,
                         min_congruence_dim, nw_min_dim, prime_power_criterion)
from .core import (MinimalModel, ModuleLabel, canonical_label, central_charge,
                   conformal_weight, list_modules, validate_model)
from .errors import MinrepError
from .fusion import rep_dimension, self_coupled_partners
from .repdata import (MinimalWeightProfile, RepProfile,
                      irreducibility_certificate, minimal_weight_identity,
                      minimal_weight_profile, prime_case_closed_forms,
                      rep_profile)
from .spaces import (SpaceComparison, low_dim_case, ratio_bounds,
                     ratio_in_window, ratio_lambda_consistency,
                     space_comparison)

__version__ = "0.1.0"

_QSERIES_NAMES = frozenset({
    "DEFAULT_ORDER", "ModularForm", "ModularOperator", "QSeries",
    "apply_operator", "bernoulli", "eisenstein", "eta_power",
    "modular_derivative",
})


def __getattr__(name):
    if name in _QSERIES_NAMES:
        from . import qseries
        return getattr(qseries, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "CongruenceVerdict", "DEFAULT_ORDER", "Level", "MinimalModel",
    "MinimalWeightProfile", "MinrepError", "ModularForm", "ModularOperator",
    "ModuleLabel", "QSeries", "RepProfile", "SpaceComparison",
    "apply_operator", "bernoulli", "boundary_prime_power_criterion",
    "canonical_label", "central_charge", "classify_low_dim",
    "conformal_weight", "congruence_verdict", "distinct_primes_criterion",
    "eisenstein", "eta_power", "irreducibility_certificate", "level",
    "list_modules", "low_dim_case", "min_congruence_dim",
    "minimal_weight_identity", "minimal_weight_profile", "modular_derivative",
    "nw_min_dim", "prime_case_closed_forms", "prime_power_criterion",
    "ratio_bounds", "ratio_in_window", "ratio_lambda_consistency",
    "rep_dimension", "rep_profile", "self_coupled_partners",
    "space_comparison", "validate_model",
]
