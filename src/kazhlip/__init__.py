"""Exact piecewise-linear homeomorphisms of the real line, Koopman L^p
actions on step functions, the Mazur map, and Kazhdan-constant upper-bound
estimators.

Importing the package runs none of its modules: each library module is
registered in sys.modules with a lazy loader and runs on its first
attribute access, so an error in a module surfaces at its first use. The
public names below are served from their modules on first access, and so
are the modules themselves, except `precision`, which names the context
manager.
"""

import importlib.util
import sys

_EXPORTS = {
    "bounds": "BoundReport bound_report corollary_bound estimate_lp estimate_p2 kappa_max "
    "kappa_transfer log_power_bound_check phi phi_crossover phi_inv theorem_check",
    "errors": "DomainError KazhlipError ResourceLimitError SchemaError",
    "figures": "",
    "groupact": "GeneratorSet Word ball global_fixed_set word_evaluate",
    "intervals": "IntervalUnion",
    "koopman": "StepFunction koopman_apply koopman_distortion lp_norm mazur_map normalize "
    "subtract window_vector",
    "limits": "ActionSequence LimitDiagnostic limit_translation_diagnostic normalize_stage",
    "plmap": "PLHomeo format_rational parse_rational",
    "precision": "precision set_precision",
    "verify": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    # A registered module is never bound on the package, so every access
    # comes here, and `precision` stays the context manager.
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
