"""Exact orbit counting for finite reflection groups over Z/p^M.

Builds the exceptional groups G12, G24, G29, G31 and the monomial family
G(m,s,n) from explicit generator matrices, and counts orbits of their
action on (Z/p^k)^l by several independent methods (full Burnside sums,
classwise rank/torsion sums, closed forms, a brute-force count over scalar
classes of points) that must agree exactly.

Every name in ``__all__`` is exported lazily (PEP 562): it is imported from
its submodule on first access, so ``import repcount`` imports neither
numpy nor any submodule, and ``python -m repcount.cli`` runs its first
line before any of them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("GroupSpec", "build", "exponents", "parse_spec"),
    "counting": ("count_burnside_classes", "count_burnside_full", "count_formula_general",
                 "torsion_census", "torsion_classes"),
    "errors": ("RepcountError",),
    "formulas": ("theorem_a", "theorem_c"),
    "grassmannian": ("theorem_b",),
    "groups": ("ConjugacyClassRecord", "FiniteMatrixGroup", "close"),
    "linalg": ("SquareMatrix", "diagonal", "smith_valuations"),
    "modp": ("Modulus", "hensel_lift", "invert", "mth_root_of_unity", "teichmuller"),
    "oracle": ("orbit_count_bruteforce",),
    "records": ("CountReport",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def script() -> None:
    """The installed ``repcount`` command: run ``repcount.cli`` as ``python -m`` does.

    So the CLI module is what imports the package's modules, with the
    collector off for the life of the process.
    """
    import runpy

    runpy.run_module("repcount.cli", run_name="__main__", alter_sys=True)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
