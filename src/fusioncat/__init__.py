"""Exact engine for pivotal and modular fusion categories.

Cyclotomic arithmetic, the class-function and central-element algebras,
cointegrals, the Fourier transform and its Drinfeld counterpart, conjugacy
class data, the fusion subcategory lattice, universal grading and
centralizers, all over exact cyclotomic numbers.

The public names below are looked up in their modules on use (PEP 562), so
`import fusioncat` itself loads none of the modules.
"""

import sys
from types import ModuleType

_EXPORTS = {  # module: the public names it defines
    "catalog": "catalog_get catalog_input catalog_names",
    "category": "CategoryData CategoryInput Check build_category global_dim "
                "load_category load_input parse_category save_category validate_input "
                "verlinde_fusion",
    "centralizer": "CentralizerResult centralizer centralizer_smatrix centralizer_suite "
                   "centralizer_theorem verify_main_identity",
    "charalg": "CentralElement CharacterAlgebra ClassFunction ClassSumProduct ConjugacyData",
    "cyclotomic": "Cyclotomic CycloMatrix cyclotomic_polynomial rational zeta",
    "errors": "CapabilityError InternalConsistencyError InvalidCategoryError "
              "MalformedFusionError NotModularError NotRibbonConsistentError SchemaError "
              "SingularMatrixError",
    "lattice": "FusionSubcategory Grading PrimeIndexReport SubcatInvariants enumerate_subcats "
               "generate_subcat grading join kernel_of_object lattice_suite meet "
               "prime_index_check subcat_invariants",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, looked up in its module each time, so that it is always
    the object its module holds; or a submodule, imported on first use."""
    home = _HOME.get(name, name if name in _EXPORTS else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{home}", fromlist=["_"])
    return getattr(module, name) if name in _HOME else module


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package module.  Importing a submodule binds it as an attribute of
    the package; the function `centralizer` keeps its name over the module
    fusioncat.centralizer, whichever is imported first."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
