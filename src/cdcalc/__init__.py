"""Exact calculator for divisor and curve classes on symmetric powers of a curve.

The package computes in the subring of cohomology of C_d generated by the
two tautological divisor classes x and theta, with arbitrary-precision
rational coefficients throughout: named geometric classes (subordinate
loci, diagonals, moving-divisor loci, push-pull images, coherent-system
determinants), their intersection numbers, two-ray effective-cone
arithmetic, and a dual-path verification suite over genus sweeps.

The names below load lazily: `_EXPORTS` maps each submodule to the public
names it defines, and each submodule's `__all__` is read from its row.  The
first access to a name (`cdcalc.pair`, `from cdcalc import pair`,
`from cdcalc import *`) imports that submodule and caches the name here.
So `import cdcalc` stays cheap, and a command that never touches the
verification suite never imports it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "nsring": (
        "Ambient", "NSClass", "canonical_class", "eval_top", "format_class",
        "format_rational", "pair",
    ),
    "catalog": (
        "KernelBundleData", "LinearSeries", "NAMED_CLASSES", "SystemData", "binom",
        "brill_noether_rho", "c1d_class", "chern_character", "diagonal_class", "dm_class",
        "kernel_twist_h1", "mult_degeneracy_class", "pushpull", "subordinate_class",
        "system_c1", "twisted_kernel_class",
    ),
    "conelab": (
        "BoundEntry", "BoundStatus", "Cone2D", "ConeRay", "CurveClass", "bounds_from_json",
        "bounds_to_json", "contains", "full_catalog", "general_effective_cone_gm2",
        "known_bounds", "ray_from_class", "slope",
    ),
    "checks": (
        "CheckResult", "Report", "check_kernel_decomposition", "check_mult_and_chern",
        "check_pencil_pairings", "check_plane_quintic", "check_pushpull_closed_form",
        "pairing_sum_theta", "pairing_sum_x", "report_json", "run_all",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
