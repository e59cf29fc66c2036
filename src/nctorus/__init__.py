"""Exact-symbolic and numeric toolkit for rotation-algebra invariants.

Layers:

* :mod:`nctorus.algebra` -- exact normal-ordered Laurent polynomials in the
  generators U, V over the phase ring Z[i][L, L^-1], L = e(theta/4), with
  the order-four transform, the flip, the parity automorphism and the
  canonical trace.
* :mod:`nctorus.traces` -- the twisted-trace functionals and the five- and
  six-slot character vectors.
* :mod:`nctorus.lattice` -- integer decomposition of character vectors over
  the nine-vector lattice, semiflat-cone membership, genus arithmetic.
* :mod:`nctorus.realization` -- constructive certificates that given trace
  values are realized by projections of each symmetry kind.
* :mod:`nctorus.loops` -- numeric Powers-Rieffel projections as loop
  elements with verified residual gates and invariant tables.
* :mod:`nctorus.theta` -- angle parameters with exact rational bracketing
  and the immutable value base ``Record``.
* :mod:`nctorus.cli` -- the ``nctorus`` command-line front end.

Everything operates on immutable values and is safe for concurrent use.

``import nctorus`` loads no layer: each public name below is looked up in
its module on first access (PEP 562), so a caller pays only for the
layers it touches.
"""

import sys as _sys

_EXPORTS = {
    "algebra": (
        "ONE", "U", "V", "Element", "GaussRational", "Monomial", "PhaseScalar",
        "apply_automorphism", "canonical_trace", "element_to_text", "numeric_eval",
        "parse_element", "parse_phase", "phase_to_text", "sigma_average",
    ),
    "lattice": (
        "ChernVector", "Genus", "K0Coordinates", "KScalar", "basis_rank", "basis_vectors",
        "chern_from_t4", "chern_to_text", "decompose", "genus_basis_decompose",
        "parse_chern", "parse_kscalar", "quantization_check", "recompose",
        "semiflat_coordinates", "semiflat_membership", "synthesis_recipe",
    ),
    "loops": ("LoopElement", "flip_apply", "loop_invariants", "pr_build", "projection_gates"),
    "realization": (
        "Certificate", "Convergent", "FourSquares", "TraceValue", "certificate_from_json",
        "certificate_to_json", "four_squares", "parse_trace",
        "realize", "subalgebra_generators", "verify_certificate",
    ),
    "theta": ("PrecisionExhausted", "ThetaParam", "parse_theta"),
    "traces": (
        "T2Vector", "T4Vector", "chern_T2", "chern_T4", "phi_eval", "psi_eval",
        "relation_check", "twist_discovery",
    ),
}

# public name -> the module that defines it; a layer's own name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # not importlib.import_module, which python -X importtime does not trace
    mod = _sys.modules[f"{__name__}.{module}"]
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
