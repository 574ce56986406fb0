"""polarlat: mean-field phase transitions of polaritons in doped
microcavity lattices; README's module map lists the submodules.

``import polarlat`` loads no submodule: an exported name imports its
module on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_COUPLING": "model", "SystemParams": "model",
    "FockDickeBasis": "validate", "build_basis": "validate",
    "build_site_hamiltonian": "validate", "lowest_eigenpair": "validate",
    "manifold_block": "model", "manifold_energy": "model",
    "angular_frequency": "model", "coupling_from_ghz": "model",
    "Phase": "meanfield", "PhaseGrid": "meanfield", "ScanPoint": "meanfield",
    "ScanSettings": "meanfield", "bhm_boundary_oracle": "validate",
    "boundary_tunneling": "validate", "classify_phase": "meanfield",
    "critical_tunneling": "meanfield", "ground_energy_at_psi": "validate",
    "landau_boundary_tunneling": "meanfield",
    "minimize_order_parameter": "validate", "mott_lobe_mu_range": "meanfield",
    "phase_diagram": "meanfield",
}
__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + _EXPORTS[name], __name__), name)
