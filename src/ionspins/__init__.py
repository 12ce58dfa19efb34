"""Trapped-ion frustrated Ising networks.

Pipeline: trap geometry -> equilibrium chain -> transverse phonon modes ->
detuning-controlled coupling matrix -> exact spin ground states, phase
diagrams, and the scaling of the ferromagnet/kink avoided crossing.
"""

from .chain import (
    IonChain,
    ModeSpectrum,
    TrapConfig,
    equilibrium_positions,
    mode_spectrum,
    transverse_mode_matrix,
    transverse_modes,
    zigzag_stability,
)
from .couplings import (
    Bond,
    CouplingMatrix,
    bond_graph,
    coupling_from_trap,
    coupling_matrix,
)
from .errors import (
    AmbiguousGround,
    CheckFailure,
    DegenerateModes,
    NoConvergence,
    NumericalFailure,
    ResonanceError,
    TransitionLost,
    ZigzagInstability,
)
from .phases import (
    AlphaFit,
    GapPoint,
    PhaseTable,
    ScanGrid,
    even_odd_symmetry_report,
    fit_alpha,
    fm_kink_interval,
    min_gap,
    phase_table,
    scan_2d,
    transition_width,
)
from .spins import (
    GroundState,
    SpectrumResult,
    SpinOrder,
    apply_hamiltonian,
    canonicalize,
    classical_energy,
    classical_ground,
    cluster_polarization,
    cluster_projection,
    dense_hamiltonian,
    field_spectra,
    fm_basis,
    hamming_distance,
    kink_basis,
    lowest_eigenpairs,
)

__version__ = "0.1.0"
