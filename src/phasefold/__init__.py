"""phasefold: phase-gadget circuit optimisation over GF(2).

Parameterised CNOT+rotation circuits are viewed as interleaved Z/X phase
gadgets; a change of basis C in GL(n,2) is annealed to minimise the total
gadget-leg count, and a cheaper circuit is re-synthesised and verified
against a dense unitary oracle.
"""

from .annealing import AnnealParams, AnnealResult, anneal, energy
from .ansatz import AnsatzSpec, NonMonotonicError, generate, mppp_period
from .circuits import (
    GateCircuit,
    Gate,
    ParseError,
    cnot_count,
    cnot_depth,
    euler_xzx_to_zxz,
    lower_to_basis,
    parse,
    serialize,
)
from .gadgets import (
    GadgetCircuit,
    GadgetEntry,
    apply_action,
    commutes,
    fusion_plan,
    gadget_circuit,
    leg_matrices,
    serialize_gadgets,
    xgadget,
    zgadget,
)
from .gf2 import (
    BitMatrix,
    BitVec,
    NotInvertibleError,
    inverse_transpose,
    invert,
    mat_mul,
    popcount,
    random_invertible,
    rank,
)
from .oracle import equiv_up_to_phase, unitary_of_circuit
from .pipeline import OptimizeReport, VerificationError, euler_peephole, optimize
from .transform import (
    CnotCircuit,
    LayerInfo,
    NormalForm,
    detect_layers,
    extract,
    h_x,
    h_z,
    synth_cnot,
    synth_gadget,
    synth_gadget_circuit,
)

__version__ = "0.1.0"
