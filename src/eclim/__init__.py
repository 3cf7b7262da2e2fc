"""eclim: energy-constrained norms, certificates, and dynamical bounds.

Finite-dimensional numerics for energy-limited channels and Markov
dynamics: the energy-constrained operator/diamond norms, maximal output
energies with affine certificates, stability constants of Lindblad and
Gaussian semigroups, the quantum birth process, spin-system speed limits,
and Trotter error checks.
"""

__version__ = "0.1.0"
INTERFACE_VERSION = "2"  # wire formats and CLI surface

from .opcore import (
    AffineCertificate,
    DensityState,
    EnergyCurve,
    EnergyProfile,
    HermitianMatrix,
    ReferenceHamiltonian,
    dual_scan,
    dual_scan_witness,
    energy,
    ground_shift,
    psd_order_leq,
    spectral_function,
)
from .channels import (
    KrausChannel,
    apply,
    choi,
    compose,
    compose_energy_bound,
    dual_apply,
    energy_curve,
    max_output_energy,
    sqrt_reference_certificate,
    tensor_reference,
)
from .norms import (
    CpDifference,
    EcdEstimate,
    ecd_norm_cp,
    ecd_norm_seesaw,
    eco_norm,
    eco_norm_primal,
    trace_norm,
)
from .lindblad import (
    BoundViolation,
    LindbladGenerator,
    StabilityCertificate,
    StabilityCurve,
    dissipation_matrix,
    evolve,
    evolve_grid,
    min_omega,
    stability_curve,
    unitary_dissipation,
    verify_energy_bound,
)
from .gaussian import (
    GaussianChannel,
    GaussianGenerator,
    GaussianState,
    apply_channel,
    channel_energy_bound,
    evolve_gaussian,
    gaussian_stability,
    generator_dictionary,
    generator_from_dictionary,
    state_energy,
)
from .models import (
    BirthRates,
    SpinSystem,
    ad_norm_su2,
    birth_epsilons,
    birth_generator,
    birth_tau,
    birth_trace,
    rabi_hamiltonian,
    spin_system,
)
from .apps import (
    SpeedLimitConfig,
    SpeedLimitRow,
    group_qsl,
    open_speedlimit,
    speedlimit_run,
    trotter_run,
)
