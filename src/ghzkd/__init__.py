"""Three-party entangled-state key distribution: exact engine, protocols, adversaries.

The library is organized in four layers.  ``core`` holds the exact one- and
three-qubit linear algebra (observables, expectation values, projective
measurement).  ``ghz`` gives the closed-form parity rules for the eight GHZ
variants and the angle solvers built on them.  ``protocol`` runs complete
key-distribution sessions over simulated quantum and classical channels, and
``adversary`` supplies eavesdropper strategies, channel noise, violation
detection, and exact branch-enumeration oracles against which the
Monte-Carlo paths are checked.

The names below are the ones the README quick start and the demos use;
everything else is imported from its module (``ghzkd.adversary`` and so on).
"""

from .core import (
    MeasurementSetting,
    Mode,
    expectation,
    joint_outcome_distribution,
    make_retarded_analyzer,
    polarization_analyzer,
    spin_setting,
    wave_retarder,
)
from .ghz import GhzSpec, analytic_expectation, compatible_outcomes, ghz_state, is_super_classical
from .transcript import transcript_to_json
from .adversary import (
    EveStrategy,
    NoiseModel,
    calibrate_threshold,
    continuous_attack_rate,
    exact_violation_rate,
    impersonation_view_joint,
    menu_attack_rates,
    monte_carlo_violation_rate,
    mutual_information,
    pad_reuse_information,
)
from .protocol import (
    Method,
    ProtocolConfig,
    bit_of,
    bits_to_str,
    run_method1,
    run_method2,
    run_three_party,
)

__version__ = "0.1.0"
