"""Countermeasures (Section VII) and their evaluation.

Each defense is a pure transform from an ecosystem to a hardened copy, so
the evaluation can measure attack-surface deltas without mutating the
baseline:

- :mod:`repro.defense.masking_policy` -- the unified masking standard
  ("cover unified digits on SSN and bankcard numbers"), which kills the
  Insight-4 combining attack.
- :mod:`repro.defense.hardening` -- email-account hardening ("make email
  service accounts more secure") and web/mobile symmetry repair ("tackle
  the asymmetry existing between web end and mobile end").
- :mod:`repro.defense.builtin_auth` -- the built-in OS authentication
  service of Fig. 8, replacing GSM SMS delivery with an encrypted push
  channel the interception rigs cannot touch.
- :mod:`repro.defense.evaluation` -- re-runs the measurement under each
  defense (and all combined) and reports the dependency-level deltas.
"""

from repro.defense.masking_policy import UnifiedMaskingPolicy
from repro.defense.hardening import EmailHardening, SymmetryRepair
from repro.defense.builtin_auth import BuiltinAuthService, BuiltinAuthUpgrade
from repro.defense.evaluation import DefenseOutcome

__all__ = [
    "BuiltinAuthService",
    "BuiltinAuthUpgrade",
    "DefenseOutcome",
    "EmailHardening",
    "SymmetryRepair",
    "UnifiedMaskingPolicy",
]
