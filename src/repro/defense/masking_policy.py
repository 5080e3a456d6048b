"""Countermeasure 1: a unified masking standard.

"We propose that all the Internet service providers should cover their
users' sensitive information ... under a unified standard.  By
standardizing user information cover rules, the vulnerability of account
interconnections within the Online Account Ecosystem will be alleviated."

When every provider reveals the *same* character positions, combining
views across providers adds nothing: the union of identical position sets
is the set itself, so a masked value can never be reconstructed from
profile pages alone.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Tuple

from repro.model.account import MaskSpec, ServiceProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import PersonalInfoKind, Platform


@dataclasses.dataclass(frozen=True)
class UnifiedMaskingPolicy:
    """Applies one standard mask per sensitive kind, ecosystem-wide.

    The defaults reveal only the last four characters -- enough for the
    user to recognize their own document/card, useless for reconstruction.
    """

    standards: Mapping[PersonalInfoKind, MaskSpec] = dataclasses.field(
        default_factory=lambda: {
            PersonalInfoKind.CITIZEN_ID: MaskSpec(reveal_suffix=4),
            PersonalInfoKind.BANKCARD_NUMBER: MaskSpec(reveal_suffix=4),
        }
    )

    def apply_to_profile(self, profile: ServiceProfile) -> ServiceProfile:
        """Return a copy of ``profile`` with standardized masks.

        Kinds under the standard are masked on *every* platform that
        exposes them -- including platforms that previously showed the full
        value (the Ctrip case).
        """
        mask_specs: Dict[Tuple[Platform, PersonalInfoKind], MaskSpec] = dict(
            profile.mask_specs
        )
        for platform in sorted(profile.platforms, key=lambda p: p.value):
            for kind in profile.info_on(platform):
                if kind in self.standards:
                    mask_specs[(platform, kind)] = self.standards[kind]
                # An ID-card photo is the citizen ID in image form; the
                # unified policy requires blurring it the same way.
                if (
                    kind is PersonalInfoKind.ID_PHOTO
                    and PersonalInfoKind.CITIZEN_ID in self.standards
                ):
                    mask_specs[(platform, kind)] = self.standards[
                        PersonalInfoKind.CITIZEN_ID
                    ]
        return dataclasses.replace(profile, mask_specs=mask_specs)

    def targets(self, ecosystem: Ecosystem) -> Tuple[str, ...]:
        """Services whose masks deviate from the standard, in catalog order
        (the staged-rollout unit for :mod:`repro.dynamic.rollout`)."""
        return tuple(
            profile.name
            for profile in ecosystem
            if self.apply_to_profile(profile) != profile
        )

    def apply(self, ecosystem: Ecosystem) -> Ecosystem:
        """Return a hardened copy of the whole ecosystem."""
        replacements = {
            profile.name: self.apply_to_profile(profile)
            for profile in ecosystem
        }
        return ecosystem.with_services_replaced(replacements)
