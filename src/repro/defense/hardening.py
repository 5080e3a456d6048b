"""Countermeasures 2 and 3: email hardening and platform symmetry repair.

- :class:`EmailHardening` -- "most email service providers ... can be
  attacked by simply resetting password via SMS codes ... we strongly
  recommend that email service providers should bring their authentication
  method to a higher level."  The transform adds a trusted-device check to
  every SMS-only takeover path of email-domain services, so controlling
  the SMS channel alone no longer controls the mailbox.

- :class:`SymmetryRepair` -- "this kind of asymmetry should be avoided by
  developers."  For each service the transform aligns both platforms to
  the *stricter* side: a takeover path offered on one platform is removed
  if the other platform's policy for the same purpose demands strictly
  more factors, and masking rules adopt the platform revealing less.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.model.account import AuthPath, MaskSpec, ServiceProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import CredentialFactor, PersonalInfoKind, Platform


@dataclasses.dataclass(frozen=True)
class EmailHardening:
    """Harden the ecosystem's email providers."""

    #: The second factor grafted onto weak email takeover paths.
    added_factor: CredentialFactor = CredentialFactor.TRUSTED_DEVICE
    #: Domain label identifying email providers.
    email_domain: str = "email"

    def apply_to_profile(self, profile: ServiceProfile) -> ServiceProfile:
        """Return a hardened copy (unchanged for non-email services)."""
        if profile.domain != self.email_domain:
            return profile
        hardened_paths: List[AuthPath] = []
        for path in profile.auth_paths:
            if path.is_sms_only:
                hardened_paths.append(
                    dataclasses.replace(
                        path,
                        factors=path.factors | {self.added_factor},
                    )
                )
            else:
                hardened_paths.append(path)
        return dataclasses.replace(profile, auth_paths=tuple(hardened_paths))

    def targets(self, ecosystem: Ecosystem) -> Tuple[str, ...]:
        """Services this transform would actually change, in catalog order.

        The unit of a staged deployment: the rollout planner
        (:mod:`repro.dynamic.rollout`) ships one
        :class:`~repro.dynamic.events.ApplyHardening` mutation per target.
        """
        return tuple(
            profile.name
            for profile in ecosystem
            if self.apply_to_profile(profile) != profile
        )

    def apply(self, ecosystem: Ecosystem) -> Ecosystem:
        """Harden every email provider in the ecosystem."""
        replacements = {
            profile.name: self.apply_to_profile(profile)
            for profile in ecosystem
            if profile.domain == self.email_domain
        }
        return ecosystem.with_services_replaced(replacements)


@dataclasses.dataclass(frozen=True)
class SymmetryRepair:
    """Align each service's platforms to the stricter side."""

    def apply_to_profile(self, profile: ServiceProfile) -> ServiceProfile:
        """Return a copy with cross-platform asymmetries repaired."""
        platforms = profile.platforms
        if len(platforms) < 2:
            return profile
        repaired_paths = self._repair_paths(profile)
        repaired_masks = self._repair_masks(profile)
        return dataclasses.replace(
            profile, auth_paths=repaired_paths, mask_specs=repaired_masks
        )

    def _repair_paths(self, profile: ServiceProfile) -> Tuple[AuthPath, ...]:
        kept: List[AuthPath] = []
        for path in profile.auth_paths:
            other_platforms = profile.platforms - {path.platform}
            strictly_weaker = False
            for other in other_platforms:
                other_paths = profile.paths(platform=other, purpose=path.purpose)
                if not other_paths:
                    continue
                # The path is an asymmetry hole if the other platform's
                # *easiest* path for the same purpose strictly demands more.
                weakest_other = min(
                    (p.factors for p in other_paths), key=len
                )
                if (
                    path.factors < weakest_other
                    or (
                        len(path.factors) < len(weakest_other)
                        and path.is_sms_only
                        and not any(p.is_sms_only for p in other_paths)
                    )
                ):
                    strictly_weaker = True
                    break
            if not strictly_weaker:
                kept.append(path)
        return tuple(kept) if kept else profile.auth_paths

    def _repair_masks(
        self, profile: ServiceProfile
    ) -> Dict[Tuple[Platform, PersonalInfoKind], MaskSpec]:
        """Every platform adopts the mask revealing the fewest positions."""
        repaired: Dict[Tuple[Platform, PersonalInfoKind], MaskSpec] = dict(
            profile.mask_specs
        )
        kinds = {kind for (_p, kind) in profile.mask_specs}
        platforms = sorted(profile.platforms, key=lambda p: p.value)
        for kind in kinds:
            candidates = []
            for platform in platforms:
                if kind in profile.info_on(platform):
                    spec = profile.mask_for(platform, kind)
                    length = 18 if kind is PersonalInfoKind.CITIZEN_ID else 16
                    candidates.append(
                        (len(spec.revealed_positions(length)), platform, spec)
                    )
            if not candidates:
                continue
            candidates.sort(key=lambda item: item[0])
            _count, _platform, strictest = candidates[0]
            for platform in platforms:
                if kind in profile.info_on(platform):
                    repaired[(platform, kind)] = strictest
        return repaired

    def targets(self, ecosystem: Ecosystem) -> Tuple[str, ...]:
        """Services whose platforms are actually asymmetric, in catalog
        order (the rollout planner repairs them domain by domain)."""
        return tuple(
            profile.name
            for profile in ecosystem
            if self.apply_to_profile(profile) != profile
        )

    def apply(self, ecosystem: Ecosystem) -> Ecosystem:
        """Repair every dual-platform service."""
        replacements = {
            profile.name: self.apply_to_profile(profile)
            for profile in ecosystem
            if len(profile.platforms) > 1
        }
        return ecosystem.with_services_replaced(replacements)
