"""Augmentation: historical data + data pollution (the DaPo future work).

Section 8's second future-work item: "combine our approach with a scalable
data pollution tool, such as DaPo, to unite the strengths of having real
outdated values and being able to inject additional errors at will.  Our
goal here is to increase the flexibility for customization".

The :class:`Augmenter` takes a generated cluster store and injects
*synthetic* duplicate records: copies of existing records whose primary-
group values are corrupted by the pollution corruptors.  Because every
synthetic record is derived from a record of the same cluster, the gold
standard stays sound; because the source records already carry the
register's organic outdated values and errors, the synthetic errors stack
on top of real history — exactly the combination the paper wants.

Synthetic records are first-class pipeline citizens: they carry their
introducing version (so reconstruction keeps working), their hash (so
future imports dedup against them) and full provenance (``synthetic``,
``augmented_from``, ``corruptions``) so users can filter them out again.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.generator import TestDataGenerator
from repro.core.hashing import record_hash
from repro.pollute.corruptors import CorruptorSuite, default_corruptors


@dataclasses.dataclass
class AugmentationPlan:
    """How much pollution to inject.

    ``share_of_clusters`` of all clusters receive ``duplicates_per_cluster``
    synthetic records each; every synthetic record gets
    ``errors_per_duplicate`` corruptions (fractional = probabilistic) drawn
    from ``corruptor_weights``.
    """

    share_of_clusters: float = 0.3
    duplicates_per_cluster: int = 1
    errors_per_duplicate: float = 1.5
    corruptor_weights: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {
            "typo": 4.0,
            "phonetic": 2.0,
            "ocr": 0.5,
            "abbreviate": 1.0,
            "missing": 1.0,
            "representation": 1.0,
            "token_transposition": 0.5,
        }
    )
    #: Attributes eligible for corruption; default: the profile's primary
    #: attributes minus its id attribute.
    attributes: Optional[Sequence[str]] = None
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError when any knob is out of range."""
        if not 0.0 <= self.share_of_clusters <= 1.0:
            raise ValueError(
                f"share_of_clusters must be in [0, 1], got {self.share_of_clusters}"
            )
        if self.duplicates_per_cluster < 1:
            raise ValueError(
                "duplicates_per_cluster must be >= 1, got "
                f"{self.duplicates_per_cluster}"
            )
        if self.errors_per_duplicate < 0:
            raise ValueError(
                f"errors_per_duplicate must be >= 0, got {self.errors_per_duplicate}"
            )


@dataclasses.dataclass
class AugmentStats:
    """What an augmentation pass did."""

    clusters_touched: int
    records_added: int


class Augmenter:
    """Injects synthetic duplicates into a generated cluster store."""

    def __init__(self, generator: TestDataGenerator, plan: Optional[AugmentationPlan] = None) -> None:
        self.generator = generator
        self.plan = plan or AugmentationPlan()
        self.plan.validate()
        self.rng = random.Random(self.plan.seed)
        self.suite = CorruptorSuite(self.plan.corruptor_weights)

    def _corruptible_attributes(self) -> Tuple[str, ...]:
        if self.plan.attributes is not None:
            return tuple(self.plan.attributes)
        profile = self.generator.profile
        return tuple(
            a for a in profile.primary_attributes() if a != profile.id_attribute
        )

    def _synthesize(self, cluster: dict, attributes: Tuple[str, ...]) -> dict:
        """Build one synthetic record from a random source record."""
        import copy

        profile = self.generator.profile
        source_index = self.rng.randrange(len(cluster["records"]))
        source = cluster["records"][source_index]
        synthetic = {
            group: copy.deepcopy(source.get(group, {}))
            for group in profile.group_names
        }
        primary = synthetic[profile.primary_group]
        corruptions: List[str] = []
        count = int(self.plan.errors_per_duplicate)
        if self.rng.random() < self.plan.errors_per_duplicate - count:
            count += 1
        registry = default_corruptors()
        names = list(self.plan.corruptor_weights)
        weights = list(self.plan.corruptor_weights.values())
        candidates = [a for a in attributes if (primary.get(a) or "").strip()]
        for _ in range(count):
            if not candidates:
                break
            attribute = self.rng.choice(candidates)
            corruptor = self.rng.choices(names, weights=weights, k=1)[0]
            primary[attribute] = registry[corruptor](primary[attribute], self.rng)
            corruptions.append(f"{corruptor}:{attribute}")
            if not (primary.get(attribute) or "").strip():
                primary.pop(attribute, None)
                candidates = [a for a in candidates if a != attribute]

        flat = {}
        for group in profile.group_names:
            flat.update(synthetic.get(group, {}))
        removal = self.generator.removal
        hash_attributes = (
            removal.hash_attributes_for(profile) or profile.hash_attributes()
        )
        digest = record_hash(flat, hash_attributes, trim=removal.trims)
        synthetic["hash"] = digest
        synthetic["first_version"] = self.generator.pending_version
        synthetic["snapshots"] = []
        synthetic["synthetic"] = True
        synthetic["augmented_from"] = source_index
        synthetic["corruptions"] = corruptions
        synthetic["plausibility"] = {}
        synthetic["heterogeneity"] = {}
        synthetic["heterogeneity_person"] = {}
        return synthetic

    def augment(self) -> AugmentStats:
        """Inject synthetic duplicates according to the plan.

        Call between :meth:`TestDataGenerator.import_snapshot` and
        :meth:`~repro.core.versioning.UpdateProcess.update_statistics` /
        :meth:`TestDataGenerator.publish` so the synthetic records are
        scored and versioned like imported ones.
        """
        attributes = self._corruptible_attributes()
        clusters_touched = 0
        records_added = 0
        for cluster in self.generator.clusters():
            if not cluster["records"]:
                continue
            if self.rng.random() >= self.plan.share_of_clusters:
                continue
            clusters_touched += 1
            for _ in range(self.plan.duplicates_per_cluster):
                synthetic = self._synthesize(cluster, attributes)
                if synthetic["hash"] in cluster["meta"]["hashes"]:
                    continue  # corruption produced an existing record
                self.generator._append_record(cluster["ncid"], synthetic)
                records_added += 1
        return AugmentStats(
            clusters_touched=clusters_touched, records_added=records_added
        )


def strip_synthetic(cluster: dict) -> List[dict]:
    """The cluster's organic (non-augmented) records — the user-side filter."""
    return [
        record for record in cluster["records"] if not record.get("synthetic")
    ]
