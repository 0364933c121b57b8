"""Schema profiles: the domain generalisation of the generation pipeline.

The paper's future work (Section 8) is to "generalize the procedure ... and
apply it to historical corpora from other domains".  Everything the core
pipeline needs to know about a domain is captured by a
:class:`SchemaProfile`:

* the stable entity identifier (the NC register's ``ncid``);
* the attribute groups used to split records into sub-documents (the
  register's ``person`` / ``district`` / ``election`` / ``meta``);
* which group carries the entity's identity (the *primary* group — the one
  hashed at the strictest removal level and scored for heterogeneity);
* the attributes excluded from the exact-duplicate hash because they change
  without the entity changing (the register's dates and age).

The NC voter profile is the default everywhere, so existing call sites keep
working; :mod:`repro.histcorpus` defines a second, company-register profile
to prove the generalisation end to end.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Sequence, Tuple

from repro.votersim import schema as voter_schema


@dataclasses.dataclass(frozen=True)
class SchemaProfile:
    """Everything the pipeline needs to know about a record domain."""

    #: Human-readable domain name (used in version metadata).
    name: str
    #: Attribute holding the stable real-world entity id.
    id_attribute: str
    #: Group name -> attribute tuple; groups partition the schema.
    groups: Mapping[str, Tuple[str, ...]]
    #: The group carrying the entity's identity (the paper's ``person``).
    primary_group: str
    #: Attributes excluded from the exact-duplicate record hash.
    hash_excluded: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.primary_group not in self.groups:
            raise ValueError(
                f"primary group {self.primary_group!r} not in groups "
                f"{sorted(self.groups)}"
            )
        seen: Dict[str, str] = {}
        for group, attributes in self.groups.items():
            for attribute in attributes:
                if attribute in seen:
                    raise ValueError(
                        f"attribute {attribute!r} appears in groups "
                        f"{seen[attribute]!r} and {group!r}"
                    )
                seen[attribute] = group
        if self.id_attribute not in seen:
            raise ValueError(
                f"id attribute {self.id_attribute!r} not in any group"
            )
        unknown_exclusions = set(self.hash_excluded) - set(seen)
        if unknown_exclusions:
            raise ValueError(
                f"hash exclusions not in schema: {sorted(unknown_exclusions)}"
            )

    @property
    def all_attributes(self) -> Tuple[str, ...]:
        """Every attribute in group declaration order."""
        result = []
        for attributes in self.groups.values():
            result.extend(attributes)
        return tuple(result)

    @property
    def group_names(self) -> Tuple[str, ...]:
        """The group names in declaration order."""
        return tuple(self.groups)

    def attribute_group(self, attribute: str) -> str:
        """The group an attribute belongs to."""
        for group, attributes in self.groups.items():
            if attribute in attributes:
                return group
        raise KeyError(f"unknown attribute {attribute!r}")

    def hash_attributes(self, primary_only: bool = False) -> Tuple[str, ...]:
        """Attributes entering the record hash at a removal level.

        ``primary_only=True`` restricts to the primary group (the Table 2
        ``person`` level); otherwise the full schema is used.  The
        ``hash_excluded`` attributes are removed in both cases.
        """
        excluded = set(self.hash_excluded)
        if primary_only:
            pool = self.groups[self.primary_group]
        else:
            pool = self.all_attributes
        return tuple(a for a in pool if a not in excluded)

    def primary_attributes(self) -> Tuple[str, ...]:
        """The primary group's attributes (including the id attribute)."""
        return self.groups[self.primary_group]

    def scored_attributes(self, groups: Sequence[str]) -> Tuple[str, ...]:
        """The attributes heterogeneity weights and scores over ``groups``.

        The named groups' attributes in profile order, without the id
        attribute, which never differs inside a cluster.
        """
        return tuple(
            attribute
            for group, attributes in self.groups.items()
            if group in groups
            for attribute in attributes
            if attribute != self.id_attribute
        )


#: The paper's domain: the North Carolina voter register.
NC_VOTER_PROFILE = SchemaProfile(
    name="nc_voter",
    id_attribute="ncid",
    groups={
        "person": voter_schema.PERSON_ATTRIBUTES,
        "district": voter_schema.DISTRICT_ATTRIBUTES,
        "election": voter_schema.ELECTION_ATTRIBUTES,
        "meta": voter_schema.META_ATTRIBUTES,
    },
    primary_group="person",
    hash_excluded=voter_schema.HASH_EXCLUDED_ATTRIBUTES,
)
