"""Tests for schema profiles (the domain generalisation)."""

import pytest

from repro.core.levels import RemovalLevel
from repro.core.profile import NC_VOTER_PROFILE, SchemaProfile
from repro.votersim.schema import (
    ALL_ATTRIBUTES,
    HASH_EXCLUDED_ATTRIBUTES,
    PERSON_ATTRIBUTES,
)


@pytest.fixture
def tiny_profile():
    return SchemaProfile(
        name="tiny",
        id_attribute="id",
        groups={
            "main": ("id", "name", "year"),
            "extra": ("note", "updated_at"),
        },
        primary_group="main",
        hash_excluded=("updated_at",),
    )


class TestValidation:
    def test_primary_group_must_exist(self):
        with pytest.raises(ValueError):
            SchemaProfile("x", "id", {"a": ("id",)}, "missing", ())

    def test_groups_must_partition(self):
        with pytest.raises(ValueError):
            SchemaProfile(
                "x", "id", {"a": ("id", "dup"), "b": ("dup",)}, "a", ()
            )

    def test_id_attribute_must_be_in_schema(self):
        with pytest.raises(ValueError):
            SchemaProfile("x", "nope", {"a": ("id",)}, "a", ())

    def test_exclusions_must_be_in_schema(self):
        with pytest.raises(ValueError):
            SchemaProfile("x", "id", {"a": ("id",)}, "a", ("ghost",))


class TestAccessors:
    def test_all_attributes_order(self, tiny_profile):
        assert tiny_profile.all_attributes == (
            "id", "name", "year", "note", "updated_at",
        )

    def test_group_names(self, tiny_profile):
        assert tiny_profile.group_names == ("main", "extra")

    def test_attribute_group(self, tiny_profile):
        assert tiny_profile.attribute_group("note") == "extra"
        with pytest.raises(KeyError):
            tiny_profile.attribute_group("ghost")

    def test_hash_attributes(self, tiny_profile):
        assert tiny_profile.hash_attributes() == ("id", "name", "year", "note")
        assert tiny_profile.hash_attributes(primary_only=True) == (
            "id", "name", "year",
        )

    def test_primary_attributes(self, tiny_profile):
        assert tiny_profile.primary_attributes() == ("id", "name", "year")

    def test_scored_attributes(self, tiny_profile):
        assert tiny_profile.scored_attributes(("main",)) == ("name", "year")
        # Profile order, whatever the order of the named groups.
        assert tiny_profile.scored_attributes(("extra", "main")) == (
            "name", "year", "note", "updated_at",
        )


class TestNcVoterProfile:
    def test_matches_voter_schema(self):
        assert NC_VOTER_PROFILE.id_attribute == "ncid"
        assert NC_VOTER_PROFILE.all_attributes == ALL_ATTRIBUTES
        assert NC_VOTER_PROFILE.primary_attributes() == PERSON_ATTRIBUTES
        assert NC_VOTER_PROFILE.hash_excluded == HASH_EXCLUDED_ATTRIBUTES

    def test_removal_levels_agree_with_legacy_property(self):
        for level in RemovalLevel:
            assert level.hash_attributes_for(NC_VOTER_PROFILE) == (
                level.hash_attributes
            )
