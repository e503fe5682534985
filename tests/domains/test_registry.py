"""Tests for the domain registry (name → factory + capability flags)."""

import pytest

from repro.domains import registry


class TestLookup:
    def test_builtins_registered(self):
        names = registry.domain_names()
        assert {"hanoi", "tile", "cube", "blocks", "briefcase", "navigation"} <= set(
            names
        )
        assert names == sorted(names)

    def test_create_forwards_arguments(self):
        domain = registry.create("hanoi", 4)
        assert domain.n_disks == 4
        tile = registry.create("tile", 3)
        assert tile.n == 3

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="hanoi"):
            registry.get_entry("rubik")

    def test_duplicate_registration_rejected(self):
        entry = registry.get_entry("hanoi")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(entry)
        assert registry.register(entry, replace=True) is entry

    def test_list_entries_sorted(self):
        entries = registry.list_entries()
        assert [e.name for e in entries] == registry.domain_names()


class TestCapabilityFlags:
    def test_has_kernel_matches_reality(self):
        # The flag describes the type: a default-size instance must expose
        # a kernel iff the entry claims the capability.
        sizes = {"hanoi": (3,), "tile": (3,), "cube": ()}
        for entry in registry.list_entries():
            if entry.name not in sizes:
                continue
            assert entry.has_kernel
            assert entry.create(*sizes[entry.name]).kernel() is not None, entry.name
        nav = registry.create("navigation", 4, 4, [(0, 0)], [(3, 3)])
        assert not registry.get_entry("navigation").has_kernel
        assert nav.kernel() is None

    def test_strips_flags(self):
        assert registry.get_entry("hanoi").strips
        assert registry.get_entry("blocks").strips
        assert registry.get_entry("briefcase").strips
        assert not registry.get_entry("tile").strips

    def test_descriptions_present(self):
        assert all(e.description for e in registry.list_entries())
