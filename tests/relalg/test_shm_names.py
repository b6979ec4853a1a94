"""The shared-memory names kept for the benchmark: a leak audit and an arena that shares nothing."""

from __future__ import annotations

import pytest

from repro.relalg import shm


@pytest.mark.parametrize("method", ["share_relation", "share_column", "share_array"])
def test_the_arena_shares_nothing(method):
    with pytest.raises(NotImplementedError):
        getattr(shm.ShmArena(), method)(object())


def test_the_leak_audit_lists_only_this_packages_segments(monkeypatch):
    prefix = shm.SEGMENT_PREFIX
    listed = []

    def listdir(path):
        listed.append(path)
        return [f"{prefix}_b", "psm_other", f"{prefix}_a", "sem.lock"]

    monkeypatch.setattr(shm.os, "listdir", listdir)
    assert shm.shm_dir_segments() == [f"{prefix}_a", f"{prefix}_b"]
    assert listed == ["/dev/shm"]


def test_the_leak_audit_reads_a_missing_directory_as_empty(monkeypatch):
    def listdir(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(shm.os, "listdir", listdir)
    assert shm.shm_dir_segments() == []
