"""The package's public surface."""

from __future__ import annotations

import collab_avg


def test_every_exported_name_resolves_once():
    names = collab_avg.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(collab_avg, name)] == []
