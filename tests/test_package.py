"""The package's public surface, ``realitysteer.__all__``."""

import realitysteer


def test_every_exported_name_resolves_once():
    names = realitysteer.__all__
    assert [name for name in names if names.count(name) > 1] == []
    assert [name for name in names if not hasattr(realitysteer, name)] == []
