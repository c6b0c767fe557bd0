"""The package's public names."""

import submine


def test_every_public_name_resolves_and_star_import_binds_exactly_them():
    assert len(set(submine.__all__)) == len(submine.__all__)
    missing = [name for name in submine.__all__ if not hasattr(submine, name)]
    assert missing == []
    namespace = {}
    exec("from submine import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(submine.__all__)
