"""The package's public surface: `__all__` names exactly what it exports."""

import deepmatch


def test_all_names_resolve_once_and_star_import_works():
    names = deepmatch.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(deepmatch, n)] == []
    namespace = {}
    exec("from deepmatch import *", namespace)
    assert set(names) <= namespace.keys()
