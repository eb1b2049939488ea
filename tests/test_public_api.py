"""The package's public names: ``from dmpfem import *`` works, and every
name in ``dmpfem.__all__`` resolves, so a name deleted from a module but
left in the exports fails here rather than at a user's import."""

import dmpfem


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dmpfem import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dmpfem.__all__)


def test_every_exported_name_resolves():
    assert len(set(dmpfem.__all__)) == len(dmpfem.__all__)
    missing = [name for name in dmpfem.__all__
               if getattr(dmpfem, name, None) is None]
    assert missing == []
