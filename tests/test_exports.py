"""The package's export list matches what its ``__init__`` binds."""

import ast

import mhi


def _public_names_bound_in_init():
    with open(mhi.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def test_all_lists_every_public_name_once():
    assert len(mhi.__all__) == len(set(mhi.__all__))
    assert set(mhi.__all__) == _public_names_bound_in_init()


def test_star_import():
    namespace = {}
    exec("from mhi import *", namespace)
    assert set(mhi.__all__) <= set(namespace)
