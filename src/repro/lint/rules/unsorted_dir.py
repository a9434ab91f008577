"""unsorted-dir-iteration: directory listings must be sorted before use.

``os.listdir`` / ``glob.glob`` / ``Path.glob`` / ``Path.iterdir``
return entries in filesystem order — which differs across machines,
filesystems and even repeated runs after file churn.  Any result that
feeds iteration, hashing or concatenation (cache-key manifests, spool
merging, dataset assembly) must be wrapped in ``sorted()`` at the call
site so the order is part of the code, not the disk.

Bad::

    for path in spool.glob("obs-*.jsonl"):
        merge(path)

Good::

    for path in sorted(spool.glob("obs-*.jsonl")):
        merge(path)

The rule only recognizes a direct ``sorted(...)`` wrapper; if ordering
genuinely does not matter (e.g. deleting every file), suppress with
``# lint: disable=unsorted-dir-iteration``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import ImportMap, wrapped_in_call_to
from repro.lint.registry import Finding, Rule, register
from repro.lint.walker import SourceModule

#: Module-level listing functions, by canonical name.
_LISTING_FUNCTIONS = frozenset(
    {"glob.glob", "glob.iglob", "os.listdir", "os.scandir"}
)

#: Method names assumed to be pathlib-style directory listings.
_LISTING_METHODS = frozenset({"glob", "iterdir", "rglob"})

_SORT_WRAPPERS = frozenset({"sorted"})


@register
class UnsortedDirRule(Rule):
    id = "unsorted-dir-iteration"
    summary = "directory listing consumed without sorted()"
    docs = __doc__

    def check(self, module: SourceModule, project) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.canonical(node.func)
            is_listing = name in _LISTING_FUNCTIONS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _LISTING_METHODS
                and name not in _LISTING_FUNCTIONS
            )
            if not is_listing:
                continue
            if wrapped_in_call_to(node, _SORT_WRAPPERS):
                continue
            spelled = name or node.func.attr  # type: ignore[union-attr]
            yield self.finding(
                module,
                node,
                f"{spelled}() returns entries in filesystem order; wrap the "
                "call in sorted() so results do not depend on the disk",
            )
