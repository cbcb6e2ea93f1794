"""Parameter trees (``PipelineParams``, ``AttentionParams``, ``DecoderParams``):
frozen dataclasses and tuples nesting arrays and scalars.  One walker visits
every leaf with its dotted path (``blocks.0.dw_w``), so casts, archives and
gradient checks never list a class's fields by hand."""

from __future__ import annotations

import dataclasses

import numpy as np


def map_leaves(fn, obj, path: str = ""):
    """Rebuild ``obj`` with every leaf replaced by ``fn(path, leaf)``.

    Dataclass instances and tuples are branches, rebuilt with
    ``dataclasses.replace`` and ``tuple``; everything else is a leaf.
    """
    prefix = f"{path}." if path else ""
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{
            f.name: map_leaves(fn, getattr(obj, f.name), prefix + f.name)
            for f in dataclasses.fields(obj)
        })
    if isinstance(obj, tuple):
        return tuple(map_leaves(fn, v, f"{prefix}{i}") for i, v in enumerate(obj))
    return fn(path, obj)


def flatten(obj) -> dict:
    """Dotted path -> leaf, in field order."""
    leaves = {}
    map_leaves(lambda path, leaf: leaves.setdefault(path, leaf), obj)
    return leaves


def astype(obj, dtype):
    """Cast every ndarray leaf to ``dtype``; scalars and ints stay as they are."""
    return map_leaves(
        lambda _, leaf: leaf.astype(dtype) if isinstance(leaf, np.ndarray) else leaf, obj
    )


def with_element(obj, path: str, index, value):
    """Copy of ``obj`` with element ``index`` of the leaf at ``path`` set to ``value``.

    Only that leaf is copied; a scalar leaf takes index ``()`` and keeps its
    type.  A bare array is a leaf at path ``""``.  Raises KeyError for a path
    that names no leaf, so a mistyped path cannot pass as a zero gradient.
    """
    if path not in flatten(obj):
        raise KeyError(f"no leaf at path {path!r}")

    def put(leaf_path, leaf):
        if leaf_path != path:
            return leaf
        new = np.array(leaf)
        new[index] = value
        return new if isinstance(leaf, np.ndarray) else type(leaf)(new.item())

    return map_leaves(put, obj)
