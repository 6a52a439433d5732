"""Shared helper for the workloads' vectorised ``execute_batch`` paths.

Batched stage implementations must stay bit-identical to their scalar
``execute`` (see ``docs/batching.md``), so the only generic machinery they
share is order-preserving grouping: items are bucketed by a key (usually an
array shape, so same-shape payloads can be stacked into one ndarray op)
while remembering their original batch positions, and every group's results
are scattered back to the per-item :class:`~repro.core.stage.EmitContext`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, TypeVar

T = TypeVar("T")


def group_indices(
    items: Sequence[T], key: Callable[[T], Hashable]
) -> dict[Hashable, list[int]]:
    """Bucket batch positions by ``key(item)``, preserving item order.

    Within a group the indices are ascending, so stacking
    ``[items[i] for i in indices]`` and scattering results back to
    ``ctxs[i]`` reproduces the scalar per-item emission order exactly.
    """
    groups: dict[Hashable, list[int]] = {}
    for index, item in enumerate(items):
        groups.setdefault(key(item), []).append(index)
    return groups
