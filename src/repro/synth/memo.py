"""Per-call memo of work that depends only on a network's structure.

The scenarios of one :func:`repro.core.flow.run_scenarios` call differ
only in stage 2's power mode and in the mapper's cost policy.  The
structural choices of the stage-1 network, the k-LUT cut candidates on
the choice network and the mapper's cut sets and activities are
therefore the same for every scenario that sees the same network.
``run_scenarios`` hands its scenarios one plain ``dict`` as the memo
and drops it when their synthesis ends; every other caller passes
``None`` and computes as before.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .. import obs
from .aig import AIG

T = TypeVar("T")


def memoized(
    memo: dict | None, kind: str, aig: AIG, params: tuple, compute: Callable[[], T]
) -> T:
    """``compute()``, or its earlier value for the same network in ``memo``.

    The key is ``kind``, ``aig.structural_hash()`` and ``params``:
    ``params`` must name every argument ``compute`` reads besides the
    network.  Values are shared, not copied, so their consumers must
    only read them.  Without a memo this is ``compute()``.  Two
    threads may both miss and compute the same entry; the values are
    equal, so either may be kept.
    """
    if memo is None:
        return compute()
    key = (kind, aig.structural_hash(), params)
    value = memo.get(key)
    if value is None:
        obs.count("memo.miss")
        value = memo[key] = compute()
    else:
        obs.count("memo.hit")
    return value
