"""Return address stack.

The structure at the heart of the paper's ``call-stack`` improvement
(Section 3.2.1): with the original converter, indirect calls that read
and write X30 are typed as *returns*, so they pop the RAS instead of
pushing it — mispredicting their own target and desynchronising the
stack for every genuine return above them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.champsim.branch_info import BranchType

_RETURN = BranchType.RETURN
_CALLS = (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)


class ReturnAddressStack:
    """Bounded LIFO of predicted return addresses."""

    def __init__(self, size: int = 64) -> None:
        self._size = size
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self._stack)

    def push(self, return_address: int) -> None:
        """Record the return address of a fetched call."""
        if len(self._stack) >= self._size:
            # Overflow discards the oldest entry (deep recursion).
            self._stack.pop(0)
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        """Predicted target of a fetched return (None when empty)."""
        if not self._stack:
            return None
        return self._stack.pop()

    def pop_push_batch(
        self, branch_types: Sequence[BranchType], ips: Sequence[int]
    ) -> List[Optional[int]]:
        """Pop returns and push calls for a whole branch subsequence.

        Returns the pop result at RETURN positions (``None`` elsewhere
        and on underflow), matching the scalar engine's per-branch
        ``pop``/``push`` order bit-identically.
        """
        stack = self._stack
        size = self._size
        preds: List[Optional[int]] = [None] * len(branch_types)
        for i, branch_type in enumerate(branch_types):
            if branch_type is _RETURN:
                if stack:
                    preds[i] = stack.pop()
            elif branch_type in _CALLS:
                if len(stack) >= size:
                    stack.pop(0)
                stack.append(ips[i] + 4)
        return preds

    def clear(self) -> None:
        self._stack.clear()
