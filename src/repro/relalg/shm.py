"""Names the frozen benchmark resolves; no code path shares memory.

Every operator and every shard runs in the caller's process, so nothing
publishes a shared-memory segment.  ``perfbench/`` still audits
``/dev/shm`` for leaks through :func:`shm_dir_segments` and wraps the
:class:`ShmArena` methods in its span list, so those names stay.
"""

from __future__ import annotations

import os
from typing import List, NoReturn

#: The name prefix a leaked segment of this package would carry.
SEGMENT_PREFIX = "repro_shm"


def shm_dir_segments() -> List[str]:
    """Segments under ``/dev/shm`` with :data:`SEGMENT_PREFIX` (empty if none)."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)
        )
    except OSError:
        return []


class ShmArena:
    """Kept only for the benchmark's span list: every method raises."""

    def _unsupported(self, *args: object) -> NoReturn:
        raise NotImplementedError("repro shares no memory between processes")

    share_relation = share_column = share_array = _unsupported
