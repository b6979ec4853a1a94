"""Fixture: every global read is bound somewhere RPL012 can see."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Sequence

try:
    import fastjson as json
except ImportError:
    import json

_CACHE = None
HERE = __file__


class BackpressureError(RuntimeError):
    label = __qualname__


def serve(gate, request):
    try:
        with gate.admit(request):
            return request.run()
    except BackpressureError as error:
        return json.dumps(str(error))


def cache(values: Sequence[int]):
    global _CACHE, _FILLED
    _FILLED = True  # bound at module level by the global statement
    _CACHE = sorted(values, key=lambda value: -value)
    return [len(_CACHE) for _ in range(2)], threading.get_ident()


def filled():
    return _FILLED and super
