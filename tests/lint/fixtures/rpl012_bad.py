"""Fixture: globals the module never binds (RPL012)."""

import threading


def serve(gate, request):
    try:
        with gate.admit(request):
            return request.run()
    except BackpressureError as error:  # caught, never imported
        return error.kind


class Registry:
    lock = threading.Lock()
    limit = DEFAULT_LIMIT  # read in the class body, defined nowhere


def tally(values):
    total = 0
    for value in values:
        total += weight(value)  # the helper was deleted, the call survived
    return total
