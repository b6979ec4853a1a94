"""Fixture: top-level kernel functions RPL004 must accept."""


def _shift_task(payload):
    value, offset = payload
    return value + offset


def run_top_level(scheduler, payloads):
    return scheduler.map_kernel(_shift_task, payloads)

