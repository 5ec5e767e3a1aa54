"""Negative control for the RC1xx determinism rules.

Lives under a ``sim/`` path component so it is in determinism scope.
Every statement below violates exactly one rule; ``repro-check`` over
this tree must report RC101-RC106 and exit non-zero (asserted by the
check-negative-controls CI job and ``tests/test_check_rules.py``).
"""

import os
import random
import time


def unstable_sample(items):
    pick = random.choice(items)  # RC101: process-global RNG
    stamp = time.time()  # RC102: wall-clock read
    memo = {}
    memo[id(pick)] = stamp  # RC103: id()-keyed map
    memo.setdefault(("digests", id(items)), {})  # RC103: id() in a tuple key
    token = hash("salted-by-pythonhashseed")  # RC104: builtin hash()
    total = sum({0.1, 0.2, 0.3})  # RC105: set-order accumulation
    names = list(os.listdir("."))  # RC106: unsorted fs enumeration
    return pick, stamp, memo, token, total, names
