"""Free-zone helper drawing from the random module's global state."""

import random


def jitter(n):
    return random.random() * n
