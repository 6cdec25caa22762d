"""Deep-corpus: RNG seed origins and shared streams.

``fixed_stream`` seeds from a constant, ``untraceable`` from a value
no caller ties to a seed, and ``inject`` hands a seed-named parameter
a constant (rng-seed-origin, three times); ``shared`` hands one RNG to
two consumers (rng-shared-stream).  ``private`` is the sanctioned
pattern: one offset stream per consumer.
"""

import random


def make_link(rng):
    return rng.random()


def fixed_stream():
    rng = random.Random(1234)
    return rng.random()


def untraceable(level):
    rng = random.Random(level)
    return rng.random()


def shared(seed):
    rng = random.Random(seed)
    first = make_link(rng)
    second = make_link(rng)
    return first + second


def private(seed):
    one = make_link(random.Random(seed + 1))
    two = make_link(random.Random(seed + 2))
    return one + two


def drive():
    return untraceable(3)


class Injector:
    def __init__(self, link, seed):
        self.link = link
        self.rng = random.Random(seed)


def inject(link):
    return Injector(link, seed=7919)
