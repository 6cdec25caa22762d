"""Fixture: a pragma naming an id no rule has (it waives nothing)."""


def timer_due(sim, deadline):
    # repro-lint: allow(float-clock-eq)
    return sim.now <= deadline
