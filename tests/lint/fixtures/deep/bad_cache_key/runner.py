"""Deep-corpus: a run function with an unkeyed run-affecting knob.

``turbo`` flows (through ``window``) into the ``TcpConfig`` sink but
is never forwarded from a spec field by ``execute_unit`` and carries no
waiver — cache-key-unkeyed-param.
"""


class TcpConfig:
    def __init__(self, window):
        self.window = window


def run_experiment(mode, jitter=0.0, turbo=False, seed=0):
    window = 8 if turbo else 4
    return TcpConfig(window)
