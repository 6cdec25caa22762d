"""Fixture: hot-path class without __slots__ (lint with this file's
name in ``LintConfig.hot_path_modules``).
"""


class PerPacketState:
    def __init__(self, seq):
        self.seq = seq
