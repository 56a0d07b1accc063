"""A sink that keeps every state and row a march hands it, for the tests
that read the intermediate states or rows of a run."""

import numpy as np


class Collected:
    """Every recorded (state, row) of one run, in step order, and how the
    run ended (its Trajectory's termination and message)."""

    def __init__(self):
        self.states, self.diagnostics = [], []
        self.termination = self.message = None

    def __call__(self, state, row):
        self.states.append(state)
        self.diagnostics.append(row)

    @property
    def times(self) -> np.ndarray:
        return np.asarray([row.t for row in self.diagnostics])


def collect(run, cfg, init, *args) -> Collected:
    """run(cfg, init, *args, sink), run being model_a2.simulate or march,
    with a Collected sink; returns the sink."""
    sink = Collected()
    traj = run(cfg, init, *args, sink)
    sink.termination, sink.message = traj.termination, traj.message
    return sink
