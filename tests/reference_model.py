"""A generation-exact reference model of the filter's answers.

The model knows only the filter's fingerprint hash and the generation
arithmetic. The element inserted at stream position t belongs to
generation t // g, and a query answers Yes iff the element's
fingerprint was last inserted at most c generations before the current
one. It shares no code with the dictionary, the label counter or the
scanner, so a fault in any of them that changes an answer shows up as a
mismatch.
"""

from slidingbloom import INFINITE
from slidingbloom.prng import SplitMix64

# (n, m, epsilon, u, steps) of acceptance criterion 6's exhaustive sweeps
CRITERION_6_CONFIGS = [
    (12, 3, 0.25, 499, 700),
    (50, 50, 0.25, 499, 600),
    (50, 5, 0.25, 499, 600),
    (20, INFINITE, 0.5, 211, 700),
    # a nearly full table: side-2 cells, kicks and bucket-2 matches
    (40, INFINITE, 0.25, 499, 600),
]


class ReferenceModel:
    def __init__(self, f):
        self.eval, self.g, self.c = f.hash.eval, f.params.g, f.params.c
        self.t, self.last = 0, {}

    def insert(self, x):
        self.last[self.eval(x)] = self.t // self.g
        self.t += 1

    def query(self, x):
        fp = self.eval(x)
        return fp in self.last and self.t // self.g - self.last[fp] <= self.c


def sweep_mismatches(f, u, steps, stream_seed):
    """Insert `steps` elements drawn below u from SplitMix64(stream_seed)
    into f and into a model of it; after every insert, count the probes
    of [0, u) on which the two answer differently."""
    model = ReferenceModel(f)
    rng = SplitMix64(stream_seed)
    mismatches = 0
    for _ in range(steps):
        x = rng.below(u)
        f.insert(x)
        model.insert(x)
        for probe in range(u):
            if f.query(probe) != model.query(probe):
                mismatches += 1
    return mismatches
