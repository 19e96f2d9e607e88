"""A seeded generator that logs every draw a kernel makes.

The kernel differential tests hand one to the kernel under test and one,
seeded alike, to the reference loop it replaced, then compare the two
logs and ``bit_generator.state`` after every call.
"""

import numpy as np


class RecordingGenerator:
    """A seeded ``np.random.Generator`` stand-in that logs each draw.

    Each entry is the method and its arguments, arrays as lists (the
    hypergeometric's colour counts, the array handed to ``shuffle``,
    the multinomial's probabilities), so two logs are equal exactly when
    the same calls were made with the same arguments in the same order,
    float for float.  With ``limit`` set, a draw past that many raises
    ``AssertionError``, so a kernel that would loop forever fails.
    """

    def __init__(self, seed: int) -> None:
        self.generator = np.random.default_rng(seed)
        self.bit_generator = self.generator.bit_generator
        self.calls = []
        self.limit = None

    def _log(self, *entry):
        self.calls.append(entry)
        if self.limit is not None and len(self.calls) > self.limit:
            raise AssertionError(f"more than {self.limit} draws")

    def standard_exponential(self):
        self._log("standard_exponential")
        return self.generator.standard_exponential()

    def multivariate_hypergeometric(self, colors, nsample):
        self._log("multivariate_hypergeometric", colors.tolist(), nsample)
        return self.generator.multivariate_hypergeometric(colors, nsample)

    def shuffle(self, x):
        self._log("shuffle", x.tolist())
        self.generator.shuffle(x)

    def integers(self, low, high):
        self._log("integers", low, high)
        return self.generator.integers(low, high)

    def geometric(self, p):
        self._log("geometric", p)
        return self.generator.geometric(p)

    def binomial(self, n, p):
        self._log("binomial", n, p)
        return self.generator.binomial(n, p)

    def multinomial(self, n, pvals):
        self._log("multinomial", n, pvals.tolist())
        return self.generator.multinomial(n, pvals)
