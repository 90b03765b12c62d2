"""The slow, set-based CC scorer that ``binning.Coverage`` replaced.

One Python ``set`` of bins and one of combos per CC, and a loop over every
CC per (bin, combo) question: obviously correct, so the tests keep it as the
oracle for the coverage matrix and for counting what an allocation achieves.
"""
from repro.core.binning import Binning, Combos
from repro.core.constraints import CC


class Scorer:
    """Counts spurious CC contributions of a (bin, combo) assignment."""

    def __init__(self, ccs: list[CC], binning: Binning, combos: Combos):
        self.cc_ids = [c.cc_id for c in ccs]
        self.bin_sets = {c.cc_id: set(binning.cond_bin_ids(c.r1).tolist()) for c in ccs}
        self.combo_sets = {
            c.cc_id: set(combos.cond_combo_ids(c.r2).tolist()) for c in ccs
        }

    def score(self, bin_id: int, combo_id: int, allowed: set[int]) -> int:
        return sum(
            1
            for i in self.cc_ids
            if i not in allowed
            and bin_id in self.bin_sets[i]
            and combo_id in self.combo_sets[i]
        )

