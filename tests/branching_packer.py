"""The packer with the plain branching search as its exact search.

The served packer proves feasibility with bin completion first and runs the
branching search only to extract the assignment (or alone, when the
completion engine's budget runs out).  This reference always runs the
branching search alone, for the parity suites.  Give it no shared memo: its
configuration key equals the served packer's.
"""

from repro.minlp.binpacking import VectorBinPacker


class BranchingPacker(VectorBinPacker):
    _exact_search = VectorBinPacker._exact_search_branching
