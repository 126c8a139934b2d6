"""Deterministic low-space graph coloring over edge streams.

The package is organized around three layers:

* core data types: :mod:`streamcolor.graph`, :mod:`streamcolor.streamio`,
  :mod:`streamcolor.prng`;
* streaming machinery: hash coloring families, collision counters,
  deterministic sparse recovery, and the pass engine that combines them;
* a desk-scale lower-bound lab (:mod:`streamcolor.lab`) for the
  distributional hardness side.

The package root exports nothing; import from the submodules.
"""
