"""Balanced four-splitter networks and the gates they teleport.

Exact enumeration and classification of the beam-splitter networks whose
four-mode mixing matrix has all entries of magnitude 1/2, the architecture
registry built on them, the homodyne-angle gate dictionary, and a Gaussian
simulator for the six-mode teleportation gadget.  Import names from their
modules, e.g. ``from foursplit.gates import two_mode_gate``.
"""

from . import exact, networks, hadamard, zoo, gates, sim

__version__ = "0.1.0"

__all__ = ["exact", "networks", "hadamard", "zoo", "gates", "sim", "__version__"]
