"""Recurrent networks, written out by hand, for pouring dynamics.

The task: given a cup's rotation-angle series and a handful of static
descriptors, predict the weight series a wrist sensor would read while the
cup pours. Everything numerical (cells, backprop, Adam, the physics
simulator feeding it) lives here in plain numpy.
"""

__version__ = "0.1.0"
