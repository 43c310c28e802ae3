"""Simulator and verification harness for a one-out-of-two quantum oblivious
transfer protocol built directly on the nonorthogonal states |0> and |+>."""

from . import adversary, costmodel, experiments, protocol, qsim

__all__ = ["adversary", "costmodel", "experiments", "protocol", "qsim"]
__version__ = "0.4.0"
