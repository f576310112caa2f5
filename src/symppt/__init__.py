"""Absolute-PPT properties of symmetric multiqubit and small multiqudit states.

Exact SAPPT threshold probabilities, analytic and numeric spectra of
partially transposed symmetric states, and verification of the explicit
Dicke-basis entanglement witnesses, with a CLI that reproduces the
reference tables as CSV or JSON.
"""

from .combx import *
from .ptrans import *
from .symstate import *
from .witness import *

__version__ = "0.1.0"
