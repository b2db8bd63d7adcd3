"""Coalition logic with an explicit inability operator: parsing, finite
one-step game models, satisfaction checking, inability elimination, and
bounded countermodel search."""

# Each submodule's __all__ is the one list of its public names.
from .errors import *
from .formula import *
from .model import *
from .semantics import *
from .translation import *
from .validity import *
from .laws import *

__all__ = (errors.__all__ + formula.__all__ + model.__all__
           + semantics.__all__ + translation.__all__ + validity.__all__
           + laws.__all__)
