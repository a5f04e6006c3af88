"""Online reconstruction of time-varying graph signals with missing nodes.

Two predictor families share one causal evaluation loop: classical adaptive
graph filters (GLMS and its sign-error variant) and a per-node language-model
aggregator that answers localized prompts built from neighborhood values.
The package's names are each module's ``__all__``, in the order below.
"""

from .graphs import *
from .signals import *
from .filters import *
from .messenger import *
from .backends import *
from .harness import *
from .datasets import *
from . import backends, datasets, filters, graphs, harness, messenger, signals

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in (graphs, signals, filters, messenger, backends, harness, datasets)
                             for name in module.__all__]
