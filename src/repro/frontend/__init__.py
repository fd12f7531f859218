"""Shared frontend machinery.

Everything the frontend models have in common lives here: the
configuration dataclass, the metrics container whose
``uop_miss_rate`` / bandwidth properties are the paper's reported
quantities, the instruction-cache model, the build-mode fetch/decode
engine (the "traditional IC based frontend" at the top of Figure 6) in
its structured and flat forms, and the abstract
:class:`~repro.frontend.base.FrontendModel` driver.
"""

from repro.frontend.config import FrontendConfig
from repro.frontend.metrics import FrontendStats
from repro.frontend.icache import InstructionCache
from repro.frontend.build_engine import BuildEngine, BuildCycle
from repro.frontend.base import FrontendModel
from repro.frontend.ic_frontend import ICFrontend
from repro.frontend.decoded_cache import DcConfig, DecodedCacheFrontend

__all__ = [
    "FrontendConfig",
    "FrontendStats",
    "InstructionCache",
    "BuildEngine",
    "BuildCycle",
    "FrontendModel",
    "ICFrontend",
    "DcConfig",
    "DecodedCacheFrontend",
]
