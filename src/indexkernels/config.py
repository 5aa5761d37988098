"""Runtime configuration.

Precedence: explicit keyword arguments / CLI flags > the key=value file
named by the INDEX_KERNELS_CFG environment variable > the defaults below.
A key the file names that is not a field below is a DomainError.
"""

import os
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass
class Config:
    # working precision (decimal digits) for all extended-precision arithmetic
    dps: int = 40
    # series truncation policy
    rel_tol: float = 1e-24
    max_terms: int = 10000
    # relative-error threshold above which evaluators raise PrecisionLossError
    precision_loss_threshold: float = 1e-6
    # multiplicative slack on bound predicates and remainder-bound checks
    bound_slack: float = 1e-9
    remainder_slack: float = 1e-6


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}

_active = None


def load_from_env():
    """The defaults, with the overrides from the file named by
    INDEX_KERNELS_CFG, if set."""
    path = os.environ.get("INDEX_KERNELS_CFG")
    if not path:
        return Config()
    overrides = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_TYPES:
                raise DomainError("unknown config key %r in %s (known: %s)"
                                  % (key, path, ", ".join(_FIELD_TYPES)))
            overrides[key] = _FIELD_TYPES[key](val.strip())
    return Config(**overrides)


def get():
    """The active configuration (env file applied on first access)."""
    global _active
    if _active is None:
        _active = load_from_env()
    return _active


def set_active(cfg):
    """Make cfg the active configuration; return the one it replaces."""
    global _active
    prev, _active = _active, cfg
    return prev
