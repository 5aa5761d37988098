"""Runtime configuration of the command-line harness.

The CLI reads it with precedence flags > the key=value file named by the
INDEX_KERNELS_CFG environment variable > the defaults below; the library
reads no configuration.  A key the file names that is not a field below,
a file that cannot be read and a value out of its field's range are each
a DomainError.
"""

import math
import os
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass
class Config:
    # working precision (decimal digits) for all extended-precision
    # arithmetic; every series stops at 10^-dps of its sum
    dps: int = 40
    # multiplicative slack on bound predicates and remainder-bound checks
    bound_slack: float = 1e-9
    remainder_slack: float = 1e-6

    def __post_init__(self):
        if not self.dps >= 1:
            raise DomainError("dps must be >= 1")
        for name in ("bound_slack", "remainder_slack"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise DomainError("%s must be finite and >= 0" % name)


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def get():
    """The defaults, with the overrides from the file named by
    INDEX_KERNELS_CFG, if set; the file is read on each call."""
    path = os.environ.get("INDEX_KERNELS_CFG")
    if not path:
        return Config()
    overrides = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise DomainError("cannot read INDEX_KERNELS_CFG file %s: %s"
                          % (path, exc.strerror))
    with fh:
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
