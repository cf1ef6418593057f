"""Exception types shared across the package."""


class AtlasError(Exception):
    """Base class for all subgroup-atlas errors."""


class ConfigError(AtlasError):
    """An environment setting has a value the package cannot use."""


class CapExceeded(AtlasError):
    """A group order or enumeration size is above the configured cap."""


class NotNormal(AtlasError):
    """An operation required a normal subgroup and got a non-normal one."""


class PrimeOverlap(AtlasError):
    """Product tower factors share a prime."""


class DepthMismatch(AtlasError):
    """Product tower factors have different depths."""


class RelationCheckFailed(AtlasError):
    """A constructor's defining relations failed to hold (construction bug guard)."""


class WrongFamily(AtlasError):
    """An audit was invoked on a tower of the wrong family."""


class WrongShape(AtlasError):
    """An operation was invoked on data of the wrong structural shape."""


class OutOfRange(AtlasError):
    """A level or rank argument is outside the available range."""


class SpecError(AtlasError):
    """A JSON spec document failed validation.

    Carries JSON-pointer-style paths of the offending fields.
    """

    def __init__(self, message: str, paths: list[str] | None = None):
        super().__init__(message)
        self.paths = paths or []
